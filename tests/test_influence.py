"""Inverse-HVP solver and per-sample influence scores.

Solver output is checked against dense linear solves; the one-solve
factorization of the influence scores is checked against a per-pair oracle
that solves the system once per training row.
"""

import re

import numpy as np
import pytest

from conftest import blocks_of, dense_grad_rows, dense_hessian, make_ds, random_ds
from infsub import model, parallel
from infsub.data import DataError, SparseDataset
from infsub.influence import (ConvergenceError, PcgConfig, compute_phi, compute_psi_norms,
                              inverse_hvp_pcg, read_influence_csv, write_influence_csv)
from infsub.model import ModelParams, train
from infsub.synthdata import ill_conditioned

TIGHT = PcgConfig(tol=1e-12, max_iter=2000)


@pytest.fixture(scope="module")
def fitted():
    ds = random_ds(np.random.default_rng(21), n=25, d=5)
    params = train(ds, reg_c=0.2, tol=1e-12)
    return ds, params


def test_pcg_config_validation():
    with pytest.raises(ValueError, match="tol"):
        PcgConfig(tol=0.0)
    with pytest.raises(ValueError, match="pcg_tol must be positive and finite, got inf"):
        PcgConfig(tol=np.inf)
    with pytest.raises(ValueError, match="tol"):
        PcgConfig(tol=np.nan)
    with pytest.raises(ValueError, match="max_iter"):
        PcgConfig(max_iter=0)


# ------------------------------------------------------------------- solver

def test_zero_rhs_short_circuits(fitted):
    ds, params = fitted
    t, info = inverse_hvp_pcg(model.curvature(params, ds), np.zeros(params.dim))
    assert np.array_equal(t, np.zeros(params.dim))
    assert info.iters == 0
    assert info.converged


def test_solution_matches_dense_solve(fitted):
    ds, params = fitted
    H = dense_hessian(params, ds)
    rng = np.random.default_rng(2)
    solvers = (lambda Hop, v: model.pcg(Hop, v, 1e-10, 1000),
               lambda Hop, v: inverse_hvp_pcg(Hop, v, PcgConfig(tol=1e-10, max_iter=1000)))
    for solve in solvers:
        for _ in range(4):
            v = rng.normal(size=params.dim)
            t, info = solve(model.curvature(params, ds), v)
            assert info.converged
            ref = np.linalg.solve(H, v)
            assert np.linalg.norm(t - ref) <= 1e-6 * np.linalg.norm(ref)


def test_residual_meets_relative_tolerance(fitted):
    ds, params = fitted
    rng = np.random.default_rng(3)
    v = rng.normal(size=params.dim)
    cfg = PcgConfig(tol=1e-8, max_iter=1000)
    t, info = inverse_hvp_pcg(model.curvature(params, ds), v, cfg)
    assert info.converged
    true_res = np.linalg.norm(model.hvp(model.curvature(params, ds), t) - v)
    assert true_res <= 1e-8 * np.linalg.norm(v)
    assert info.residual == pytest.approx(true_res, rel=1e-6, abs=1e-14)


def test_identity_block_direction_is_exact():
    # Columns 2 and 3 carry no data; with C = 1 the Hessian is the identity
    # there, so the solve returns the right-hand side after one iteration.
    ds = make_ds([[1.0, 2.0], [0.5, -1.0]], [0, 1], n_features=4)
    params = ModelParams(np.array([0.1, -0.3, 0.0, 0.0]), 1.0)
    v = np.array([0.0, 0.0, 3.0, -4.0])
    t, info = inverse_hvp_pcg(model.curvature(params, ds), v)
    assert np.array_equal(t, v)
    assert info.iters == 1
    assert info.converged


def test_plain_and_preconditioned_agree(fitted):
    ds, params = fitted
    v = np.random.default_rng(4).normal(size=params.dim)
    t1, _ = inverse_hvp_pcg(model.curvature(params, ds), v, PcgConfig(tol=1e-10))
    t0, _ = model.pcg(model.curvature(params, ds), v, 1e-10, 1000)
    assert np.linalg.norm(t1 - t0) <= 1e-8 * np.linalg.norm(t1)


def test_preconditioner_cuts_iterations_when_scales_vary():
    ds = ill_conditioned(n=200, d=40, seed=5)
    H = model.curvature(ModelParams(np.zeros(ds.n_features), 1e-4), ds)
    v = np.random.default_rng(0).normal(size=ds.n_features)
    _, with_pre = inverse_hvp_pcg(H, v, PcgConfig(tol=1e-8, max_iter=5000))
    _, plain = model.pcg(H, v, 1e-8, 5000)
    assert with_pre.converged and plain.converged
    assert with_pre.iters < plain.iters


def test_max_iter_returns_last_iterate_flagged(fitted):
    ds, params = fitted
    v = np.random.default_rng(5).normal(size=params.dim)
    cfg = PcgConfig(tol=1e-14, max_iter=2)
    t, info = inverse_hvp_pcg(model.curvature(params, ds), v, cfg)
    assert not info.converged
    assert info.iters == 2
    assert np.all(np.isfinite(t))
    # The reported residual belongs to the returned (last) iterate.
    assert np.linalg.norm(model.hvp(model.curvature(params, ds), t) - v) == pytest.approx(
        info.residual, rel=1e-12)


def test_breakdown_reports_iterations_done():
    # s < 0 makes this hand-built H negative definite, so the very first
    # direction has p.Hp < 0 with or without the diagonal preconditioner.
    H = model.Curvature(make_ds(np.eye(2), [0, 1]).X, s=np.array([-1.0, -1.0]), c_wbar=0.1)
    v = np.array([1.0, 2.0])
    for t, info in (model.pcg(H, v, 1e-8, 1000), inverse_hvp_pcg(H, v)):
        assert info.iters == 0
        assert not info.converged
        assert np.array_equal(t, np.zeros(2))
        assert info.residual == np.linalg.norm(v)


def test_solver_input_validation(fitted):
    ds, params = fitted
    with pytest.raises(ValueError, match="reg_c"):
        inverse_hvp_pcg(model.curvature(ModelParams(np.zeros(params.dim), 0.0), ds),
                        np.ones(params.dim))
    # All-zero weights drop the C wbar term, so H is singular despite C > 0.
    with pytest.raises(ValueError, match="reg_c"):
        inverse_hvp_pcg(model.Curvature(ds.X, np.zeros(ds.n_rows), 0.0), np.ones(params.dim))
    with pytest.raises(ValueError, match="shape"):
        inverse_hvp_pcg(model.curvature(params, ds), np.ones(params.dim + 1))
    with pytest.raises(ValueError, match="finite"):
        inverse_hvp_pcg(model.curvature(params, ds), np.full(params.dim, np.nan))
    with pytest.raises(ValueError, match="shape"):
        inverse_hvp_pcg(model.curvature(params, ds), np.ones((params.dim + 1, 2)))
    with pytest.raises(ValueError, match="shape"):
        inverse_hvp_pcg(model.curvature(params, ds), np.ones((params.dim, 2, 1)))
    with pytest.raises(ValueError, match="finite"):
        inverse_hvp_pcg(model.curvature(params, ds), np.full((params.dim, 2), np.inf))
    empty = make_ds(np.zeros((0, params.dim)), [])
    with pytest.raises(ValueError, match="empty"):
        inverse_hvp_pcg(model.curvature(params, empty), np.ones(params.dim))


# ------------------------------------------------------------- block solves

def test_block_solve_matches_separate_solves():
    # Columns need different iteration counts here, so the block shrinks as
    # they stop; the zero column stops before the first product.
    ds = ill_conditioned(n=200, d=40, seed=5)
    H = model.curvature(ModelParams(np.zeros(ds.n_features), 1e-3), ds)
    rng = np.random.default_rng(8)
    B = rng.normal(size=(ds.n_features, 6)) * np.array([1.0, 1e-3, 0.0, 1e3, 1.0, 1.0])
    B[:5, 4] = 0.0
    B[::2, 5] = 0.0
    cfg = PcgConfig(tol=1e-10, max_iter=2000)
    T, info = inverse_hvp_pcg(H, B, cfg)
    assert info.residual.shape == info.converged.shape == (6,)
    assert np.all(info.converged)
    iters = []
    for j in range(B.shape[1]):
        t, one = inverse_hvp_pcg(H, B[:, j], cfg)
        iters.append(one.iters)
        assert np.linalg.norm(T[:, j] - t) <= 1e-8 * max(np.linalg.norm(t), 1e-300)
        true_res = np.linalg.norm(model.hvp(H, T[:, j]) - B[:, j])
        assert true_res <= 1e-10 * np.linalg.norm(B[:, j])
        assert info.residual[j] == pytest.approx(one.residual, rel=1e-3, abs=1e-300)
    assert np.array_equal(T[:, 2], np.zeros(ds.n_features))
    assert info.residual[2] == 0.0
    assert len(set(iters)) > 2
    assert info.iters == max(iters)
    assert not info.restarted

    # One tolerance per column: each column stops where its own scalar solve does.
    tols = np.array([1e-3, 1e-10, 0.5, 1e-6, 1e-12, 0.1])
    T, info = model.pcg(H, B, tols, cfg.max_iter, H.diag)
    iters = []
    for j in range(B.shape[1]):
        t, one = model.pcg(H, B[:, j], tols[j], cfg.max_iter, H.diag)
        iters.append(one.iters)
        assert one.converged and info.converged[j]
        assert np.linalg.norm(T[:, j] - t) <= 1e-12 * max(np.linalg.norm(t), 1e-300)
        assert info.residual[j] == pytest.approx(one.residual, rel=1e-3, abs=1e-300)
    assert len(set(iters)) > 3
    assert info.iters == max(iters)


def test_block_max_iter_returns_last_iterates_flagged(fitted):
    ds, params = fitted
    H = model.curvature(params, ds)
    B = np.random.default_rng(9).normal(size=(params.dim, 3))
    B[:, 1] = 0.0
    T, info = inverse_hvp_pcg(H, B, PcgConfig(tol=1e-14, max_iter=2))
    assert info.iters == 2
    assert info.converged.tolist() == [False, True, False]
    for j in (0, 2):
        assert np.linalg.norm(model.hvp(H, T[:, j]) - B[:, j]) == pytest.approx(
            info.residual[j], rel=1e-12)


@pytest.mark.parametrize("cap", [3, 5, 8, 13, 21])
def test_capped_block_column_matches_capped_vector_solve(cap):
    # Every column stops at the cap, short of its tolerance, and returns the
    # iterate its own 1-D solve reaches after the same iterations.
    ds = ill_conditioned(n=200, d=40, seed=5)
    H = model.curvature(ModelParams(np.zeros(ds.n_features), 1e-4), ds)
    B = np.random.default_rng(10).normal(size=(ds.n_features, 3)) * np.array([1.0, 1e-3, 1e3])
    cfg = PcgConfig(tol=1e-14, max_iter=cap)
    T, info = inverse_hvp_pcg(H, B, cfg)
    assert info.iters == cap
    assert not np.any(info.converged)
    for j in range(B.shape[1]):
        t, one = inverse_hvp_pcg(H, B[:, j], cfg)
        assert not one.converged and one.iters == cap
        assert np.linalg.norm(T[:, j] - t) <= 1e-12 * np.linalg.norm(t)
        assert info.residual[j] == pytest.approx(one.residual, rel=1e-12)


def test_block_breakdown_reports_iterations_done():
    H = model.Curvature(make_ds(np.eye(2), [0, 1]).X, s=np.array([-1.0, -1.0]), c_wbar=0.1)
    B = np.array([[1.0, 0.0, -3.0], [2.0, 0.0, 0.5]])
    T, info = model.pcg(H, B, 1e-8, 1000, H.diag)
    assert info.iters == 0
    assert info.converged.tolist() == [False, True, False]
    assert np.array_equal(T, np.zeros((2, 3)))
    assert np.array_equal(info.residual, np.linalg.norm(B, axis=0))


# ----------------------------------------------------------------- phi scores

def test_phi_matches_per_pair_oracle():
    # Oracle: solve H^{-1} grad_i densely for every training row and sum the
    # per-pair products over the validation rows.
    rng = np.random.default_rng(31)
    tr = random_ds(rng, n=5, d=3)
    va = random_ds(rng, n=4, d=3)
    params = train(tr, reg_c=0.3, tol=1e-12)
    report = compute_phi(params, tr, va, TIGHT)

    H = dense_hessian(params, tr)
    g_tr = dense_grad_rows(params, tr, regularized=True)
    g_va = dense_grad_rows(params, va, regularized=False)
    expected = np.empty(tr.n_rows)
    for i in range(tr.n_rows):
        psi = np.linalg.solve(H, g_tr[i])
        expected[i] = -np.sum(g_va @ psi)
    assert np.allclose(report.phi, expected, rtol=1e-8, atol=1e-12)


def test_phi_mean_is_zero_against_own_training_set():
    ds = random_ds(np.random.default_rng(32), n=40, d=6)
    params = train(ds, reg_c=0.1, tol=1e-10)
    report = compute_phi(params, ds, ds, TIGHT)
    assert abs(np.sum(report.phi)) <= 1e-6 * np.sum(np.abs(report.phi))


def test_phi_equal_for_duplicated_rows():
    rng = np.random.default_rng(33)
    base = rng.normal(size=(6, 3))
    rows = np.vstack([base, base[2]])  # row 6 duplicates row 2
    labels = [0, 1, 1, 0, 1, 0, 1]
    tr = make_ds(rows, labels)
    va = random_ds(rng, n=5, d=3)
    params = train(tr, reg_c=0.2, tol=1e-10)
    report = compute_phi(params, tr, va, TIGHT)
    assert report.phi[6] == report.phi[2]


def test_phi_raises_on_nonconvergence(fitted):
    ds, params = fitted
    va = random_ds(np.random.default_rng(34), n=10, d=5)
    with pytest.raises(ConvergenceError, match="residual"):
        compute_phi(params, ds, va, PcgConfig(tol=1e-14, max_iter=1))


def test_phi_rejects_empty_validation(fitted):
    ds, params = fitted
    empty = make_ds(np.zeros((0, params.dim)), [])
    with pytest.raises(ValueError, match="empty validation"):
        compute_phi(params, ds, empty)


# ------------------------------------------------------------------ psi norms

def test_psi_norms_match_dense_oracle():
    rng = np.random.default_rng(41)
    tr = random_ds(rng, n=20, d=5)
    params = train(tr, reg_c=0.25, tol=1e-12)
    norms = compute_psi_norms(params, tr, TIGHT)
    H = dense_hessian(params, tr)
    g_tr = dense_grad_rows(params, tr, regularized=True)
    for i in range(tr.n_rows):
        expected = np.linalg.norm(np.linalg.solve(H, g_tr[i]))
        assert norms[i] == pytest.approx(expected, rel=1e-6)


def test_psi_norms_compute_the_diagonal_once(fitted, monkeypatch):
    ds, params = fitted
    calls = []
    real = model.hessian_diag
    monkeypatch.setattr(model, "hessian_diag", lambda H: calls.append(H) or real(H))
    compute_psi_norms(params, ds, TIGHT)
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 3, 7, 20, 64], ids=lambda k: f"k{k}")
def test_psi_norms_match_per_row_solves(monkeypatch, k):
    # Oracle: one tight vector PCG solve per row. n = 20 covers a block
    # wider than n, one exactly n wide, and widths that do not divide n.
    rng = np.random.default_rng(43)
    tr = random_ds(rng, n=20, d=6, zero_frac=0.3)
    params = train(tr, reg_c=0.05, tol=1e-12)
    blocks_of(monkeypatch, k)
    norms = compute_psi_norms(params, tr, TIGHT)
    H = model.curvature(params, tr)
    g_tr = dense_grad_rows(params, tr, regularized=True)
    for i in range(tr.n_rows):
        t, info = model.pcg(H, g_tr[i], 1e-12, 2000, H.diag)
        assert info.converged
        want = np.linalg.norm(t)
        assert abs(norms[i] - want) <= 1e-8 * want


def test_psi_is_bit_identical_at_every_block_width(monkeypatch):
    # A row's solve is one column of its block, kept column-contiguous, so
    # its psi does not depend on the block's width or the row's place in it.
    rng = np.random.default_rng(47)
    tr = random_ds(rng, n=40, d=12, zero_frac=0.3)
    params = train(tr, reg_c=0.05)
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
    assert parallel.column_blocks(tr.n_rows, tr.X) == [slice(0, tr.n_rows)]
    default = compute_psi_norms(params, tr)
    for k in (1, 3):
        blocks_of(monkeypatch, k)
        assert np.array_equal(compute_psi_norms(params, tr), default)


def test_psi_zero_gradient_row_is_zero():
    # With theta = 0 an all-zero feature row has a zero per-sample gradient.
    tr = make_ds([[1.0, 2.0], [0.0, 0.0], [-1.0, 0.5]], [0, 1, 1])
    params = ModelParams(np.zeros(2), 0.5)
    norms = compute_psi_norms(params, tr)
    assert norms[1] == 0.0
    assert np.all(norms[[0, 2]] > 0)


@pytest.mark.parametrize("k", [1, 2], ids=lambda k: f"k{k}")
def test_psi_zero_gradient_row_is_zero_in_narrow_blocks(monkeypatch, k):
    # The zero row alone in its block (k = 1) or beside a live row (k = 2).
    tr = make_ds([[1.0, 2.0], [0.0, 0.0], [-1.0, 0.5]], [0, 1, 1])
    params = ModelParams(np.zeros(2), 0.5)
    blocks_of(monkeypatch, k)
    norms = compute_psi_norms(params, tr)
    assert norms[1] == 0.0
    assert np.all(norms[[0, 2]] > 0)


def test_psi_without_features_is_zero():
    # d = 0 leaves every gradient empty; the block plan must not divide by d.
    tr = make_ds(np.zeros((3, 0)), [0, 1, 1])
    params = train(tr, reg_c=0.1)
    assert params.dim == 0
    assert np.array_equal(compute_psi_norms(params, tr), np.zeros(3))


def test_psi_equal_for_duplicated_rows():
    rng = np.random.default_rng(42)
    base = rng.normal(size=(5, 3))
    rows = np.vstack([base, base[0]])
    tr = make_ds(rows, [0, 1, 0, 1, 1, 0])
    params = train(tr, reg_c=0.3, tol=1e-10)
    norms = compute_psi_norms(params, tr, TIGHT)
    assert norms[5] == norms[0]


@pytest.mark.parametrize("k", [2, 4], ids=lambda k: f"k{k}")
def test_psi_equal_for_duplicated_rows_in_different_blocks(monkeypatch, k):
    rng = np.random.default_rng(42)
    base = rng.normal(size=(5, 3))
    rows = np.vstack([base, base[0]])
    tr = make_ds(rows, [0, 1, 0, 1, 1, 0])
    params = train(tr, reg_c=0.3, tol=1e-10)
    blocks_of(monkeypatch, k)
    norms = compute_psi_norms(params, tr, TIGHT)
    assert norms[5] == norms[0]


@pytest.mark.parametrize("k, first_miss", [(2, 1), (2, 2), (8, 2)])
def test_psi_names_first_row_that_missed(monkeypatch, k, first_miss):
    # Rows before ``first_miss`` have zero gradients and solve exactly, so the
    # first solve to miss a one-iteration cap is that row's, in the first
    # block or a later one.
    rng = np.random.default_rng(44)
    rows = rng.normal(size=(6, 3))
    rows[:first_miss] = 0.0
    tr = make_ds(rows, [0, 1, 0, 1, 1, 0])
    params = ModelParams(np.zeros(3), 0.5)
    blocks_of(monkeypatch, k)
    with pytest.raises(ConvergenceError, match=f"^sample {first_miss}: inverse HVP stopped"):
        compute_psi_norms(params, tr, PcgConfig(tol=1e-14, max_iter=1))


# ------------------------------------------------------------------ CSV files

def test_influence_csv_round_trip(tmp_path):
    phi = np.array([0.125, -3.0, 1.0 / 3.0])
    path = tmp_path / "phi.csv"
    write_influence_csv(str(path), phi)
    back_phi, back_psi = read_influence_csv(str(path))
    assert np.array_equal(back_phi, phi)
    assert back_psi is None
    assert path.read_text().splitlines()[0] == "index,phi"


def test_influence_csv_round_trip_with_psi(tmp_path):
    phi = np.array([-0.5, 0.75])
    psi = np.array([0.1, 2.0 / 7.0])
    path = tmp_path / "phi_psi.csv"
    write_influence_csv(str(path), phi, psi)
    back_phi, back_psi = read_influence_csv(str(path))
    assert np.array_equal(back_phi, phi)
    assert np.array_equal(back_psi, psi)
    assert path.read_text().splitlines()[0] == "index,phi,psi_norm"


@pytest.mark.parametrize("with_psi", [False, True], ids=["phi", "phi-psi"])
def test_influence_csv_contents(tmp_path, with_psi):
    psi = np.array([2.0, 0.1, 1e-300]) if with_psi else None
    path = tmp_path / "phi.csv"
    write_influence_csv(str(path), np.array([0.125, -3.0, 1.0 / 3.0]), psi)
    if with_psi:
        assert path.read_text() == ("index,phi,psi_norm\n"
                                    "0,0.125,2.0\n"
                                    "1,-3.0,0.1\n"
                                    "2,0.3333333333333333,1e-300\n")
    else:
        assert path.read_text() == ("index,phi\n"
                                    "0,0.125\n"
                                    "1,-3.0\n"
                                    "2,0.3333333333333333\n")


def test_influence_csv_read_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,phi\n1,0.5\n")
    with pytest.raises(ValueError, match="indexed 0"):
        read_influence_csv(str(path))
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        read_influence_csv(str(path))
    path.write_text("index,phi\n0,0.5,9\n")
    with pytest.raises(ValueError, match="bad row"):
        read_influence_csv(str(path))
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_influence_csv(str(path))
    for text in ("index,phi\n0,0.5\n1,inf\n", "index,phi,psi_norm\n0,nan,1.0\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="phi must be finite"):
            read_influence_csv(str(path))
    for bad in ("-1e-300", "inf", "nan"):
        path.write_text(f"index,phi,psi_norm\n0,0.5,1.0\n1,0.25,{bad}\n")
        with pytest.raises(ValueError, match="psi_norm must be finite and nonnegative"):
            read_influence_csv(str(path))
    for text in ("index,phi\n0,abc\n", "index,phi,psi_norm\n0,0.5,x\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: could not convert"):
            read_influence_csv(str(path))
    with pytest.raises(DataError, match="cannot read"):
        read_influence_csv(str(tmp_path / "missing.csv"))
