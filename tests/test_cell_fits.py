"""The cell layer of a pipeline: draws turned into weight columns, and the
lockstep block fit of those columns.

The differential test solves every cell's subset objective apart from the
program: dense rows of the selected subset, optlr's inverse-probability
weights from their documented formula, and ``scipy.optimize.minimize``.
Each layer gets the program's own output of the layer before (influence
scores, probabilities and the drawn rows), so a near-tie upstream cannot
make it flaky.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from conftest import dataset_path, make_ds, random_ds
from infsub import experiment, model, sampling
from infsub.data import write_libsvm
from infsub.experiment import ExperimentConfig, run_pipeline
from infsub.influence import compute_phi, compute_psi_norms
from infsub.model import ModelError, ModelParams

# Double precision resolves a gradient whose terms are of order one only to
# about this norm; it is the floor under every gradient-based bound below.
GRAD_FLOOR = 1e-12


def subset_objective(X, y, w, reg_c):
    """f(theta) = mean_i w_i l_i(theta) + (C/2) mean(w) ||theta||^2 over the
    subset's dense rows, with its gradient and Hessian."""
    wbar = float(np.mean(w))

    def fun(theta):
        z = X @ theta
        loss = np.logaddexp(0.0, z) - y * z
        return float(np.mean(w * loss)) + 0.5 * reg_c * wbar * float(theta @ theta)

    def jac(theta):
        p = expit(X @ theta)
        return X.T @ (w * (p - y)) / len(y) + reg_c * wbar * theta

    def hess(theta):
        p = expit(X @ theta)
        return (X.T * (w * p * (1 - p))) @ X / len(y) + reg_c * wbar * np.eye(X.shape[1])

    return fun, jac, hess, wbar


def reference_fit(fun, jac, hess, d):
    res = minimize(fun, np.zeros(d), jac=jac, hess=hess, method="trust-exact",
                   options={"gtol": 1e-13, "maxiter": 500})
    return res.x


def oracle_weights(n, rows, probs):
    """optlr's documented inverse-probability weights n_sub / (n pi_i), which
    average about 1 on the subset; every other method weighs its rows 1."""
    if probs is None:
        return np.ones(rows.size)
    return rows.size / (n * probs[rows])


def config(reg_c, **overrides):
    # The file paths are never read: the cell layer only takes the settings.
    return ExperimentConfig(tr_path="unread-tr.svm", va_path="unread-va.svm",
                            reg_c=reg_c, **overrides)


def drawn_cells(tr, phi, psi, cells, floor=sampling.OPTLR_FLOOR):
    """Draw (base, ratio, alpha, seed) cells as ``run_pipeline`` does; a cell
    whose draw is refused (a single class) is left out."""
    out = []
    for base, ratio, alpha, seed in cells:
        probs = sampling.probs_for(base, ratio, phi, psi, alpha, floor=floor, n=tr.n_rows)
        try:
            selected = experiment._draw_cell(tr, probs, base, ratio, seed, phi)
        except ModelError:
            continue
        out.append((len(out), selected, probs if base == "optlr" else None))
    return out


METHODS = [("random", None), ("optlr", None), ("dropout", None),
           ("linear", None), ("sigmoid", 5.0)]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(20, 200), d=st.integers(1, 30), seed=st.integers(0, 2**16),
       reg_c=st.sampled_from([1e-2, 0.1, 1.0]),
       picks=st.lists(st.tuples(st.sampled_from(METHODS),
                                st.sampled_from([0.5, 0.7, 0.9, 1.0]),
                                st.integers(0, 2**16)), min_size=2, max_size=8))
def test_block_fit_matches_dense_subset_optimum(n, d, seed, reg_c, picks):
    rng = np.random.default_rng(seed)
    tr, va = random_ds(rng, n, d), random_ds(rng, 40, d)
    full = model.train(tr, reg_c)
    phi = compute_phi(full, tr, va).phi
    psi = compute_psi_norms(full, tr)
    assume(float(np.ptp(phi)) > 0.0)
    # A ratio-1 random cell is the full objective itself, so a warm start
    # from the full fit has nothing left to do.
    cells = [("random", 1.0, None, 0)] + [(m, r, a, s) for (m, a), r, s in picks]
    block = drawn_cells(tr, phi, psi, cells)
    cfg = config(reg_c)
    fits = experiment._fit_cells(cfg, tr, full, block)
    assert len(fits) == len(block)

    X = tr.X.toarray()
    for (_, selected, probs), fit in zip(block, fits):
        rows = np.flatnonzero(selected)
        w = oracle_weights(n, rows, probs)
        fun, jac, hess, wbar = subset_objective(X[rows], tr.y[rows].astype(float), w, reg_c)
        ref = reference_fit(fun, jac, hess, d)

        # The program's column is the subset objective itself: its weighted
        # risk over all n rows equals the dense subset risk, and the column
        # mean equals the subset's mean weight.
        column = np.zeros(n)
        column[rows] = experiment._cell_weights(n, rows, probs)
        for theta in (ref, full.theta):
            assert model.risk(ModelParams(theta, reg_c), tr, column) == pytest.approx(
                fun(theta), rel=1e-12)
        assert float(np.mean(column)) == pytest.approx(wbar, rel=1e-12)

        # The fit converged, and the gradient norm it reports is the subset
        # objective's at the returned theta.
        g_fit = float(np.linalg.norm(jac(fit.theta)))
        g_ref = float(np.linalg.norm(jac(ref)))
        assert fit.converged and fit.grad_norm <= cfg.train_tol
        assert abs(fit.grad_norm - g_fit) <= 1e-6 * g_fit + GRAD_FLOOR
        # f is (C wbar)-strongly convex, so any theta lies within
        # ||grad f(theta)|| / (C wbar) of the optimum; the fit and the
        # reference are then apart by at most the sum of their two bounds.
        bound = (g_fit + g_ref + 2 * GRAD_FLOOR) / (reg_c * wbar)
        assert np.linalg.norm(fit.theta - ref) <= bound

        # Alone (k = 1) the cell reaches the same optimum, within the same bounds.
        alone = experiment._fit_cells(cfg, tr, full, [(0, selected, probs)])[0]
        g_alone = float(np.linalg.norm(jac(alone.theta)))
        assert np.linalg.norm(alone.theta - fit.theta) <= (
            (g_fit + g_alone + 2 * GRAD_FLOOR) / (reg_c * wbar))

    warm = fits[0]
    assert warm.n_iter == 0 and np.array_equal(warm.theta, full.theta)

    # Lockstep changes no column's path: one Newton step from the full-set
    # theta lands on the same point in the block as alone. Far from the
    # optimum neither the inner solve's stopping rule nor the Armijo test
    # sits near a tie, so only the rounding of the column sums (about 1e-16
    # relative) separates the two, and 1e-9 of the step leaves ample room.
    # Near the optimum the Armijo test compares risks that agree to rounding,
    # so later steps may part; the converged fits above agree within bounds.
    one_step = config(reg_c, train_max_iter=1)
    for cell, fit in zip(block, experiment._fit_cells(one_step, tr, full, block)):
        alone = experiment._fit_cells(one_step, tr, full, [cell])[0]
        assert alone.n_iter == fit.n_iter
        moved = float(np.linalg.norm(alone.theta - full.theta))
        assert np.linalg.norm(alone.theta - fit.theta) <= 1e-9 * moved


# ------------------------------------------------------- failures and composition

@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds = random_ds(np.random.default_rng(101), n=140, d=4)
    path = tmp_path_factory.mktemp("data") / "toy.svm"
    write_libsvm(ds, str(path))
    return str(path)


def grid_config(data_file, **overrides):
    base = dict(dataset_path=data_file, va_fraction=0.3, te_fraction=0.2, split_seed=0,
                reg_c=0.1, methods=["random", "optlr", "sigmoid"], sigmoid_alphas=[5.0],
                ratios=[0.5, 0.9], repeats=3, seed=4)
    base.update(overrides)
    return ExperimentConfig(**base)


def grid_order(cfg):
    return [(ratio, label, repeat) for ratio in cfg.ratios
            for label, _, _ in experiment.expand_methods(cfg) for repeat in range(cfg.repeats)]


def test_pipeline_fits_its_cells_in_one_block(data_file, monkeypatch):
    blocks = []
    real = model.fit_columns

    def spy(ds, reg_c, W, theta0, tol, max_iter):
        blocks.append(W.shape[1])
        return real(ds, reg_c, W, theta0, tol, max_iter)

    monkeypatch.setattr(model, "fit_columns", spy)
    cfg = grid_config(data_file)
    report = run_pipeline(cfg)
    # The full fit is ``train``, a block of one; then all 18 cells in one block.
    assert blocks == [1, len(report.cells)] == [1, 18]
    assert not report.failures()


# A cell fitted alone and inside a block: both fits stop at ||g|| <= 1e-8, so
# each lies within 1e-8 / (C wbar) of the cell's optimum, at most 2e-7 apart
# here (C = 0.1, wbar above 1/2). A mean log loss moves by at most max ||x_i||
# (below 4 on these rows) per unit of theta, so held-out losses, all above
# 0.3, agree to 1e-5 relative. In practice only the rounding of the column
# sums differs, and they agree to about 1e-15.
CELL_LOSS_REL = 1e-5


def test_cell_alone_matches_cell_in_block(data_file, monkeypatch):
    cfg = grid_config(data_file)
    wide = run_pipeline(cfg)
    monkeypatch.setattr(experiment, "FIT_BLOCK_BYTES", 1)
    alone = run_pipeline(cfg)
    for a, b in zip(wide.cells, alone.cells):
        assert (a.method, a.ratio, a.repeat, a.n_selected) == (b.method, b.ratio, b.repeat,
                                                               b.n_selected)
        assert a.va_logloss == pytest.approx(b.va_logloss, rel=CELL_LOSS_REL)
        assert a.te_logloss == pytest.approx(b.te_logloss, rel=CELL_LOSS_REL)
        assert a.te_accuracy == b.te_accuracy


def test_single_class_draw_fails_only_its_cell(tmp_path):
    # 3 positives in 60 rows: at ratio 0.1 the positive quota rounds to 0,
    # so those draws hold one class and fail; ratio 0.9 cells still fit.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = np.zeros(60, dtype=np.int8)
    y[[4, 17, 40]] = 1
    tr_path, va_path = tmp_path / "tr.svm", tmp_path / "va.svm"
    write_libsvm(make_ds(X, y), str(tr_path))
    write_libsvm(random_ds(rng, 30, 3), str(va_path))
    cfg = ExperimentConfig(tr_path=str(tr_path), va_path=str(va_path), methods=["random"],
                           ratios=[0.1, 0.9], repeats=2)
    report = run_pipeline(cfg)
    assert [c.error for c in report.cells] == (
        ["ModelError: training data carries a single class"] * 2 + [None] * 2)


def test_capped_column_fails_while_its_block_succeeds(monkeypatch):
    # The full fit keeps the default Newton cap. In the one block of cells,
    # each gets train_max_iter = 1: a ratio-1 random cell starts at its own
    # optimum and needs no step, while every ratio-0.5 cell needs more.
    real_train = model.train

    def full_fit_uncapped(ds, reg_c, tol, max_iter, sample_weight=None):
        return real_train(ds, reg_c, tol=tol, max_iter=100, sample_weight=sample_weight)

    monkeypatch.setattr(model, "train", full_fit_uncapped)
    cfg = ExperimentConfig(dataset_path=dataset_path("pima_like.svm"), train_max_iter=1,
                           methods=["random"], ratios=[1.0, 0.5], repeats=2)
    report = run_pipeline(cfg)
    assert [c.error is None for c in report.cells] == [True, True, False, False]
    assert all(c.error.startswith("ConvergenceError: cell fit stopped at gradient norm")
               and c.error.endswith("after 1 Newton steps") for c in report.failures())
    assert report.cells[0].va_logloss == report.full_va_logloss


def test_draw_error_fails_only_its_cell_and_rows_keep_grid_order(data_file, monkeypatch):
    cfg = grid_config(data_file)
    clean = run_pipeline(cfg)
    bad_seed = clean.cells[7].seed
    real_draw = sampling.draw_subset

    def draw(probs, ratio, labels, method, seed, phi=None, alpha=float("nan")):
        if seed == bad_seed:
            raise sampling.SamplingError("refused draw")
        return real_draw(probs, ratio, labels, method, seed, phi=phi, alpha=alpha)

    monkeypatch.setattr(sampling, "draw_subset", draw)
    report = run_pipeline(cfg)
    assert [(c.ratio, c.method, c.repeat) for c in report.cells] == grid_order(cfg)
    assert [i for i, c in enumerate(report.cells) if c.error] == [7]
    assert report.cells[7].error == "SamplingError: refused draw"
    # The other cells fit in a block one column narrower: the same results
    # within CELL_LOSS_REL.
    for i, (a, b) in enumerate(zip(report.cells, clean.cells)):
        if i != 7:
            assert a.va_logloss == pytest.approx(b.va_logloss, rel=CELL_LOSS_REL)
            assert a.te_logloss == pytest.approx(b.te_logloss, rel=CELL_LOSS_REL)
            assert (a.seed, a.n_selected, a.te_accuracy, a.error) == (
                b.seed, b.n_selected, b.te_accuracy, b.error)


def test_block_that_fails_as_a_whole_fails_each_of_its_cells(data_file, monkeypatch):
    def broken(*args):
        raise ModelError("weights must be finite and nonnegative")

    monkeypatch.setattr(experiment, "_fit_cells", broken)
    report = run_pipeline(grid_config(data_file, ratios=[0.9], repeats=1))
    assert [c.error for c in report.cells] == (
        ["ModelError: weights must be finite and nonnegative"] * 3)


# ----------------------------------------------------------- fit_columns itself

def test_fit_columns_one_column_is_train_bit_for_bit():
    ds = random_ds(np.random.default_rng(31), 120, 9)
    w = np.random.default_rng(32).uniform(0.0, 2.0, ds.n_rows)
    want = model.train(ds, 0.05, sample_weight=w)
    got, = model.fit_columns(ds, 0.05, w[:, None], np.zeros(ds.n_features))
    assert np.array_equal(got.theta, want.theta)
    assert (got.grad_norm, got.n_iter, got.converged) == (
        want.grad_norm, want.n_iter, want.converged)


def test_fit_columns_from_an_optimum_takes_no_step():
    ds = random_ds(np.random.default_rng(33), 80, 5)
    full = model.train(ds, 0.1)
    fits = model.fit_columns(ds, 0.1, np.ones((ds.n_rows, 3)), full.theta)
    for fit in fits:
        assert fit.n_iter == 0 and np.array_equal(fit.theta, full.theta)


def test_fit_columns_flags_a_capped_column_and_finishes_the_rest():
    ds = random_ds(np.random.default_rng(34), 150, 6)
    full = model.train(ds, 0.01)
    rng = np.random.default_rng(35)
    W = np.column_stack([np.ones(ds.n_rows), rng.uniform(0.0, 3.0, ds.n_rows)])
    fits = model.fit_columns(ds, 0.01, W, full.theta, max_iter=1)
    assert [f.converged for f in fits] == [True, False]
    assert fits[1].n_iter == 1 and fits[1].grad_norm > model.TRAIN_TOL


def test_fit_columns_validation_errors():
    ds = make_ds([[1.0], [2.0], [3.0]], [1, 0, 1])
    ok = np.ones((3, 2))
    with pytest.raises(ModelError, match="reg_c"):
        model.fit_columns(ds, 0.0, ok, np.zeros(1))
    with pytest.raises(ModelError, match="weight block shape"):
        model.fit_columns(ds, 0.1, np.ones(3), np.zeros(1))
    with pytest.raises(ModelError, match="weight block shape"):
        model.fit_columns(ds, 0.1, np.ones((2, 2)), np.zeros(1))
    with pytest.raises(ModelError, match="finite and nonnegative"):
        model.fit_columns(ds, 0.1, -ok, np.zeros(1))
    with pytest.raises(ModelError, match="start dimension"):
        model.fit_columns(ds, 0.1, ok, np.zeros(2))
    with pytest.raises(ModelError, match="finite"):
        model.fit_columns(ds, 0.1, ok, np.array([np.nan]))
    with pytest.raises(ModelError, match="single class"):
        # The second column weighs out the one negative row.
        model.fit_columns(ds, 0.1, np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), np.zeros(1))
    with pytest.raises(ModelError, match="empty"):
        model.fit_columns(make_ds(np.zeros((0, 1)), []), 0.1, np.ones((0, 1)), np.zeros(1))
