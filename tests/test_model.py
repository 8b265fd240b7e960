"""Loss, gradient, curvature, trainer, and persistence of the model layer.

Derivative code is checked against central finite differences and against
Hessians assembled densely from the definition; the trainer is checked by
its own optimality contract and by an exact reweighting equivalence.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import dataset_path, dense_hessian, make_ds, random_ds
from infsub import model, parallel
from infsub.data import SplitSpec, split, load_libsvm
from infsub.model import (PROB_CLIP, Curvature, ModelError, ModelParams, accuracy,
                          curvature, gradient, hessian_diag, hvp, load_params,
                          mean_logloss, pcg, per_sample_loss, predict_proba,
                          save_params, train)
from infsub.synthdata import ill_conditioned

RNG = np.random.default_rng(1234)


@pytest.fixture(scope="module")
def small_fit():
    ds = random_ds(np.random.default_rng(7), n=40, d=6)
    params = train(ds, reg_c=0.2, tol=1e-10)
    return ds, params


# ------------------------------------------------------------- params type

def test_params_validation():
    with pytest.raises(ModelError, match="flat"):
        ModelParams(np.zeros((2, 2)), 0.1)
    with pytest.raises(ModelError, match="finite"):
        ModelParams(np.array([np.nan]), 0.1)
    with pytest.raises(ModelError, match="reg_c"):
        ModelParams(np.zeros(2), -0.5)
    with pytest.raises(ModelError, match="reg_c must be finite"):
        ModelParams(np.zeros(2), np.inf)
    p = ModelParams([0.0, 1.5], 0.1)
    assert p.dim == 2
    assert p.theta.dtype == np.float64


# ----------------------------------------------------------------- sigmoid

def _sigmoid_draws(n=100_000):
    """Seeded margins over [-750, 750]; exp(-z) overflows below -709.78."""
    return np.random.default_rng(20).uniform(-750.0, 750.0, n)


def _ulps(a, b):
    """Units in the last place between nonnegative doubles, elementwise."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_sigmoid_is_the_formula_bit_for_bit():
    z = _sigmoid_draws()
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-z))
    assert np.array_equal(model._sigmoid(z), want)


def test_sigmoid_is_within_two_ulp_of_scipy_expit():
    z = _sigmoid_draws()
    assert _ulps(model._sigmoid(z), expit(z)).max() <= 2


def test_sigmoid_is_exact_at_the_limits_without_a_warning():
    z = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model._sigmoid(z)
    assert np.array_equal(got, [0.5, 0.5, 1.0, 0.0, 1.0, 0.0])


def test_sigmoid_in_block_workers_at_once(monkeypatch):
    # More workers than this machine may have CPUs wait for each other, then
    # overflow exp at once and again, switching threads often: the errstate
    # one of them leaves must not unsilence another.
    workers = 4
    monkeypatch.setattr(parallel, "cpu_count", lambda: workers)
    z = np.concatenate([_sigmoid_draws(), [800.0, -800.0, -np.inf]])
    blocks = np.array_split(z, workers)
    all_in = threading.Barrier(workers)

    def run(block):
        all_in.wait(timeout=30)
        return [model._sigmoid(block) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parallel.map_blocks(run, blocks)
    finally:
        sys.setswitchinterval(interval)
    want = model._sigmoid(z)
    for rep in range(20):
        assert np.array_equal(np.concatenate([g[rep] for g in got]), want)


# ------------------------------------------------------------- predictions

def test_predict_proba_zero_theta_is_half():
    ds = make_ds([[1.0, -3.0], [0.5, 2.0]], [0, 1])
    p = predict_proba(ModelParams(np.zeros(2), 0.0), ds)
    assert np.array_equal(p, np.full(2, 0.5))


def test_predict_proba_scalar_value():
    ds = make_ds([[1.0, 0.0]], [1])
    p = predict_proba(ModelParams(np.array([np.log(3.0), 0.0]), 0.0), ds)
    assert p[0] == pytest.approx(0.75, abs=1e-12)


def test_predict_proba_clips_extremes():
    ds = make_ds([[1.0]], [1])
    hi = predict_proba(ModelParams(np.array([1000.0]), 0.0), ds)
    lo = predict_proba(ModelParams(np.array([-1000.0]), 0.0), ds)
    assert hi[0] == 1.0 - PROB_CLIP
    assert lo[0] == PROB_CLIP


def test_predict_proba_dimension_error():
    ds = make_ds([[1.0, 2.0]], [1])
    with pytest.raises(ModelError, match="dimension"):
        predict_proba(ModelParams(np.zeros(3), 0.0), ds)


# ------------------------------------------------------------------ losses

def test_risk_zero_theta_is_ln2():
    ds = make_ds([[1.0], [2.0], [-1.0]], [1, 0, 1])
    assert model.risk(ModelParams(np.zeros(1), 0.0), ds) == pytest.approx(np.log(2.0), abs=1e-12)
    # The regularizer vanishes at theta = 0 regardless of C.
    assert model.risk(ModelParams(np.zeros(1), 0.1), ds) == pytest.approx(np.log(2.0), abs=1e-12)


def test_risk_single_sample_value():
    ds = make_ds([[1.0]], [1])
    params = ModelParams(np.array([np.log(3.0)]), 0.0)
    assert model.risk(params, ds) == pytest.approx(-np.log(0.75), abs=1e-12)


def test_per_sample_loss_regularizer_shift(small_fit):
    ds, params = small_fit
    reg = per_sample_loss(params, ds, regularized=True)
    plain = per_sample_loss(params, ds, regularized=False)
    shift = 0.5 * params.reg_c * float(params.theta @ params.theta)
    assert np.allclose(reg - plain, shift, atol=1e-14)


def test_risk_is_mean_of_regularized_losses(small_fit):
    ds, params = small_fit
    expected = float(np.mean(per_sample_loss(params, ds, regularized=True)))
    assert model.risk(params, ds) == pytest.approx(expected, rel=1e-14)


def test_weighted_risk_matches_manual(small_fit):
    ds, params = small_fit
    w = np.random.default_rng(3).random(ds.n_rows) * 2.0
    losses = per_sample_loss(params, ds, regularized=False)
    manual = float(np.mean(w * losses)) + 0.5 * params.reg_c * float(np.mean(w)) * float(
        params.theta @ params.theta)
    assert model.risk(params, ds, sample_weight=w) == pytest.approx(manual, rel=1e-14)


def test_mean_logloss_is_unregularized(small_fit):
    ds, params = small_fit
    assert mean_logloss(params, ds) == pytest.approx(
        float(np.mean(per_sample_loss(params, ds, regularized=False))), rel=1e-14)


def test_accuracy_simple():
    ds = make_ds([[1.0], [-1.0], [2.0], [-2.0]], [1, 0, 0, 1])
    params = ModelParams(np.array([5.0]), 0.0)
    assert accuracy(params, ds) == pytest.approx(0.5)


def test_empty_dataset_errors():
    empty = make_ds(np.zeros((0, 2)), [])
    params = ModelParams(np.zeros(2), 0.1)
    for fn in (lambda: per_sample_loss(params, empty),
               lambda: gradient(params, empty),
               lambda: accuracy(params, empty),
               lambda: hvp(curvature(params, empty), np.zeros(2)),
               lambda: hessian_diag(curvature(params, empty))):
        with pytest.raises(ModelError, match="empty"):
            fn()


# --------------------------------------------------------------- gradients

def test_gradient_scalar_example():
    ds = make_ds([[1.0, 2.0]], [1])
    g = gradient(ModelParams(np.zeros(2), 0.0), ds)
    assert np.allclose(g, [-0.5, -1.0], atol=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    for _ in range(5):
        ds = random_ds(rng, n=25, d=4)
        theta = rng.normal(size=4)
        params = ModelParams(theta, 0.3)
        g = gradient(params, ds)
        h = 1e-5
        fd = np.empty(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            fd[k] = (model.risk(ModelParams(theta + e, 0.3), ds)
                     - model.risk(ModelParams(theta - e, 0.3), ds)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1.0)


def test_gradient_vanishes_at_optimum(small_fit):
    ds, params = small_fit
    assert np.linalg.norm(gradient(params, ds)) <= 1e-10
    assert params.converged


def test_weighted_gradient_matches_row_duplication():
    # Duplicating row 0 scales the objective of the weight-2 problem by
    # (n+1)/n, so the gradients are proportional and the optima coincide.
    rng = np.random.default_rng(8)
    ds = random_ds(rng, n=15, d=3)
    dup = make_ds(np.vstack([ds.X.toarray(), ds.X.toarray()[:1]]),
                  np.concatenate([ds.y, ds.y[:1]]))
    w = np.ones(ds.n_rows)
    w[0] = 2.0
    theta = rng.normal(size=3)
    pw = ModelParams(theta, 0.4)
    g_w = gradient(pw, ds, sample_weight=w)
    g_dup = gradient(pw, dup)
    n = ds.n_rows
    assert np.allclose(g_w, (n + 1) / n * g_dup, rtol=1e-12)
    fit_w = train(ds, 0.4, tol=1e-12, sample_weight=w)
    fit_dup = train(dup, 0.4, tol=1e-12)
    assert np.allclose(fit_w.theta, fit_dup.theta, atol=1e-8)


# --------------------------------------------------------------- curvature

def test_hvp_scalar_example():
    ds = make_ds([[1.0, 0.0]], [1])
    out = hvp(curvature(ModelParams(np.zeros(2), 0.0), ds), np.array([1.0, 1.0]))
    assert np.allclose(out, [0.25, 0.0], atol=1e-15)


def test_hvp_regularizer_only_direction():
    # Columns 2 and 3 hold no data, so H acts there as C times the identity.
    ds = make_ds([[1.0, 2.0], [3.0, -1.0]], [0, 1], n_features=4)
    params = ModelParams(np.array([0.3, -0.2, 0.0, 0.0]), 1.0)
    v = np.array([0.0, 0.0, 2.0, -5.0])
    assert np.array_equal(hvp(curvature(params, ds), v), v)


def test_hvp_matches_dense_oracle(small_fit):
    ds, params = small_fit
    rng = np.random.default_rng(4)
    dense = dense_hessian(params, ds)
    H = curvature(params, ds)
    for _ in range(10):
        v = rng.normal(size=params.dim)
        assert np.allclose(hvp(H, v), dense @ v, rtol=1e-12, atol=1e-14)


def test_weighted_hvp_matches_dense_oracle(small_fit):
    # Weights scale each row's curvature and the regularizer by their mean.
    ds, params = small_fit
    rng = np.random.default_rng(14)
    w = rng.uniform(0.0, 3.0, ds.n_rows)
    X = ds.X.toarray()
    p = 1.0 / (1.0 + np.exp(-X @ params.theta))
    dense = ((X.T * (w * p * (1.0 - p))) @ X / ds.n_rows
             + params.reg_c * w.mean() * np.eye(params.dim))
    H = curvature(params, ds, w)
    for _ in range(5):
        v = rng.normal(size=params.dim)
        assert np.allclose(hvp(H, v), dense @ v, rtol=1e-12, atol=1e-14)
    assert np.allclose(H.diag, np.diag(dense), rtol=1e-12, atol=1e-14)


def test_hvp_matches_gradient_finite_differences(small_fit):
    ds, params = small_fit
    rng = np.random.default_rng(5)
    h = 1e-6
    H = curvature(params, ds)
    for _ in range(5):
        v = rng.normal(size=params.dim)
        plus = gradient(ModelParams(params.theta + h * v, params.reg_c), ds)
        minus = gradient(ModelParams(params.theta - h * v, params.reg_c), ds)
        fd = (plus - minus) / (2 * h)
        out = hvp(H, v)
        assert np.linalg.norm(fd - out) <= 1e-6 * max(np.linalg.norm(out), 1.0)


def test_hvp_linear_symmetric_positive_definite(small_fit):
    ds, params = small_fit
    rng = np.random.default_rng(6)
    H = curvature(params, ds)
    for _ in range(10):
        u = rng.normal(size=params.dim)
        v = rng.normal(size=params.dim)
        a, b = rng.normal(size=2)
        lin = hvp(H, a * u + b * v)
        assert np.allclose(lin, a * hvp(H, u) + b * hvp(H, v), rtol=1e-10, atol=1e-12)
        assert float(u @ hvp(H, v)) == pytest.approx(
            float(v @ hvp(H, u)), rel=1e-10, abs=1e-12)
        assert float(v @ hvp(H, v)) >= params.reg_c * float(v @ v) - 1e-12


def test_block_hvp_is_column_hvps(small_fit):
    ds, params = small_fit
    H = curvature(params, ds, np.random.default_rng(15).uniform(0.0, 2.0, ds.n_rows))
    V = np.random.default_rng(16).normal(size=(params.dim, 5))
    out = hvp(H, V)
    assert out.shape == V.shape
    for j in range(V.shape[1]):
        assert np.allclose(out[:, j], hvp(H, V[:, j]), rtol=1e-14, atol=1e-15)


def test_block_of_operators_applies_each_to_its_column(small_fit):
    # A block of fits carries one operator per column: s (n, k), c_wbar (k,).
    ds, params = small_fit
    rng = np.random.default_rng(17)
    ops = [curvature(params, ds, rng.uniform(0.0, 2.0, ds.n_rows)) for _ in range(3)]
    H = Curvature(ds.X, np.column_stack([op.s for op in ops]),
                  np.array([op.c_wbar for op in ops]))
    V = rng.normal(size=(params.dim, 3))
    out = hvp(H, V)
    for j, op in enumerate(ops):
        assert np.array_equal(out[:, j], hvp(op, V[:, j]))
        assert np.array_equal(H.diag[:, j], op.diag)
    keep = np.array([True, False, True])
    narrow = H.columns(keep)
    assert narrow.XT is H.XT
    assert np.array_equal(hvp(narrow, V[:, keep]), out[:, keep])
    with pytest.raises(ModelError, match="shape"):
        hvp(H, V[:, 0])
    with pytest.raises(ModelError, match="shape"):
        hvp(H, V[:, :2])


def test_hvp_dimension_error(small_fit):
    ds, params = small_fit
    with pytest.raises(ModelError, match="shape"):
        hvp(curvature(params, ds), np.zeros(params.dim + 1))
    with pytest.raises(ModelError, match="shape"):
        hvp(curvature(params, ds), np.zeros((params.dim + 1, 3)))
    with pytest.raises(ModelError, match="shape"):
        hvp(curvature(params, ds), np.zeros((params.dim, 3, 1)))
    with pytest.raises(ModelError, match="dimension"):
        curvature(ModelParams(np.zeros(params.dim + 1), 0.1), ds)


def test_hessian_diag_scalar_example():
    ds = make_ds([[1.0, 2.0]], [1])
    diag = hessian_diag(curvature(ModelParams(np.zeros(2), 0.0), ds))
    assert np.allclose(diag, [0.25, 1.0], atol=1e-15)


def test_hessian_diag_empty_column_is_reg_c():
    ds = make_ds([[1.0, 2.0]], [1], n_features=3)
    diag = hessian_diag(curvature(ModelParams(np.zeros(3), 0.1), ds))
    assert diag[2] == pytest.approx(0.1, abs=1e-15)


def test_hessian_diag_matches_basis_vectors(small_fit):
    ds, params = small_fit
    H = curvature(params, ds)
    diag = hessian_diag(H)
    for k in range(params.dim):
        e = np.zeros(params.dim)
        e[k] = 1.0
        assert diag[k] == pytest.approx(float(hvp(H, e)[k]), rel=1e-12)
    assert np.all(diag > 0)
    assert np.array_equal(H.diag, diag)
    assert H.diag is H.diag


def reference_cg(matvec, b, rel_tol, max_iter):
    """Plain CG as the Newton inner solve ran it before ``model.pcg`` took over."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x
    for _ in range(max_iter):
        if np.sqrt(rr) <= rel_tol * bnorm:
            break
        q = matvec(p)
        pq = float(p @ q)
        if pq <= 0.0:
            break
        a = rr / pq
        x += a * p
        r -= a * q
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x


def test_unpreconditioned_pcg_is_bit_identical_to_reference_cg():
    # Newton steps come from pcg without a preconditioner; below the iteration
    # cap they must equal the old inner solve bit for bit.
    rng = np.random.default_rng(42)
    for n, d, weighted in ((30, 4, False), (80, 12, False), (50, 7, True), (25, 40, True)):
        ds = random_ds(rng, n, d)
        w = rng.uniform(0.1, 3.0, n) if weighted else None
        params = ModelParams(rng.normal(0.0, 0.5, d), 0.05)
        H = curvature(params, ds, w)
        g = gradient(params, ds, w)
        for rel_tol in (min(0.5, np.sqrt(np.linalg.norm(g))), 1e-3, 1e-9):
            step, info = pcg(H, -g, rel_tol, 1000)
            assert info.converged and info.iters < 1000
            assert np.array_equal(step, reference_cg(lambda u: hvp(H, u), -g, rel_tol, 1000))


def _ill_conditioned_system(seed):
    """H at theta = 0 and C = 1e-4 on ``ill_conditioned``, where plain CG needs
    far more than 34 iterations, and a seeded right-hand side."""
    ds = ill_conditioned(n=200, d=40, seed=seed)
    params = ModelParams(np.zeros(ds.n_features), 1e-4)
    return params, ds, np.random.default_rng(seed).normal(size=ds.n_features)


@pytest.mark.parametrize("seed", range(5))
def test_capped_pcg_returns_reference_cg_iterate(seed):
    # A solve cut off by its cap returns CG's last iterate, bit for bit.
    params, ds, b = _ill_conditioned_system(seed)
    H = curvature(params, ds)
    for cap in (3, 5, 8, 13, 21, 34):
        x, info = pcg(H, b, 1e-14, cap)
        assert not info.converged and info.iters == cap
        assert np.array_equal(x, reference_cg(lambda u: hvp(H, u), b, 1e-14, cap))


@pytest.mark.parametrize("seed", range(5))
def test_capped_pcg_h_norm_error_never_grows(seed):
    # CG minimizes ||x - x*||_H over a growing Krylov space, so the iterate at
    # the cap is at least as close to the solution as every earlier one.
    params, ds, b = _ill_conditioned_system(seed)
    H, Hd = curvature(params, ds), dense_hessian(params, ds)
    x_star = np.linalg.solve(Hd, b)

    def h_err(x):
        e = x - x_star
        return float(e @ Hd @ e)

    errs = [h_err(pcg(H, b, 1e-14, m)[0]) for m in range(35)]
    for cap in (3, 5, 8, 13, 21, 34):
        assert errs[cap] <= min(errs[:cap])


def test_risk_is_convex_along_segments(small_fit):
    ds, params = small_fit
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.normal(size=params.dim)
        b = rng.normal(size=params.dim)
        mid = model.risk(ModelParams((a + b) / 2, 0.2), ds)
        ends = 0.5 * (model.risk(ModelParams(a, 0.2), ds) + model.risk(ModelParams(b, 0.2), ds))
        assert mid <= ends + 1e-12


# ------------------------------------------------------------------ trainer

def test_train_two_sample_example():
    ds = make_ds([[1.0], [2.0]], [1, 0])
    params = train(ds, reg_c=0.1)
    assert np.all(np.isfinite(params.theta))
    assert params.grad_norm <= 1e-8
    assert params.converged


def test_train_separable_data_stays_finite():
    x = np.linspace(-2.0, 2.0, 30).reshape(-1, 1)
    ds = make_ds(x, (x.ravel() > 0).astype(int))
    params = train(ds, reg_c=0.1)
    assert params.converged
    assert np.all(np.isfinite(params.theta))


def test_train_deterministic():
    ds = random_ds(np.random.default_rng(12), n=50, d=5)
    a = train(ds, 0.1)
    b = train(ds, 0.1)
    assert np.array_equal(a.theta, b.theta)
    assert a.grad_norm == b.grad_norm


def test_train_nonconvergence_flagged_not_raised():
    ds = random_ds(np.random.default_rng(13), n=200, d=20)
    params = train(ds, 0.01, tol=1e-14, max_iter=1)
    assert not params.converged
    assert params.grad_norm > 1e-14
    assert np.all(np.isfinite(params.theta))


def test_train_validation_errors():
    ds = make_ds([[1.0], [2.0]], [1, 0])
    with pytest.raises(ModelError, match="reg_c"):
        train(ds, 0.0)
    with pytest.raises(ModelError, match="reg_c must be finite"):
        train(ds, np.inf)
    with pytest.raises(ModelError, match="tol"):
        train(ds, 0.1, tol=0.0)
    with pytest.raises(ModelError, match="tol must be positive and finite, got inf"):
        train(ds, 0.1, tol=np.inf)
    with pytest.raises(ModelError, match="max_iter"):
        train(ds, 0.1, max_iter=0)
    with pytest.raises(ModelError, match="single class"):
        train(make_ds([[1.0], [2.0]], [1, 1]), 0.1)
    with pytest.raises(ModelError, match="empty"):
        train(make_ds(np.zeros((0, 1)), []), 0.1)
    with pytest.raises(ModelError, match="sample_weight"):
        train(ds, 0.1, sample_weight=np.array([1.0]))
    with pytest.raises(ModelError, match="sample_weight"):
        train(ds, 0.1, sample_weight=np.array([1.0, -1.0]))
    # Weights that zero out one class leave a single-class problem.
    with pytest.raises(ModelError, match="single class"):
        train(ds, 0.1, sample_weight=np.array([1.0, 0.0]))


def test_train_on_bundled_dataset_logloss_band():
    # Full-set baseline on the bundled surrogate; the band is intentionally
    # loose since held-out loss moves with the split seed.
    ds = load_libsvm(dataset_path("breast_cancer_like.svm"))
    tr, va, te = split(ds, SplitSpec(va_fraction=0.3, te_fraction=0.2, seed=0))
    params = train(tr, 0.1)
    assert params.converged
    assert 0.05 <= mean_logloss(params, te) <= 0.25


def _reference_weights(ds, sample_weight):
    if sample_weight is None:
        return None
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (ds.n_rows,):
        raise ModelError(f"sample_weight shape {w.shape} does not match {ds.n_rows} rows")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ModelError("sample_weight must be finite and nonnegative")
    return w


def _reference_sigma(params, ds):
    """1 / (1 + exp(-X theta)), the formula ``model._sigmoid`` evaluates."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-(ds.X @ params.theta)))


def reference_risk(params, ds, sample_weight=None):
    """``model.risk`` as it was before losses and derivatives shared the margins."""
    p = np.clip(_reference_sigma(params, ds), PROB_CLIP, 1.0 - PROB_CLIP)
    y = ds.y
    losses = -(y * np.log(p) + (1 - y) * np.log1p(-p))
    w = _reference_weights(ds, sample_weight)
    if w is None:
        base = float(np.mean(losses))
        wbar = 1.0
    else:
        base = float(np.mean(w * losses))
        wbar = float(np.mean(w))
    return base + 0.5 * params.reg_c * wbar * float(params.theta @ params.theta)


def reference_gradient(params, ds, sample_weight=None):
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    resid = _reference_sigma(params, ds) - ds.y
    w = _reference_weights(ds, sample_weight)
    if w is None:
        wbar = 1.0
    else:
        resid = w * resid
        wbar = float(np.mean(w))
    return (ds.X.T @ resid) / ds.n_rows + params.reg_c * wbar * params.theta


def reference_curvature(params, ds, sample_weight=None):
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    X = ds.X
    p = _reference_sigma(params, ds)
    s = p * (1.0 - p)
    w = _reference_weights(ds, sample_weight)
    if w is None:
        wbar = 1.0
    else:
        s = w * s
        wbar = float(np.mean(w))
    return Curvature(X, s, params.reg_c * wbar)


def reference_train(ds, reg_c, tol=model.TRAIN_TOL, max_iter=model.TRAIN_MAX_ITER,
                    sample_weight=None):
    """Newton as it ran when every step recomputed X theta for each of
    ``gradient``, ``curvature`` and ``risk``; ``train`` must match it bit for bit."""
    w = _reference_weights(ds, sample_weight)
    d = ds.n_features
    theta = np.zeros(d)
    inner_cap = min(max(2 * d, 20), 1000)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        params = ModelParams(theta, reg_c)
        g = reference_gradient(params, ds, w)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return ModelParams(theta, reg_c, gnorm, n_iter - 1, True)
        step, _ = pcg(reference_curvature(params, ds, w), -g, min(0.5, np.sqrt(gnorm)), inner_cap)
        f0 = reference_risk(params, ds, w)
        slope = float(g @ step)
        t = 1.0
        for _ in range(60):
            if reference_risk(ModelParams(theta + t * step, reg_c), ds, w) <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        theta = theta + t * step

    final = ModelParams(theta, reg_c)
    gnorm = float(np.linalg.norm(reference_gradient(final, ds, w)))
    return ModelParams(theta, reg_c, gnorm, n_iter, gnorm <= tol)


def _newton_cases():
    rng = np.random.default_rng(2024)
    ds = random_ds(rng, 300, 12, zero_frac=0.3)
    w = rng.uniform(0.0, 3.0, ds.n_rows)
    w[rng.random(ds.n_rows) < 0.25] = 0.0
    return {
        "unweighted": (ds, 0.01, {}),
        "weighted-with-zeros": (ds, 0.01, {"sample_weight": w}),
        "ill-conditioned": (ill_conditioned(n=300, d=20, scale_span=1e3), 1e-3, {}),
        "one-step": (random_ds(rng, 200, 20), 0.01, {"tol": 1e-14, "max_iter": 1}),
    }


@pytest.mark.parametrize("case", list(_newton_cases()))
def test_train_is_bit_identical_to_reference_newton(case):
    ds, reg_c, kwargs = _newton_cases()[case]
    got = train(ds, reg_c, **kwargs)
    want = reference_train(ds, reg_c, **kwargs)
    assert np.array_equal(got.theta, want.theta)
    assert (got.grad_norm, got.n_iter, got.converged) == (
        want.grad_norm, want.n_iter, want.converged)
    assert got.converged == (case != "one-step")


def test_public_kernels_match_reference_bit_for_bit():
    ds, _, kwargs = _newton_cases()["weighted-with-zeros"]
    params = ModelParams(np.random.default_rng(3).normal(0.0, 0.5, ds.n_features), 0.01)
    for w in (None, kwargs["sample_weight"]):
        assert model.risk(params, ds, w) == reference_risk(params, ds, w)
        assert np.array_equal(gradient(params, ds, w), reference_gradient(params, ds, w))
        H, ref = curvature(params, ds, w), reference_curvature(params, ds, w)
        assert np.array_equal(H.s, ref.s) and H.c_wbar == ref.c_wbar


# ---------------------------------------------------------------- line search

LS_C = 0.2


def _newton_step_at_zero():
    """A 40 x 6 problem, and its Newton step at theta = 0 with that step's slope."""
    ds = random_ds(np.random.default_rng(7), n=40, d=6)
    params = ModelParams(np.zeros(ds.n_features), LS_C)
    g = gradient(params, ds)
    step = -np.linalg.solve(dense_hessian(params, ds), g)
    return ds, step, float(g @ step)


def _line_search(ds, steps, slopes):
    """``_backtrack`` from theta = 0 under unit weights, one column per step;
    returns the (theta, z, f) it leaves."""
    W = np.ones((ds.n_rows, steps.shape[1]), order="F")
    theta = np.zeros((ds.n_features, steps.shape[1]), order="F")
    z = ds.X @ theta
    wbar = np.mean(W, axis=0)
    f = model._objective(theta, z, W, wbar, ds.y[:, None], LS_C)
    model._backtrack(ds.X, ds.y[:, None], W, wbar, LS_C, theta, z, f, steps, slopes)
    return theta, z, f


def _passes_armijo(ds, step, slope, t):
    """Whether t * step from theta = 0 passes Armijo (c1 = 1e-4), computed alone."""
    zero = np.zeros((ds.n_features, 1))
    y, w = ds.y[:, None], np.ones((ds.n_rows, 1))
    f0 = model._objective(zero, ds.X @ zero, w, np.ones(1), y, LS_C)[0]
    trial = t * step[:, None]
    f_trial = model._objective(trial, ds.X @ trial, w, np.ones(1), y, LS_C)[0]
    return f_trial <= f0 + 1e-4 * t * slope


def test_backtrack_halves_each_column_to_its_first_passing_step():
    ds, step, slope = _newton_step_at_zero()
    scale = np.array([1.0, 40.0])
    steps = np.asfortranarray(step[:, None] * scale)
    theta, z, f = _line_search(ds, steps, slope * scale)
    ts = []
    for j in range(2):
        # t is read off theta, since the search started at theta = 0.
        t = float(theta[0, j] / steps[0, j])
        assert np.array_equal(theta[:, j], t * steps[:, j])
        k = int(-np.log2(t))
        assert t == 0.5 ** k
        assert _passes_armijo(ds, steps[:, j], slope * scale[j], t)
        assert not any(_passes_armijo(ds, steps[:, j], slope * scale[j], 0.5 ** i)
                       for i in range(k))
        alone = _line_search(ds, steps[:, j:j + 1].copy(order="F"), slope * scale[j:j + 1])
        assert np.array_equal(alone[0][:, 0], theta[:, j])
        assert np.array_equal(alone[1][:, 0], z[:, j])
        assert alone[2][0] == f[j]
        ts.append(t)
    # The Newton step passes whole; forty times it passes only at 1/32, an odd
    # power of two that a search quartering t would skip.
    assert ts == [1.0, 0.5 ** 5]


def test_backtrack_takes_the_last_halving_untested():
    # A slope 1e12 times the step's true one asks a decrease no trial gives,
    # at any of the 61 trial lengths: the column ends at t = 2^-60, untested.
    ds, step, slope = _newton_step_at_zero()
    slopes = np.array([slope, 1e12 * slope])
    steps = np.asfortranarray(np.column_stack([step, step]))
    theta, z, f = _line_search(ds, steps, slopes)
    assert not any(_passes_armijo(ds, step, slopes[1], 0.5 ** i) for i in range(61))
    assert np.array_equal(theta[:, 1], 0.5 ** 60 * step)
    assert np.array_equal(z[:, 1], ds.X @ theta[:, 1])
    y, w = ds.y[:, None], np.ones((ds.n_rows, 1))
    assert f[1] == model._objective(theta[:, 1:], z[:, 1:], w, np.ones(1), y, LS_C)[0]
    # Its block-mate with the true slope is not held back with it.
    assert np.array_equal(theta[:, 0], step)


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip_exact(tmp_path, small_fit):
    _, params = small_fit
    path = tmp_path / "model.txt"
    save_params(params, str(path))
    back = load_params(str(path))
    assert np.array_equal(back.theta, params.theta)
    assert back.reg_c == params.reg_c
    assert back.dim == params.dim


@pytest.mark.parametrize("reg_c", [np.float64(0.1), np.float32(0.1)], ids=["float64", "float32"])
def test_save_load_round_trip_with_numpy_scalar_c(tmp_path, reg_c):
    params = ModelParams(np.array([0.0, 1.5]), reg_c)
    assert type(params.reg_c) is float and params.reg_c == float(reg_c)
    path = tmp_path / "model.txt"
    save_params(params, str(path))
    assert path.read_text().splitlines()[0] == f"2 {float(reg_c)!r}"
    back = load_params(str(path))
    assert back.reg_c == float(reg_c)
    assert np.array_equal(back.theta, params.theta)


def test_save_load_keeps_zeros_implicit(tmp_path):
    params = ModelParams(np.array([0.0, -2.5, 0.0, 1e-300]), 0.05)
    path = tmp_path / "model.txt"
    save_params(params, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "4 0.05"
    assert len(lines) == 3  # header plus the two nonzero weights
    back = load_params(str(path))
    assert np.array_equal(back.theta, params.theta)


@settings(max_examples=150, deadline=None)
@given(theta=st.integers(0, 300).flatmap(lambda d: st.lists(
           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
           | st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d)),
       reg_c=st.sampled_from([0.0, 5e-324, 1e-3, 0.1, 1e308]))
def test_save_load_round_trip_any_weights(tmp_path_factory, theta, reg_c):
    theta = np.array(theta, dtype=np.float64)
    path = str(tmp_path_factory.mktemp("model") / "model.txt")
    save_params(ModelParams(theta, reg_c), path)
    back = load_params(path)
    assert back.reg_c == reg_c and back.dim == theta.size
    # Every weight comes back bit for bit, except that -0.0, like 0.0, is not
    # written and reads back as 0.0.
    assert np.array_equal(back.theta.view(np.int64), np.where(theta == 0.0, 0.0, theta).view(np.int64))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + np.count_nonzero(theta)


@pytest.mark.parametrize("text, theta", [
    (b"3 0.1\n+1 2.0\n", [0.0, 2.0, 0.0]),
    (b"11 0.1\n1_0 2.0\n", [0.0] * 10 + [2.0]),
    (b"3 0.1\n1 +2_5.0\n", [0.0, 25.0, 0.0]),
    (b"3 0.1\r\n1 2.0\r\n2 -1.5\r\n", [0.0, 2.0, -1.5]),
    (b"3 0.1\n\n1 2.0\n  \n2 -1.5\n\n", [0.0, 2.0, -1.5]),
    (b" 3\t0.1 \n\x0b1\xc2\xa02.0\n", [0.0, 2.0, 0.0]),
], ids=["plus-sign", "underscore-index", "underscore-value", "crlf", "blank-lines",
        "other-blanks"])
def test_load_params_accepts_what_int_and_float_accept(tmp_path, text, theta):
    # Each line's two fields are read by int() and float(), so a file loads
    # exactly when they accept every line.
    path = tmp_path / "model.txt"
    path.write_bytes(text)
    back = load_params(str(path))
    assert back.reg_c == 0.1
    assert np.array_equal(back.theta, theta)


@pytest.mark.parametrize("text, match", [
    ("3 0.1\n1e0 2.0\n", r":2: bad weight line '1e0 2.0'"),
    ("3 0.1\n1.0 2.0\n", r":2: bad weight line '1.0 2.0'"),
    ("3 0.1\n1.5 2.0\n", r":2: bad weight line '1.5 2.0'"),
    ("3.0 0.1\n1 2.0\n", r":1: bad header '3.0 0.1'"),
], ids=["exponent-index", "float-index", "fractional-index", "float-dim"])
def test_load_params_rejects_float_integers_with_warnings_ignored(tmp_path, text, match):
    # The test suite turns warnings into errors, but a program runs with the
    # default filters. Under them too, an integer field that int() refuses
    # is a bad line, not a warning.
    path = tmp_path / "model.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ModelError, match=match):
            load_params(str(path))


def test_save_params_names_a_path_it_cannot_write(tmp_path):
    path = tmp_path / "missing-dir" / "model.txt"
    with pytest.raises(ModelError) as err:
        save_params(ModelParams(np.ones(2), 0.1), str(path))
    assert str(err.value).startswith(f"cannot write {path}: ")
    assert isinstance(err.value.__cause__, FileNotFoundError)


def test_load_params_errors(tmp_path):
    with pytest.raises(ModelError, match="cannot read"):
        load_params(str(tmp_path / "missing.txt"))
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ModelError, match="empty"):
        load_params(str(empty))
    bad = tmp_path / "bad.txt"
    bad.write_text("3 0.1 extra\n")
    with pytest.raises(ModelError, match="header"):
        load_params(str(bad))
    oob = tmp_path / "oob.txt"
    oob.write_text("2 0.1\n5 1.0\n")
    with pytest.raises(ModelError, match="out of range"):
        load_params(str(oob))


@pytest.mark.parametrize("text, match", [
    ("x 0.1\n", r":1: bad header 'x 0.1'"),
    ("3\n", r":1: bad header '3'"),
    ("3 abc\n", r":1: bad header"),
    ("3 -0.5\n", r":1: bad header '3 -0.5'$"),
    ("3 -0.5\n0 1.0\n", r":1: bad header '3 -0.5'$"),
    ("-2 0.1\n", r":1: negative dimension -2"),
    ("3 0.1\n\n0\n", r":3: bad weight line '0'"),
    ("3 0.1\n0 1.0\n1 abc\n", r":3: bad weight line '1 abc'"),
    ("3 0.1\n1 nan\n", r":2: bad weight line"),
    ("3 0.1\n0 1.0 2.0\n", r":2: bad weight line"),
    ("3 0.1\n0 1.0\n0 2.0\n", r":3: duplicate index 0"),
    ("3 0.1\n0x1 2.0\n", r":2: bad weight line '0x1 2.0'"),
    ("3 0.1\n1e0 2.0\n", r":2: bad weight line '1e0 2.0'"),
    ("3 0.1\n1 2.0 #c\n", r":2: bad weight line '1 2.0 #c'"),
    ("3 0.1\n1 1e400\n", r":2: bad weight line '1 1e400'"),
    ("3 0.1\n\n1 2.0\n3 1.0\n", r":4: index 3 out of range for dimension 3"),
    ("3 0.1\n-1 2.0\n", r":2: index -1 out of range for dimension 3"),
    ("3 0.1\n99999999999999999999 2.0\n", r":2: index 99999999999999999999 out of range"),
    ("\n99999999999999999999 0.1\n", r":2: dimension 99999999999999999999 too large"),
], ids=["header-dim", "header-short", "header-reg-c", "negative-reg-c",
        "negative-reg-c-with-weights", "negative-dim", "no-value",
        "bad-value", "nan-value", "extra-field", "repeated-index", "hex-index",
        "exponent-index", "comment", "overflowing-value", "index-past-dim", "negative-index",
        "index-past-int64", "dim-past-int64"])
def test_load_params_names_malformed_line(tmp_path, text, match):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ModelError, match=match) as err:
        load_params(str(path))
    assert str(err.value).startswith(f"{path}:")
