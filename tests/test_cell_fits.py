"""The cell layer of a pipeline: draws turned into weight columns, and the
lockstep block fit of those columns.

The differential test solves every cell's subset objective apart from the
program: dense rows of the selected subset, optlr's inverse-probability
weights from their documented formula, and ``scipy.optimize.minimize``.
Each layer gets the program's own output of the layer before (influence
scores, probabilities and the drawn rows), so a near-tie upstream cannot
make it flaky.
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from conftest import blocks_of, dataset_path, make_ds, random_ds, record_plans
from infsub import experiment, model, parallel, risk, sampling
from infsub.data import write_libsvm
from infsub.experiment import ExperimentConfig, emit_report, run_pipeline
from infsub.influence import compute_phi, compute_psi_norms
from infsub.model import ModelError
from infsub.synthdata import ill_conditioned

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


def drawn_cells(tr, phi, psi, cells):
    """Draw (base, ratio, alpha, seed) cells as ``run_pipeline`` does; a cell
    whose draw is refused (a single class) is left out."""
    out = []
    for base, ratio, alpha, seed in cells:
        probs = sampling.probs_for(base, ratio, phi, psi, alpha, n=tr.n_rows)
        try:
            selected = experiment._draw_cell(tr, probs, base, ratio, seed, phi)
        except ModelError:
            continue
        out.append((len(out), selected, probs if base == "optlr" else None))
    return out


METHODS = [("random", None), ("optlr", None), ("dropout", None),
           ("linear", None), ("sigmoid", 5.0)]
BLIND_STEP_EXAMPLE = dict(n=193, d=4, seed=61279, reg_c=0.01,
                          picks=[(("random", None), 0.5, 0), (("optlr", None), 1.0, 0)])


def example_block(n, d, seed, reg_c, picks):
    """A random training set, its full fit, and the drawn block of a ratio-1
    random cell followed by ``picks``; None where phi is constant."""
    rng = np.random.default_rng(seed)
    tr, va = random_ds(rng, n, d), random_ds(rng, 40, d)
    full = model.train(tr, reg_c)
    phi = compute_phi(full, tr, va).phi
    psi = compute_psi_norms(full, tr)
    if float(np.ptp(phi)) == 0.0:
        return None
    # A ratio-1 random cell is the full objective itself, so a warm start
    # from the full fit has nothing left to do.
    cells = [("random", 1.0, None, 0)] + [(m, r, a, s) for (m, a), r, s in picks]
    return tr, full, drawn_cells(tr, phi, psi, cells)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(20, 200), d=st.integers(1, 30), seed=st.integers(0, 2**16),
       reg_c=st.sampled_from([1e-2, 0.1, 1.0]),
       picks=st.lists(st.tuples(st.sampled_from(METHODS),
                                st.sampled_from([0.5, 0.7, 0.9, 1.0]),
                                st.integers(0, 2**16)), min_size=2, max_size=8))
# An optlr cell with weights up to 100 (mean 21) whose third Newton step left
# its gradient at 1.2e-8: the next step's predicted decrease, 1.8e-16, lay
# below the rounding of f, so a line search that tested it rejected it on
# noise for good. The test below checks that the example still gets there.
@example(**BLIND_STEP_EXAMPLE)
def test_block_fit_matches_dense_subset_optimum(n, d, seed, reg_c, picks):
    drawn = example_block(n, d, seed, reg_c, picks)
    assume(drawn is not None)
    tr, full, block = drawn
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
            f = model._objective(theta, tr.X @ theta, column, np.mean(column), tr.y, reg_c)
            assert f == pytest.approx(fun(theta), rel=1e-12)
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

        # Alone (k = 1) the cell's fit is bit for bit its fit in the block.
        alone = experiment._fit_cells(cfg, tr, full, [(0, selected, probs)])[0]
        assert np.array_equal(alone.theta, fit.theta)
        assert (alone.n_iter, alone.grad_norm) == (fit.n_iter, fit.grad_norm)

    warm = fits[0]
    assert warm.n_iter == 0 and np.array_equal(warm.theta, full.theta)

    # Lockstep changes no column's path: one Newton step from the full-set
    # theta lands on the same point in the block as alone, bit for bit.
    one_step = config(reg_c, train_max_iter=1)
    for cell, fit in zip(block, experiment._fit_cells(one_step, tr, full, block)):
        alone = experiment._fit_cells(one_step, tr, full, [cell])[0]
        assert np.array_equal(alone.theta, fit.theta) and alone.n_iter == fit.n_iter


def test_blind_step_example_takes_an_untested_full_step(monkeypatch):
    """The example above reaches ``_backtrack``'s untested full step: some
    column's full step fails the Armijo test and is taken anyway. A change to
    where Newton steps land (the forcing term, say) must keep that branch
    covered, or pick another example."""
    untested = []
    real_backtrack = model._backtrack

    def watched(X, y, W, wbar, reg_c, theta, z, f, step, slope):
        # The line search's own first trial: the full step of every column.
        full_step = theta + step
        f_full = model._objective(full_step, X @ full_step, W, wbar, y, reg_c)
        rejected = ~(f_full <= f + 1e-4 * slope)
        real_backtrack(X, y, W, wbar, reg_c, theta, z, f, step, slope)
        untested.append(int(np.sum(rejected & np.all(theta == full_step, axis=0))))

    monkeypatch.setattr(model, "_backtrack", watched)
    reg_c = BLIND_STEP_EXAMPLE["reg_c"]
    tr, full, block = example_block(**BLIND_STEP_EXAMPLE)
    fits = experiment._fit_cells(config(reg_c), tr, full, block)
    assert all(fit.converged for fit in fits)
    assert sum(untested) >= 1


def subset_column(rng, n, ratio, spread=1.0):
    """A cell's weight column: n / n_sub on a random subset of the rows, times
    optlr-like weights drawn from [1 / spread, spread]."""
    rows = rng.choice(n, int(ratio * n), replace=False)
    column = np.zeros(n)
    column[rows] = n / rows.size * rng.uniform(1.0 / spread, spread, rows.size)
    return column


# Where the target column sits among its block-mates. "stop-first" mates
# leave before it: the full weights start at their optimum and stop at step
# 0, a 0.99 subset stops a step or two later. "stop-last" mates, with
# weights 100 times apart, are harder fits that outlive it.
LAYOUTS = ["alone", "pair", "five", "stop-first", "stop-last"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_block_column_is_bit_for_bit_its_own_fit(seed, layout):
    rng = np.random.default_rng(seed)
    ds = random_ds(rng, 200, 30)
    full = model.train(ds, 0.05)
    target = subset_column(rng, ds.n_rows, 0.6, spread=3.0)
    mates = {"alone": [], "pair": [subset_column(rng, ds.n_rows, 0.8)],
             "five": [subset_column(rng, ds.n_rows, r, spread=3.0) for r in (0.5, 0.7, 0.9, 0.4)],
             "stop-first": [np.ones(ds.n_rows), subset_column(rng, ds.n_rows, 0.99)],
             "stop-last": [subset_column(rng, ds.n_rows, 0.5, spread=100.0)
                           for _ in range(2)]}[layout]
    at = len(mates) // 2
    W = np.column_stack(mates[:at] + [target] + mates[at:])
    fits = model.fit_columns(ds, 0.05, W, full.theta)
    own, = model.fit_columns(ds, 0.05, target[:, None], full.theta)
    got = fits[at]
    assert own.converged and own.n_iter > 0
    assert np.array_equal(got.theta, own.theta)
    assert (got.n_iter, got.grad_norm, got.converged) == (own.n_iter, own.grad_norm,
                                                          own.converged)
    others = [f.n_iter for f in fits[:at] + fits[at + 1:]]
    if layout == "stop-first":
        assert others[0] == 0 and max(others) < own.n_iter
    if layout == "stop-last":
        assert min(others) > own.n_iter


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


def test_pipeline_fits_its_cells_in_one_block(data_file, tmp_path, monkeypatch):
    # Far below k_max, the 18 cells fit in one block on one CPU, and in one
    # block per CPU on more, as optlr's psi solves its 69 training rows
    # first; the report files are the same bytes at each count.
    plans, widths = record_plans(monkeypatch)
    cfg = grid_config(data_file)
    written = {}
    for cpus, psi_plan, plan in ((1, [69], [18]), (2, [35, 34], [9, 9]),
                                 (3, [23, 23, 23], [6, 6, 6])):
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        plans.clear()
        widths.clear()
        report = run_pipeline(cfg)
        assert not report.failures() and len(report.cells) == 18
        assert plans == [psi_plan, plan] and widths == [1] + plan
        out = tmp_path / f"cpus{cpus}"
        out.mkdir()
        written[cpus] = [Path(p).read_bytes() for p in emit_report(report, str(out / "r.csv"))]
    assert written[1] == written[2] == written[3]


def test_cell_alone_matches_cell_in_block(data_file, monkeypatch):
    cfg = grid_config(data_file)
    wide = run_pipeline(cfg)
    blocks_of(monkeypatch, 1)
    alone = run_pipeline(cfg)
    # Every column's fit is bit for bit its own, so whole rows are equal.
    assert repr(alone.cells) == repr(wide.cells)


def record_draws(monkeypatch):
    """Record each cell's draw by its seed: the selected-row mask, and
    optlr's probabilities (None for the other methods)."""
    draws = {}
    real_draw = experiment._draw_cell

    def draw(tr, probs, base, ratio, seed, phi):
        selected = real_draw(tr, probs, base, ratio, seed, phi)
        draws[seed] = selected, probs if base == "optlr" else None
        return selected

    monkeypatch.setattr(experiment, "_draw_cell", draw)
    return draws


def assert_rows_are_lone_fits(cfg, report, draws):
    """Each row of ``report``, twins included, is its cell's own fit made
    alone, scored by the public one-model metrics, repr for repr."""
    tr, va, te = experiment.load_splits(cfg)
    full = model.train(tr, cfg.reg_c)
    for cell in report.cells:
        selected, probs = draws[cell.seed]
        rows = np.flatnonzero(selected)
        column = np.zeros(tr.n_rows)
        column[rows] = experiment._cell_weights(tr.n_rows, rows, probs)
        fit, = model.fit_columns(tr, cfg.reg_c, column[:, None], full.theta)
        assert fit.converged
        want = dataclasses.replace(cell, va_logloss=model.mean_logloss(fit, va),
                                   te_logloss=model.mean_logloss(fit, te),
                                   te_accuracy=model.accuracy(fit, te),
                                   gamma=risk.gamma_shift(full, fit))
        assert repr(cell) == repr(want)


def test_equal_columns_are_fitted_once_and_copied_to_each_twin(data_file, monkeypatch):
    # dropout draws deterministically, so its three repeats share one column.
    cfg = grid_config(data_file, methods=["dropout", "random"], repeats=3)
    columns = []
    real_fit = model.fit_columns

    def fit(ds, reg_c, W, theta0, tol, max_iter):
        columns.extend(W.T.copy())
        return real_fit(ds, reg_c, W, theta0, tol, max_iter)

    draws = record_draws(monkeypatch)
    monkeypatch.setattr(model, "fit_columns", fit)
    report = run_pipeline(cfg)
    assert len(report.cells) == 12 and not report.failures()
    # The full fit, then per ratio one dropout column and three random ones.
    cell_columns = columns[1:]
    assert len(cell_columns) == 8 == len({c.tobytes() for c in cell_columns})
    dropout = [c for c in report.cells if c.method == "dropout"]
    assert len({c.seed for c in dropout}) == 6
    assert len({draws[c.seed][0].tobytes() for c in dropout}) == 2

    monkeypatch.setattr(model, "fit_columns", real_fit)
    assert_rows_are_lone_fits(cfg, report, draws)


def test_wide_block_scores_each_cell_as_its_lone_fit(tmp_path, monkeypatch):
    # 60 features: a margin or shift column read from the block with a
    # stride would round differently from the same column alone. optlr's
    # inverse-probability columns are scored beside random's.
    path = str(tmp_path / "wide.svm")
    write_libsvm(ill_conditioned(n=300, d=60, scale_span=10.0), path)
    cfg = grid_config(path, methods=["optlr", "random"], ratios=[0.9, 0.6], repeats=4)
    draws = record_draws(monkeypatch)
    report = run_pipeline(cfg)
    assert len(report.cells) == 16 and not report.failures()
    assert_rows_are_lone_fits(cfg, report, draws)


def test_optlr_columns_are_keyed_by_rows_and_weighting_not_ratio(data_file, monkeypatch):
    # At ratios 0.999 and 1 every class quota rounds to the whole class, so
    # all four cells select every row. optlr's probabilities are the same at
    # both ratios, so its two cells share one column; random's rows are
    # unweighted, so it gets a column of its own.
    cfg = grid_config(data_file, methods=["random", "optlr"], ratios=[0.999, 1.0], repeats=1)
    widths = []
    real_fit = model.fit_columns

    def fit(ds, reg_c, W, theta0, tol, max_iter):
        widths.append(W.shape[1])
        return real_fit(ds, reg_c, W, theta0, tol, max_iter)

    monkeypatch.setattr(model, "fit_columns", fit)
    report = run_pipeline(cfg)
    assert not report.failures() and sum(widths[1:]) == 2
    cells = {(c.method, c.ratio): c for c in report.cells}
    for method in ("random", "optlr"):
        assert cells[method, 0.999].va_logloss == cells[method, 1.0].va_logloss
    assert cells["random", 1.0].va_logloss == report.full_va_logloss
    assert cells["optlr", 1.0].va_logloss != report.full_va_logloss
    # Each optlr cell is the one it is in a grid of optlr alone.
    alone = run_pipeline(grid_config(data_file, methods=["optlr"], ratios=[1.0], repeats=1))
    assert repr(alone.cells[0]) == repr(cells["optlr", 1.0])


def plan_input(n_rows, n_features, nnz):
    """A stand-in training matrix with the shape and byte size that
    ``parallel.column_blocks`` reads: float64 values, int32 indices and offsets."""
    return SimpleNamespace(shape=(n_rows, n_features), data=np.empty(nnz),
                           indices=np.empty(nnz, dtype=np.int32),
                           indptr=np.empty(n_rows + 1, dtype=np.int32))


@pytest.mark.parametrize("shape, cpus, n_cells, plan", [
    # 12000 one-hot rows of 40 fields, d = 5002: X's 5.8 MB give k_max 42.
    ((12000, 5002, 480000), 2, 20, [10, 10]),
    ((12000, 5002, 480000), 2, 18, [9, 9]),
    ((12000, 5002, 480000), 1, 20, [20]),
    ((12000, 5002, 480000), 2, 100, [25] * 4),
    ((12000, 5002, 480000), 3, 100, [34, 33, 33]),
    # 840 rows, d = 1002: the COLUMN_BLOCK_BYTES floor gives k_max 40.
    ((840, 1002, 33600), 2, 384, [39] * 4 + [38] * 6),
    ((840, 1002, 33600), 3, 384, [32] * 12),
    ((840, 1002, 33600), 4, 3, [1, 1, 1]),
    ((840, 1002, 33600), 2, 0, []),
    # psi's 840 row solves at that shape.
    ((840, 1002, 33600), 2, 840, [39] * 4 + [38] * 18),
])
def test_fit_block_widths_follow_x_bytes_and_the_cpu_count(monkeypatch, shape, cpus, n_cells,
                                                           plan):
    # The cell fits' blocks and psi's come from the one planner.
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    blocks = parallel.column_blocks(n_cells, plan_input(*shape))
    assert [b.stop - b.start for b in blocks] == plan
    assert [b.start for b in blocks] == [sum(plan[:i]) for i in range(len(plan))]


def test_single_class_draw_fails_only_its_cell(tmp_path):
    # 3 positives in 60 rows: at ratio 0.1 the positive quota rounds to 0,
    # so those draws hold one class and fail; ratio 0.9 cells still fit. At
    # ratio 0.001 both quotas round to 0, and the empty draw says so.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = np.zeros(60, dtype=np.int8)
    y[[4, 17, 40]] = 1
    tr_path, va_path = tmp_path / "tr.svm", tmp_path / "va.svm"
    write_libsvm(make_ds(X, y), str(tr_path))
    write_libsvm(random_ds(rng, 30, 3), str(va_path))
    cfg = ExperimentConfig(tr_path=str(tr_path), va_path=str(va_path), methods=["random"],
                           ratios=[0.001, 0.1, 0.9], repeats=2)
    report = run_pipeline(cfg)
    assert [c.error for c in report.cells] == (
        ["ModelError: training data has no rows"] * 2
        + ["ModelError: training data carries a single class"] * 2 + [None] * 2)


def test_capped_column_fails_while_its_block_succeeds(monkeypatch):
    # The full fit keeps the default Newton cap. In the one block of cells,
    # each gets train_max_iter = 1: a ratio-1 random cell starts at its own
    # optimum and needs no step, while every ratio-0.5 cell needs more.
    real_train = model.train

    def full_fit_uncapped(ds, reg_c, tol, max_iter):
        return real_train(ds, reg_c, tol=tol, max_iter=100)

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
    # The other cells fit in blocks laid out anew, bit for bit as before.
    assert repr(report.cells[:7] + report.cells[8:]) == repr(clean.cells[:7] + clean.cells[8:])


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
    want = model.train(ds, 0.05)
    got, = model.fit_columns(ds, 0.05, np.ones((ds.n_rows, 1)), np.zeros(ds.n_features))
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
    with pytest.raises(ModelError, match="has no rows"):
        # The second column weighs out every row.
        model.fit_columns(ds, 0.1, np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), np.zeros(1))
    with pytest.raises(ModelError, match="empty"):
        model.fit_columns(make_ds(np.zeros((0, 1)), []), 0.1, np.ones((0, 1)), np.zeros(1))
