"""The block pool, and the pipeline and psi outputs it must not change.

``parallel._cpu_count`` is the one worker-count seam; patching it to 1 or 2
forces the pool's width on any machine.
"""

import sys
import threading

import numpy as np
import pytest

from conftest import make_ds, random_ds
from infsub import cli, experiment, influence, model, parallel
from infsub.data import write_libsvm
from infsub.experiment import ExperimentConfig, emit_report, load_splits, run_pipeline
from infsub.influence import ConvergenceError, PcgConfig, compute_psi_norms
from infsub.model import ModelError, ModelParams


def use_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: n)


# ----------------------------------------------------------------- map_blocks

@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_results_come_back_in_input_order(monkeypatch, n):
    use_workers(monkeypatch, n)
    assert parallel.map_blocks(lambda b: b * b, range(7)) == [b * b for b in range(7)]
    assert parallel.map_blocks(lambda b: b, []) == []


def test_one_worker_is_the_caller_alone(monkeypatch):
    use_workers(monkeypatch, 1)
    started = []
    monkeypatch.setattr(parallel.threading, "Thread", lambda **kw: started.append(kw))
    ran = parallel.map_blocks(lambda b: threading.get_ident(), range(5))
    assert ran == [threading.get_ident()] * 5
    assert started == []


def test_two_workers_run_two_blocks_at_once_and_the_caller_is_one(monkeypatch):
    use_workers(monkeypatch, 2)
    # Neither block can finish until the other is running too.
    both_running = threading.Barrier(2, timeout=10)

    def meet(b):
        both_running.wait()
        return threading.get_ident()

    ran = parallel.map_blocks(meet, range(2))
    assert len(set(ran)) == 2 and threading.get_ident() in ran


def test_a_failure_is_raised_and_later_blocks_never_start(monkeypatch):
    use_workers(monkeypatch, 1)
    ran = []

    def fn(b):
        ran.append(b)
        if b == 2:
            raise ValueError("block 2")

    with pytest.raises(ValueError, match="^block 2$"):
        parallel.map_blocks(fn, range(6))
    assert ran == [0, 1, 2]


def test_the_lowest_failing_block_is_raised_though_a_later_one_fails_first(monkeypatch):
    # Block 1 fails only after block 2 has failed; block 1's error is raised,
    # and block 3, after both, is never started.
    use_workers(monkeypatch, 2)
    block2_failed = threading.Event()
    ran = []

    def fn(b):
        ran.append(b)
        if b == 1:
            assert block2_failed.wait(timeout=10)
            raise ValueError("block 1")
        if b == 2:
            block2_failed.set()
            raise ValueError("block 2")

    with pytest.raises(ValueError, match="^block 1$"):
        parallel.map_blocks(fn, range(4))
    assert sorted(ran) == [0, 1, 2]


def test_every_block_runs_once_under_rapid_thread_switching(monkeypatch):
    # More workers than cores, switching every microsecond: a lost update of
    # the shared block counter would run a block twice or skip one.
    use_workers(monkeypatch, 8)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel.map_blocks(lambda b: runs.append(b) or -b, range(3000))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(3000))
    assert out == [-b for b in range(3000)]


# ------------------------------------------------------------ pipeline blocks

@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds = random_ds(np.random.default_rng(101), n=140, d=4)
    path = tmp_path_factory.mktemp("data") / "toy.svm"
    write_libsvm(ds, str(path))
    return str(path)


def grid_config(data_file):
    return ExperimentConfig(dataset_path=data_file, va_fraction=0.3, te_fraction=0.2,
                            split_seed=0, reg_c=0.1,
                            methods=["random", "optlr", "dropout", "sigmoid"],
                            sigmoid_alphas=[1.0, 5.0], ratios=[0.5, 0.9], repeats=3, seed=4,
                            compute_gamma=True)


def five_wide(monkeypatch, cfg):
    """Make ``run_pipeline`` fit 5 cells per block; returns the block widths seen."""
    tr = load_splits(cfg)[0]
    monkeypatch.setattr(experiment, "FIT_BLOCK_BYTES", 5 * 8 * (tr.n_rows + tr.n_features))
    widths = []
    real = model.fit_columns

    def spy(ds, reg_c, W, theta0, tol, max_iter):
        widths.append(W.shape[1])
        return real(ds, reg_c, W, theta0, tol, max_iter)

    monkeypatch.setattr(model, "fit_columns", spy)
    return widths


def test_pipeline_files_do_not_depend_on_the_worker_count(data_file, tmp_path, monkeypatch):
    cfg = grid_config(data_file)
    widths = five_wide(monkeypatch, cfg)
    # One cell fails inside its block, after its fit.
    real_evaluate = experiment._evaluate_cell
    bad_seed = experiment.derive_seed(cfg.seed, "optlr", 0.9, 1)

    def evaluate(cfg, cell, *args):
        if cell.seed == bad_seed:
            raise ModelError("refused cell")
        return real_evaluate(cfg, cell, *args)

    monkeypatch.setattr(experiment, "_evaluate_cell", evaluate)
    written = {}
    for n in (1, 2):
        use_workers(monkeypatch, n)
        report = run_pipeline(cfg)
        assert [(c.method, c.ratio, c.repeat) for c in report.failures()] == [("optlr", 0.9, 1)]
        out = tmp_path / f"w{n}"
        out.mkdir()
        written[n] = emit_report(report, str(out / "report.csv"))
    # The full fit, then 30 cells in blocks of 5, at each worker count.
    assert widths == [1] + [5] * 6 + [1] + [5] * 6
    assert [p.rsplit("/", 1)[1] for p in written[2]] == [
        "report.csv", "report_aggregate.csv", "report_gamma.csv"]
    for one, two in zip(written[1], written[2]):
        with open(one, "rb") as a, open(two, "rb") as b:
            assert a.read() == b.read()


def test_block_whose_fit_raises_fails_only_its_own_cells(data_file, monkeypatch):
    cfg = grid_config(data_file)
    five_wide(monkeypatch, cfg)
    use_workers(monkeypatch, 2)
    clean = run_pipeline(cfg)
    real_fit = experiment._fit_cells

    def fit(cfg, tr, full, block):
        # The third block holds cells 10-14.
        if block[0][0] == 10:
            raise ModelError("refused block")
        return real_fit(cfg, tr, full, block)

    monkeypatch.setattr(experiment, "_fit_cells", fit)
    report = run_pipeline(cfg)
    assert [i for i, c in enumerate(report.cells) if c.error] == [10, 11, 12, 13, 14]
    assert {c.error for c in report.failures()} == {"ModelError: refused block"}
    for i, (a, b) in enumerate(zip(report.cells, clean.cells)):
        assert (a.method, a.ratio, a.repeat) == (b.method, b.ratio, b.repeat)
        if not 10 <= i <= 14:
            assert a == b


# ---------------------------------------------------------------- psi blocks

def test_influence_psi_csv_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    ds = random_ds(np.random.default_rng(61), n=40, d=4)
    tr, va, mod = (str(tmp_path / name) for name in ("tr.svm", "va.svm", "model.txt"))
    write_libsvm(ds.subset(np.arange(30)), tr)
    write_libsvm(ds.subset(np.arange(30, 40)), va)
    assert cli.main(["train", "--tr", tr, "--out", mod]) == 0
    # 3 rows per block: 10 blocks.
    monkeypatch.setattr(influence, "PSI_BLOCK_BYTES", 8 * 4 * 3)
    csv = {}
    for n in (1, 2):
        use_workers(monkeypatch, n)
        out = tmp_path / f"psi{n}.csv"
        assert cli.main(["influence", "--model", mod, "--tr", tr, "--va", va, "--psi",
                         "--out", str(out)]) == 0
        csv[n] = out.read_bytes()
    assert csv[1] == csv[2]


def test_psi_failure_names_the_lower_row_when_the_higher_block_fails_first(monkeypatch):
    # At theta = 0 a zero row has a zero gradient and solves exactly, so of
    # the 3-row blocks only [6, 9) and [9, 12) miss a one-iteration cap. The
    # block from row 6 is held until the one from row 9 has failed.
    rng = np.random.default_rng(44)
    rows = rng.normal(size=(12, 3))
    rows[:6] = 0.0
    y = np.array([0, 1] * 6)
    tr = make_ds(rows, y)
    params = ModelParams(np.zeros(3), 0.5)
    monkeypatch.setattr(influence, "PSI_BLOCK_BYTES", 8 * 3 * 3)
    use_workers(monkeypatch, 2)
    row9_solved = threading.Event()
    real = influence.inverse_hvp_pcg

    def solve(H, v, cfg):
        # The gradient of row i at theta = 0 is (1/2 - y_i) x_i, exactly.
        if np.array_equal(v[:, 0], (0.5 - y[6]) * rows[6]):
            assert row9_solved.wait(timeout=10)
        result = real(H, v, cfg)
        if np.array_equal(v[:, 0], (0.5 - y[9]) * rows[9]):
            row9_solved.set()
        return result

    monkeypatch.setattr(influence, "inverse_hvp_pcg", solve)
    with pytest.raises(ConvergenceError, match="^sample 6: inverse HVP stopped"):
        compute_psi_norms(params, tr, PcgConfig(tol=1e-14, max_iter=1))
    assert row9_solved.is_set()
