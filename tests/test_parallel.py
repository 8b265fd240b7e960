"""The block pool, and the pipeline, psi and libsvm outputs it must not change.

``parallel.cpu_count`` is the one worker-count seam; patching it to 1 or 2
forces the pool's width on any machine.
"""

import dataclasses
import gzip
import sys
import threading
import time

import numpy as np
import pytest

from conftest import blocks_of, make_ds, random_ds, record_plans
from infsub import cli, data, experiment, influence, parallel
from infsub.data import DataError, load_libsvm, write_libsvm
from infsub.experiment import ExperimentConfig, emit_report, load_splits, run_pipeline
from infsub.influence import ConvergenceError, PcgConfig, compute_psi_norms
from infsub.model import ModelError, ModelParams


def use_workers(monkeypatch, n):
    monkeypatch.setattr(parallel, "cpu_count", lambda: n)


def test_cpu_count_without_cpu_affinity_is_the_os_count(monkeypatch):
    monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
    assert parallel.cpu_count() == 3
    # os.cpu_count() is None when the count cannot be determined.
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.cpu_count() == 1


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


class RaisingBlocks:
    """Blocks 0, 1, ... up to ``n``, except that drawing block ``bad`` raises."""

    def __init__(self, n, bad):
        self.drawn, self.n, self.bad = 0, n, bad

    def __iter__(self):
        return self

    def __next__(self):
        i = self.drawn
        self.drawn += 1
        if i == self.bad:
            raise EOFError(f"drawing block {i}")
        if i >= self.n:
            raise StopIteration
        return i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_iterator_that_raises_is_not_drawn_again_and_its_error_is_raised(monkeypatch, n):
    use_workers(monkeypatch, n)
    ran = []
    blocks = RaisingBlocks(8, bad=3)
    with pytest.raises(EOFError, match="^drawing block 3$"):
        parallel.map_blocks(ran.append, blocks)
    assert sorted(ran) == [0, 1, 2]
    assert blocks.drawn == 4


def test_truncated_gzip_raises_data_error_on_two_workers(tmp_path, monkeypatch):
    # The gzip stream ends early while earlier blocks are being parsed: its
    # EOFError, raised by the block iterator, still becomes a DataError.
    use_workers(monkeypatch, 2)
    monkeypatch.setattr(data, "BLOCK_BYTES", 64)
    packed = gzip.compress(b"1 0:1\n0 1:2\n" * 400)
    path = tmp_path / "cut.svm.gz"
    path.write_bytes(packed[:len(packed) // 2])
    with pytest.raises(DataError, match="cannot read .*end-of-stream"):
        load_libsvm(str(path))


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


def test_a_generator_is_drawn_by_one_worker_at_a_time(monkeypatch):
    # The generator lets go of the GIL while it makes each block, as reading
    # a file does. Entered by a second thread meanwhile it would raise
    # ValueError, and a block drawn apart from its index would come back
    # out of order.
    def blocks():
        for b in range(1000):
            time.sleep(0)
            yield b

    use_workers(monkeypatch, 8)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel.map_blocks(lambda b: runs.append(b) or -b, blocks())
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(1000))
    assert out == [-b for b in range(1000)]


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


def blocks_from_x_bytes(monkeypatch, cfg):
    """Make ``run_pipeline``'s k_max come from X's bytes alone: 3592 bytes of
    the 69 x 4 training split, over 8 (n + d) = 584, give 6. Returns the
    plans (``parallel.column_blocks``) and the ``fit_columns`` widths it runs."""
    X = load_splits(cfg)[0].X
    assert X.data.nbytes + X.indices.nbytes + X.indptr.nbytes == 3592
    monkeypatch.setattr(parallel, "COLUMN_BLOCK_BYTES", 1)
    return record_plans(monkeypatch)


# psi's 69 rows at k_max 6 make 12 blocks at 1, 2 or 3 CPUs.
PSI_PLAN = [6] * 9 + [5] * 3
# 30 cells; dropout's 3 repeats per ratio share one column, so 26 are fitted.
# k_max 6 makes 5 blocks on one CPU, and 6 on 2 or 3 CPUs (3 or 2 per CPU).
PLANS = {1: [6, 5, 5, 5, 5], 2: [5, 5, 4, 4, 4, 4], 3: [5, 5, 4, 4, 4, 4]}


def test_pipeline_files_do_not_depend_on_the_worker_count(data_file, tmp_path, monkeypatch):
    cfg = grid_config(data_file)
    plans, widths = blocks_from_x_bytes(monkeypatch, cfg)
    # One cell fails inside its block, after its fit: the block scorer gets
    # its fit flagged as having missed its tolerance.
    real_score = experiment._score_cells
    bad_seed = experiment.derive_seed(cfg.seed, "optlr", 0.9, 1)

    def score(cells, full, fits, va, te):
        fits = [dataclasses.replace(fit, converged=False) if cell.seed == bad_seed else fit
                for cell, fit in zip(cells, fits)]
        return real_score(cells, full, fits, va, te)

    monkeypatch.setattr(experiment, "_score_cells", score)
    written = {}
    for n, plan in PLANS.items():
        use_workers(monkeypatch, n)
        plans.clear()
        widths.clear()
        report = run_pipeline(cfg)
        assert [(c.method, c.ratio, c.repeat) for c in report.failures()] == [("optlr", 0.9, 1)]
        assert report.failures()[0].error.startswith("ConvergenceError: cell fit stopped")
        # The full fit, then the blocks of the plan, run in any order.
        assert plans == [PSI_PLAN, plan]
        assert widths[0] == 1 and sorted(widths[1:]) == sorted(plan)
        out = tmp_path / f"w{n}"
        out.mkdir()
        written[n] = emit_report(report, str(out / "report.csv"))
    assert [p.rsplit("/", 1)[1] for p in written[2]] == [
        "report.csv", "report_aggregate.csv", "report_gamma.csv"]
    for one, two, three in zip(written[1], written[2], written[3]):
        with open(one, "rb") as a, open(two, "rb") as b, open(three, "rb") as c:
            assert a.read() == b.read() == c.read()


def test_block_whose_fit_raises_fails_only_its_own_cells(data_file, monkeypatch):
    cfg = grid_config(data_file)
    blocks_from_x_bytes(monkeypatch, cfg)
    use_workers(monkeypatch, 2)
    clean = run_pipeline(cfg)
    real_fit = experiment._fit_cells

    def fit(cfg, tr, full, block):
        # The second block holds the columns of cells 5, 6, 9, 10 and 11;
        # cells 7 and 8 share cell 6's column (dropout at ratio 0.5), so
        # the block's first column is the one whose cells include 5.
        if 5 in block[0][0]:
            raise ModelError("refused block")
        return real_fit(cfg, tr, full, block)

    monkeypatch.setattr(experiment, "_fit_cells", fit)
    report = run_pipeline(cfg)
    assert [i for i, c in enumerate(report.cells) if c.error] == [5, 6, 7, 8, 9, 10, 11]
    assert {c.error for c in report.failures()} == {"ModelError: refused block"}
    for i, (a, b) in enumerate(zip(report.cells, clean.cells)):
        assert (a.method, a.ratio, a.repeat, a.seed) == (b.method, b.ratio, b.repeat, b.seed)
        if not 5 <= i <= 11:
            assert a == b


# ---------------------------------------------------------------- psi blocks

# 30 rows at d = 4: one block per CPU under the floor; from X's 1564 bytes
# alone, over 8 (n + d) = 272, k_max 5 makes 6 blocks at 1, 2 or 3 CPUs.
PSI_CSV_PLANS = {
    None: {1: [30], 2: [15, 15], 3: [10, 10, 10]},
    1: {1: [5] * 6, 2: [5] * 6, 3: [5] * 6},
}


def test_influence_psi_csv_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    ds = random_ds(np.random.default_rng(61), n=40, d=4)
    tr, va, mod = (str(tmp_path / name) for name in ("tr.svm", "va.svm", "model.txt"))
    write_libsvm(ds.subset(np.arange(30)), tr)
    write_libsvm(ds.subset(np.arange(30, 40)), va)
    assert cli.main(["train", "--tr", tr, "--out", mod]) == 0
    plans, _ = record_plans(monkeypatch)
    csv = []
    for floor, cpu_plans in PSI_CSV_PLANS.items():
        if floor is not None:
            monkeypatch.setattr(parallel, "COLUMN_BLOCK_BYTES", floor)
        for n, plan in cpu_plans.items():
            use_workers(monkeypatch, n)
            plans.clear()
            out = tmp_path / "psi.csv"
            assert cli.main(["influence", "--model", mod, "--tr", tr, "--va", va, "--psi",
                             "--out", str(out)]) == 0
            assert plans == [plan]
            csv.append(out.read_bytes())
    assert len(csv) == 6 and len(set(csv)) == 1


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
    blocks_of(monkeypatch, 3)
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
