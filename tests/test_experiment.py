"""Configuration, seed derivation, and the end-to-end experiment grid."""

import numpy as np
import pytest

from conftest import dataset_path, make_ds, random_ds
from infsub import experiment, model
from infsub.data import DataError, SplitSpec, flip_labels, round_half_up, write_libsvm
from infsub.experiment import (AggregateRow, CellResult, ConfigError,
                               ExperimentConfig, ExperimentReport, best_sigmoid,
                               derive_seed, emit_report,
                               expand_methods, load_splits, run_pipeline, _sibling)
from infsub.influence import PcgConfig


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds = random_ds(np.random.default_rng(101), n=140, d=4)
    path = tmp_path_factory.mktemp("data") / "toy.svm"
    write_libsvm(ds, str(path))
    return str(path)


def small_config(data_file, **overrides):
    base = dict(dataset_path=data_file, va_fraction=0.3, te_fraction=0.2,
                split_seed=0, reg_c=0.1, methods=["random"], ratios=[0.9],
                repeats=3, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- seeds

def test_derive_seed_is_stable_and_keyed():
    a = derive_seed(7, "sigmoid@5", 0.95, 3)
    assert a == derive_seed(7, "sigmoid@5", 0.95, 3)
    assert a != derive_seed(7, "sigmoid@5", 0.95, 4)
    assert a != derive_seed(7, "sigmoid@1", 0.95, 3)
    assert a != derive_seed(8, "sigmoid@5", 0.95, 3)
    assert 0 <= a < 2**63


# ----------------------------------------------------------------- config

def test_config_requires_a_data_source():
    with pytest.raises(ConfigError, match="dataset_path"):
        ExperimentConfig()
    with pytest.raises(ConfigError, match="mutually exclusive"):
        ExperimentConfig(dataset_path="a", tr_path="b", va_path="c")


def test_config_validates_grid():
    with pytest.raises(ConfigError, match="repeats"):
        ExperimentConfig(dataset_path="a", repeats=0)
    with pytest.raises(ConfigError, match="method"):
        ExperimentConfig(dataset_path="a", methods=["magic"])
    with pytest.raises(ConfigError, match="methods"):
        ExperimentConfig(dataset_path="a", methods=[])
    with pytest.raises(ConfigError, match="ratio"):
        ExperimentConfig(dataset_path="a", ratios=[1.2])
    with pytest.raises(ConfigError, match="flip_fraction"):
        ExperimentConfig(dataset_path="a", flip_fraction=1.2)


@pytest.mark.parametrize("bad, message", [
    (dict(ratios=[]), "methods and ratios must both be nonempty"),
    (dict(methods=["random", "random"]), "methods has duplicate entries: ['random', 'random']"),
    (dict(ratios=[0.9, 0.9]), "ratios has duplicate entries: [0.9, 0.9]"),
    (dict(sigmoid_alphas=[5.0, 5.0]), "sigmoid_alphas has duplicate entries: [5.0, 5.0]"),
    (dict(methods=["sigmoid"], sigmoid_alphas=[]), "sigmoid requested but sigmoid_alphas is empty"),
    (dict(sigmoid_alphas=[-1.0]), "sigmoid_alphas: alpha must be positive and finite, got -1.0"),
    (dict(pcg_tol=0.0), "pcg_tol: pcg_tol must be positive and finite, got 0.0"),
    (dict(pcg_max_iter=0), "pcg_max_iter: pcg_max_iter must be at least 1, got 0"),
    (dict(va_fraction=1.5), "va_fraction: va_fraction must be in (0, 1), got 1.5"),
    (dict(va_fraction=0.5, te_fraction=0.5),
     "te_fraction: va_fraction + te_fraction must leave room for training rows"),
    (dict(reg_c=0.0), "reg_c: reg_c must be finite and positive for training, got 0.0"),
    (dict(reg_c=float("inf")), "reg_c: reg_c must be finite and positive for training, got inf"),
    (dict(reg_c=float("nan")), "reg_c: reg_c must be finite and positive for training, got nan"),
    (dict(train_tol=0.0), "train_tol: tol must be positive and finite, got 0.0"),
    (dict(train_max_iter=0), "train_max_iter: max_iter must be at least 1, got 0"),
    (dict(train_tol=float("inf")), "train_tol: tol must be positive and finite, got inf"),
    (dict(pcg_tol=float("inf")), "pcg_tol: pcg_tol must be positive and finite, got inf"),
    (dict(pcg_tol=1.0), "pcg_tol: pcg_tol must be below 1, got 1.0"),
    (dict(sigmoid_alphas=[5.0, float("inf")]),
     "sigmoid_alphas: alpha must be positive and finite, got inf"),
    (dict(n_features=-1), "n_features: n_features must be nonnegative, got -1"),
    (dict(n_features=2**31 + 1),
     "n_features: n_features must be at most 2147483648, got 2147483649"),
    (dict(sigmoid_alphas=[1.0000001, 1.0000002]),
     "sigmoid alphas alike to 6 digits share the label 'sigmoid@1'"),
    (dict(seed=-1), "seed must be in [0, 2**63), got -1"),
    (dict(seed=2**63), f"seed must be in [0, 2**63), got {2**63}"),
    (dict(ratios=[0.9, 1.5]), "ratios: target_ratio must be in (0, 1], got 1.5"),
], ids=["no-ratios", "dup-methods", "dup-ratios", "dup-alphas", "no-alphas", "negative-alpha",
        "pcg-tol", "pcg-max-iter",
        "va-fraction", "no-training-rows", "zero-reg-c", "infinite-reg-c", "nan-reg-c",
        "zero-train-tol", "zero-train-max-iter", "infinite-train-tol", "infinite-pcg-tol",
        "unit-pcg-tol", "infinite-alpha", "negative-n-features",
        "n-features-past-2-31", "alphas-labelled-alike", "negative-seed", "seed-past-63-bits",
        "ratio-past-one"])
def test_config_rejects_bad_grid_before_reading_data(bad, message):
    # "a" does not exist: the error must come from the config itself. An
    # owning module's refusal is re-raised naming the config key it checked.
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(dataset_path="a", **bad)
    assert str(err.value) == message


def test_config_refuses_flip_fraction_as_its_owner_does():
    # One statement of the rule: the config raises the owner's own text after its key.
    with pytest.raises(DataError) as owner:
        flip_labels(make_ds([[1.0], [2.0]], [0, 1]), -0.5, seed=0)
    with pytest.raises(ConfigError) as config:
        ExperimentConfig(dataset_path="a", flip_fraction=-0.5)
    assert str(owner.value) == "flip_fraction must be in [0, 1], got -0.5"
    assert str(config.value) == f"flip_fraction: {owner.value}"


@pytest.mark.parametrize("key", ["tr_path", "va_path", "te_path", "dataset_path"])
def test_config_rejects_an_empty_path(key):
    # An empty te_path would otherwise leave the test split silently empty.
    paths = {} if key == "dataset_path" else dict(tr_path="t", va_path="v")
    with pytest.raises(ConfigError, match=f"^{key} is empty"):
        ExperimentConfig(**{**paths, key: ""})


def test_config_builds_solver_and_split_settings():
    cfg = ExperimentConfig(dataset_path="a", va_fraction=0.25, te_fraction=0.1, split_seed=3,
                           pcg_tol=1e-6, pcg_max_iter=50)
    assert cfg.pcg == PcgConfig(tol=1e-6, max_iter=50)
    assert cfg.split_spec == SplitSpec(0.25, 0.1, seed=3)
    # Pre-split files ignore the split fractions.
    assert ExperimentConfig(tr_path="t", va_path="v", va_fraction=2.0).split_spec is None


def test_expand_methods_fans_out_sigmoid():
    cfg = ExperimentConfig(dataset_path="x", methods=["random", "sigmoid"],
                           sigmoid_alphas=[0.1, 5.0])
    labels = expand_methods(cfg)
    assert labels == [("random", "random", labels[0][2]),
                      ("sigmoid@0.1", "sigmoid", 0.1),
                      ("sigmoid@5", "sigmoid", 5.0)]
    with pytest.raises(ConfigError, match="sigmoid_alphas"):
        expand_methods(ExperimentConfig(dataset_path="x", methods=["sigmoid"],
                                        sigmoid_alphas=[]))


# ------------------------------------------------------------- split loading

def test_load_splits_widens_separate_files(tmp_path):
    tr = make_ds([[1.0, 2.0], [3.0, 0.0]], [0, 1])
    va = make_ds([[0.0, 0.0, 4.0]], [1])
    te = make_ds([[0.0, 0.0, 0.0, 0.0, 0.0, 6.0]], [0])
    paths = {}
    for name, ds in (("tr", tr), ("va", va), ("te", te)):
        p = tmp_path / f"{name}.svm"
        write_libsvm(ds, str(p))
        paths[name] = str(p)
    cfg = ExperimentConfig(tr_path=paths["tr"], va_path=paths["va"], te_path=paths["te"])
    a, b, c = load_splits(cfg)
    assert a.n_features == b.n_features == c.n_features == 6


def test_load_splits_without_test_file(tmp_path):
    tr = make_ds([[1.0], [2.0]], [0, 1])
    va = make_ds([[3.0]], [1])
    p_tr, p_va = tmp_path / "tr.svm", tmp_path / "va.svm"
    write_libsvm(tr, str(p_tr))
    write_libsvm(va, str(p_va))
    cfg = ExperimentConfig(tr_path=str(p_tr), va_path=str(p_va))
    a, b, c = load_splits(cfg)
    assert c.n_rows == 0
    assert c.n_features == a.n_features


# ------------------------------------------------------------------ pipeline

def test_pipeline_grid_shape_and_aggregates(data_file):
    cfg = small_config(data_file, methods=["random", "dropout", "linear", "sigmoid"],
                       sigmoid_alphas=[1.0, 5.0], ratios=[0.9, 1.0],
                       compute_gamma=True)
    report = run_pipeline(cfg)
    labels = [label for label, _, _ in expand_methods(cfg)]
    assert len(report.cells) == len(labels) * 2 * 3
    assert not report.failures()
    # Aggregate means equal the plain mean over matching cells.
    for row in report.aggregates():
        matching = [c for c in report.cells
                    if c.method == row.method and c.ratio == row.ratio]
        assert row.n == len(matching)
        assert row.va_mean == pytest.approx(np.mean([c.va_logloss for c in matching]))
        assert row.te_mean == pytest.approx(np.mean([c.te_logloss for c in matching]))


def test_pipeline_ratio_one_reproduces_full_model(data_file):
    cfg = small_config(data_file, methods=["random", "dropout", "sigmoid"],
                       sigmoid_alphas=[1.0], ratios=[1.0], repeats=2,
                       compute_gamma=True)
    report = run_pipeline(cfg)
    for cell in report.cells:
        assert cell.te_logloss == report.full_te_logloss
        assert cell.va_logloss == report.full_va_logloss
        assert cell.gamma == 0.0


def test_pipeline_subset_sizes_follow_ratio(data_file, monkeypatch):
    # Each cell's draw, recorded as ``_draw_cell`` returns it, holds the
    # stratified quota of every class.
    sizes = []
    real_draw = experiment._draw_cell

    def draw(*args):
        mask = real_draw(*args)
        sizes.append(int(np.count_nonzero(mask)))
        return mask

    monkeypatch.setattr(experiment, "_draw_cell", draw)
    cfg = small_config(data_file, ratios=[0.9], repeats=2)
    report = run_pipeline(cfg)
    assert not report.failures()
    tr, _, _ = load_splits(cfg)
    expected = sum(round_half_up(0.9 * int(np.sum(tr.y == lab))) for lab in (0, 1))
    assert sizes == [expected] * len(report.cells)


def test_pipeline_is_deterministic(data_file):
    # Every cell computes gamma, so each CellResult field is a real number and
    # dataclass equality is exact (nan != nan).
    cfg = small_config(data_file, methods=["random", "sigmoid"], sigmoid_alphas=[1.0])
    a = run_pipeline(cfg)
    b = run_pipeline(cfg)
    assert a.cells == b.cells
    assert a.full_te_logloss == b.full_te_logloss


def test_pipeline_records_cell_failures_without_aborting(data_file):
    # A ratio this small rounds every class quota to zero; the refit on the
    # empty subset fails and the cell records the error.
    cfg = small_config(data_file, ratios=[0.002, 0.9], repeats=1)
    report = run_pipeline(cfg)
    failed = [c for c in report.cells if c.ratio == 0.002]
    healthy = [c for c in report.cells if c.ratio == 0.9]
    assert failed and all(c.error is not None for c in failed)
    assert healthy and all(c.error is None for c in healthy)
    assert all(row.ratio == 0.9 for row in report.aggregates())
    assert report.failures() == failed


def test_pipeline_nonconverged_cell_fit_fails_the_cell(monkeypatch):
    # The full fit, the one ``model.train`` call, keeps the default Newton cap
    # and converges; every cell refit, fitted in a block, gets
    # train_max_iter = 1 step, misses its tolerance and fails.
    real_train = model.train
    calls = []

    def full_fit_uncapped(ds, reg_c, tol, max_iter):
        calls.append(max_iter)
        return real_train(ds, reg_c, tol=tol, max_iter=100 if len(calls) == 1 else max_iter)

    monkeypatch.setattr(model, "train", full_fit_uncapped)
    cfg = ExperimentConfig(dataset_path=dataset_path("pima_like.svm"), train_max_iter=1,
                           methods=["random", "sigmoid"], sigmoid_alphas=[1.0], repeats=2)
    report = run_pipeline(cfg)
    assert calls == [1]
    assert len(report.failures()) == len(report.cells) == 4
    assert all(c.error.startswith("ConvergenceError: cell fit stopped") for c in report.cells)
    assert report.aggregates() == []


def test_pipeline_optlr_uses_inverse_probability_weights(data_file):
    cfg = small_config(data_file, methods=["optlr"], repeats=2)
    report = run_pipeline(cfg)
    assert not report.failures()
    for cell in report.cells:
        assert np.isfinite(cell.va_logloss)
        assert np.isfinite(cell.te_logloss)


def test_pipeline_random_baseline_not_better_than_full(data_file):
    cfg = small_config(data_file, methods=["random"], ratios=[0.9], repeats=10)
    report = run_pipeline(cfg)
    row = report.aggregates()[0]
    sem = row.te_std / np.sqrt(row.n)
    assert row.te_mean >= report.full_te_logloss - 3.0 * sem - 1e-3


def test_noise_run_flips_training_labels_only(data_file):
    cfg = small_config(data_file, flip_fraction=0.3, repeats=2)
    report = run_pipeline(cfg)
    assert report.with_accuracy
    assert not report.failures()
    assert np.isfinite(report.full_te_accuracy)
    clean = run_pipeline(small_config(data_file, repeats=2))
    assert report.full_va_logloss != clean.full_va_logloss


# ------------------------------------------------------------------ reports

def test_emit_report_is_byte_stable(data_file, tmp_path):
    cfg = small_config(data_file, methods=["random", "sigmoid"], sigmoid_alphas=[1.0],
                       compute_gamma=True)
    report = run_pipeline(cfg)
    p1 = tmp_path / "rep1.csv"
    p2 = tmp_path / "rep2.csv"
    emit_report(report, str(p1))
    emit_report(report, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    agg1 = tmp_path / "rep1_aggregate.csv"
    assert agg1.exists()
    lines = agg1.read_text().splitlines()
    assert lines[0] == "method,ratio,n,va_logloss_mean,va_logloss_std,te_logloss_mean,te_logloss_std"
    assert lines[1].startswith("full,1.0,1,")
    head = p1.read_text().splitlines()[0]
    assert head == "method,ratio,repeat,va_logloss,te_logloss"
    glines = (tmp_path / "rep1_gamma.csv").read_text().splitlines()
    assert glines[0] == "ratio,method,gamma"
    assert len(glines) == 1 + len(report.aggregates())


def test_emit_report_accuracy_column_tracks_noise(data_file, tmp_path):
    report = run_pipeline(small_config(data_file, flip_fraction=0.3, repeats=2))
    path = tmp_path / "noise.csv"
    emit_report(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "method,ratio,repeat,va_logloss,te_logloss,accuracy"
    assert len(lines[1].split(",")) == 6
    agg = (tmp_path / "noise_aggregate.csv").read_text().splitlines()
    assert agg[0].endswith(",accuracy_mean")


def hand_built_report(with_accuracy, with_gamma=False):
    """Three dropout repeats, one sigmoid repeat and one failed sigmoid cell,
    with values whose means and standard deviations are exact in binary."""
    cells = [CellResult("dropout", 0.95, k, seed=k, va_logloss=va, te_logloss=te,
                        te_accuracy=acc, gamma=0.125)
             for k, (va, te, acc) in enumerate([(0.25, 0.75, 0.5), (0.5, 0.5, 0.75),
                                                (0.75, 0.25, 1.0)])]
    cells += [CellResult("sigmoid@1", 0.9, 0, seed=3, va_logloss=0.375, te_logloss=0.125,
                         te_accuracy=1.0, gamma=0.0625),
              CellResult("sigmoid@1", 0.9, 1, seed=4, error="SamplingError: boom")]
    return ExperimentReport(cells=cells, full_va_logloss=0.5, full_te_logloss=0.75,
                            full_te_accuracy=0.625, methods=["dropout", "sigmoid@1"],
                            ratios=[0.95, 0.9], with_accuracy=with_accuracy,
                            with_gamma=with_gamma)


@pytest.mark.parametrize("with_accuracy", [False, True], ids=["plain", "accuracy"])
def test_report_and_aggregate_csv_contents(tmp_path, with_accuracy):
    path = tmp_path / "report.csv"
    written = emit_report(hand_built_report(with_accuracy), str(path))
    assert written == [str(path), str(tmp_path / "report_aggregate.csv")]
    assert not (tmp_path / "report_gamma.csv").exists()
    acc = (lambda text: text) if with_accuracy else (lambda text: "")
    assert path.read_text() == (
        "method,ratio,repeat,va_logloss,te_logloss" + acc(",accuracy") + "\n"
        "dropout,0.95,0,0.25,0.75" + acc(",0.5") + "\n"
        "dropout,0.95,1,0.5,0.5" + acc(",0.75") + "\n"
        "dropout,0.95,2,0.75,0.25" + acc(",1.0") + "\n"
        "sigmoid@1,0.9,0,0.375,0.125" + acc(",1.0") + "\n")
    assert (tmp_path / "report_aggregate.csv").read_text() == (
        "method,ratio,n,va_logloss_mean,va_logloss_std,te_logloss_mean,te_logloss_std"
        + acc(",accuracy_mean") + "\n"
        "full,1.0,1,0.5,0.0,0.75,0.0" + acc(",0.625") + "\n"
        "dropout,0.95,3,0.5,0.25,0.5,0.25" + acc(",0.75") + "\n"
        "sigmoid@1,0.9,1,0.375,0.0,0.125,0.0" + acc(",1.0") + "\n")


def test_gamma_csv_contents(tmp_path):
    path = tmp_path / "report.csv"
    written = emit_report(hand_built_report(False, with_gamma=True), str(path))
    gamma = tmp_path / "report_gamma.csv"
    assert written[-1] == str(gamma)
    assert gamma.read_text() == ("ratio,method,gamma\n"
                                 "0.95,dropout,0.125\n"
                                 "0.9,sigmoid@1,0.0625\n")


def test_sibling_path_rules():
    assert _sibling("out/report.csv", "_aggregate.csv") == "out/report_aggregate.csv"
    assert _sibling("report", "_gamma.csv") == "report_gamma.csv"
    assert _sibling("runs.v2/report", "_gamma.csv") == "runs.v2/report_gamma.csv"


def test_best_sigmoid_selection(data_file):
    cfg = small_config(data_file, methods=["sigmoid"], sigmoid_alphas=[1.0, 50.0],
                       ratios=[0.9], repeats=3)
    report = run_pipeline(cfg)
    rows = {row.method: row for row in report.aggregates()}
    best = best_sigmoid(report, 0.9)
    assert best is not None
    assert best.va_mean == min(r.va_mean for r in rows.values())
    assert best_sigmoid(report, 0.5) is None
    plain = run_pipeline(small_config(data_file, repeats=1))
    assert best_sigmoid(plain, 0.9) is None


def test_best_sigmoid_tie_prefers_first_row():
    row = dict(ratio=0.9, n=1, va_std=0.0, te_mean=0.0, te_std=0.0,
               accuracy_mean=0.0, gamma_mean=0.0)
    report = ExperimentReport(
        cells=[CellResult(method="sigmoid@1", ratio=0.9, repeat=0, seed=0,
                          va_logloss=0.5, te_logloss=0.4),
               CellResult(method="sigmoid@5", ratio=0.9, repeat=0, seed=0,
                          va_logloss=0.5, te_logloss=0.6)],
        full_va_logloss=0.0, full_te_logloss=0.0, full_te_accuracy=0.0,
        methods=["sigmoid@1", "sigmoid@5"], ratios=[0.9], with_accuracy=False)
    best = best_sigmoid(report, 0.9)
    assert best.method == "sigmoid@1"
    assert isinstance(best, AggregateRow)
    assert best.va_mean == 0.5 and row["ratio"] == 0.9
