"""Configuration, seed derivation, and the end-to-end experiment grid."""

import numpy as np
import pytest

from conftest import dataset_path, make_ds, random_ds
from infsub import model
from infsub.data import SplitSpec, load_libsvm, write_libsvm
from infsub.experiment import (AggregateRow, CellResult, ConfigError,
                               ExperimentConfig, ExperimentReport, best_sigmoid,
                               config_from_mapping, derive_seed, emit_report,
                               expand_methods, load_splits, read_config,
                               run_pipeline, _sibling)
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


@pytest.mark.parametrize("bad, match", [
    (dict(ratios=[]), "ratios must both be nonempty"),
    (dict(methods=["random", "random"]), "methods has duplicate"),
    (dict(ratios=[0.9, 0.9]), "ratios has duplicate"),
    (dict(sigmoid_alphas=[5.0, 5.0]), "sigmoid_alphas has duplicate"),
    (dict(methods=["sigmoid"], sigmoid_alphas=[]), "sigmoid_alphas is empty"),
    (dict(sigmoid_alphas=[-1.0]), "sigmoid alpha must be positive"),
    (dict(linear_alpha=0.0), "linear_alpha must be positive"),
    (dict(optlr_floor=0.0), "optlr_floor"),
    (dict(optlr_floor=1.5), "optlr_floor"),
    (dict(pcg_tol=0.0), "tol must be positive"),
    (dict(pcg_max_iter=0), "max_iter"),
    (dict(va_fraction=1.5), "va_fraction"),
    (dict(va_fraction=0.5, te_fraction=0.5), "room for training rows"),
    (dict(reg_c=0.0), "reg_c must be finite and positive"),
    (dict(reg_c=float("inf")), "reg_c must be finite and positive"),
    (dict(reg_c=float("nan")), "reg_c must be finite and positive"),
    (dict(train_tol=0.0), "train_tol must be positive"),
    (dict(train_max_iter=0), "train_max_iter must be at least 1"),
    (dict(train_tol=float("inf")), "train_tol must be positive and finite, got inf"),
    (dict(pcg_tol=float("inf")), "pcg_tol must be positive and finite, got inf"),
    (dict(pcg_tol=1.0), "pcg_tol must be below 1, got 1.0"),
    (dict(sigmoid_alphas=[5.0, float("inf")]), "sigmoid alpha must be positive and finite, got inf"),
    (dict(linear_alpha=float("inf")), "linear_alpha must be positive and finite, got inf"),
], ids=["no-ratios", "dup-methods", "dup-ratios", "dup-alphas", "no-alphas", "negative-alpha", "zero-linear-alpha",
        "zero-floor", "floor-above-one", "pcg-tol", "pcg-max-iter",
        "va-fraction", "no-training-rows", "zero-reg-c", "infinite-reg-c", "nan-reg-c",
        "zero-train-tol", "zero-train-max-iter", "infinite-train-tol", "infinite-pcg-tol",
        "unit-pcg-tol", "infinite-alpha", "infinite-linear-alpha"])
def test_config_rejects_bad_grid_before_reading_data(bad, match):
    # "a" does not exist: the error must come from the config itself.
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(dataset_path="a", **bad)


def test_config_builds_solver_and_split_settings():
    cfg = ExperimentConfig(dataset_path="a", va_fraction=0.25, te_fraction=0.1, split_seed=3,
                           pcg_tol=1e-6, pcg_max_iter=50)
    assert cfg.pcg == PcgConfig(tol=1e-6, max_iter=50)
    assert cfg.split_spec == SplitSpec(0.25, 0.1, seed=3)
    # Pre-split files ignore the split fractions.
    assert ExperimentConfig(tr_path="t", va_path="v", va_fraction=2.0).split_spec is None


def test_config_from_mapping_parses_types():
    cfg = config_from_mapping({
        "dataset_path": "toy.svm",
        "ratios": "0.95, 0.9",
        "methods": "random,sigmoid",
        "sigmoid_alphas": "1, 5",
        "repeats": "4",
        "compute_gamma": "yes",
        "n_features": "12",
    })
    assert cfg.ratios == [0.95, 0.9]
    assert cfg.methods == ["random", "sigmoid"]
    assert cfg.sigmoid_alphas == [1.0, 5.0]
    assert cfg.repeats == 4
    assert cfg.compute_gamma is True
    assert cfg.n_features == 12


def test_config_from_mapping_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"dataset_path": "x", "spam": "1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        config_from_mapping({"dataset_path": "x", "repeats": "three"})
    with pytest.raises(ConfigError, match="boolean"):
        config_from_mapping({"dataset_path": "x", "compute_gamma": "maybe"})


@pytest.mark.parametrize("raw", ["0", "false", "No", " FALSE "])
def test_config_from_mapping_reads_false_words(raw):
    assert config_from_mapping({"dataset_path": "x", "compute_gamma": raw}).compute_gamma is False


def test_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "dataset_path = toy.svm\n"
        "ratios = 0.95,0.8   # trailing comment\n"
        "repeats = 2\n"
        "\n")
    cfg = config_from_mapping(read_config(str(path)))
    assert cfg.dataset_path == "toy.svm"
    assert cfg.ratios == [0.95, 0.8]
    assert cfg.repeats == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(ConfigError, match="key = value"):
        read_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        read_config(str(tmp_path / "missing.cfg"))
    # A value is parsed, and its key checked, where the file is read.
    bad.write_text("repeats = 2\nratios = 0.9,x\n")
    with pytest.raises(ConfigError) as err:
        read_config(str(bad))
    assert str(err.value) == f"{bad}:2: ratios: cannot parse 'x'"
    bad.write_text("\nspam = 1\n")
    with pytest.raises(ConfigError) as err:
        read_config(str(bad))
    assert str(err.value) == f"{bad}:2: unknown config key 'spam'"
    # A range is checked once the whole config is built, as for a flag.
    bad.write_text("reg_c = 0\n")
    assert read_config(str(bad)) == {"reg_c": "0"}


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


def test_pipeline_subset_sizes_follow_ratio(data_file):
    cfg = small_config(data_file, ratios=[0.9], repeats=2)
    report = run_pipeline(cfg)
    tr, _, _ = load_splits(cfg)
    from infsub.data import round_half_up
    expected = sum(round_half_up(0.9 * int(np.sum(tr.y == lab))) for lab in (0, 1))
    for cell in report.cells:
        assert cell.n_selected == expected


def test_pipeline_is_deterministic(data_file):
    # compute_gamma keeps every CellResult field a real number, so dataclass
    # equality is exact (gamma stays nan otherwise and nan != nan).
    cfg = small_config(data_file, methods=["random", "sigmoid"], sigmoid_alphas=[1.0],
                       compute_gamma=True)
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

    def full_fit_uncapped(ds, reg_c, tol, max_iter, sample_weight=None):
        calls.append(max_iter)
        return real_train(ds, reg_c, tol=tol, max_iter=100 if len(calls) == 1 else max_iter,
                          sample_weight=sample_weight)

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
                        te_accuracy=acc, gamma=0.125, n_selected=9)
             for k, (va, te, acc) in enumerate([(0.25, 0.75, 0.5), (0.5, 0.5, 0.75),
                                                (0.75, 0.25, 1.0)])]
    cells += [CellResult("sigmoid@1", 0.9, 0, seed=3, va_logloss=0.375, te_logloss=0.125,
                         te_accuracy=1.0, gamma=0.0625, n_selected=8),
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
