"""End-to-end command-line coverage: every subcommand plus exit codes."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dataset_path, random_ds
from infsub import cli, experiment, influence, model, sampling
from infsub.data import load_libsvm, round_half_up, write_libsvm


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A split dataset on disk plus a trained model and influence CSVs."""
    root = tmp_path_factory.mktemp("cli")
    ds = random_ds(np.random.default_rng(7), n=120, d=4)
    paths = {
        "full": str(root / "full.svm"),
        "tr": str(root / "tr.svm"),
        "va": str(root / "va.svm"),
        "model": str(root / "model.txt"),
        "inf": str(root / "influence.csv"),
        "inf_psi": str(root / "influence_psi.csv"),
    }
    write_libsvm(ds, paths["full"])
    write_libsvm(ds.subset(np.arange(80)), paths["tr"])
    write_libsvm(ds.subset(np.arange(80, 120)), paths["va"])
    assert cli.main(["train", "--tr", paths["tr"], "--reg-c", "0.1",
                     "--out", paths["model"]]) == 0
    assert cli.main(["influence", "--model", paths["model"], "--tr", paths["tr"],
                     "--va", paths["va"], "--out", paths["inf"]]) == 0
    assert cli.main(["influence", "--model", paths["model"], "--tr", paths["tr"],
                     "--va", paths["va"], "--psi", "--out", paths["inf_psi"]]) == 0
    return paths


def test_train_reports_convergence(files, tmp_path, capsys):
    out = tmp_path / "m.txt"
    code = cli.main(["train", "--tr", files["tr"], "--out", str(out)])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    params = model.load_params(str(out))
    assert params.converged and params.dim == 4


def test_train_flags_nonconvergence(files, tmp_path, capsys):
    out = tmp_path / "m.txt"
    code = cli.main(["train", "--tr", files["tr"], "--max-iter", "1",
                     "--tol", "1e-14", "--out", str(out)])
    assert code == 1
    assert "NOT converged" in capsys.readouterr().out
    # The model file itself carries only the coefficients, so it still loads.
    assert model.load_params(str(out)).dim == 4


@pytest.mark.parametrize("flags, match", [
    (["--pcg-tol", "0"], "tol must be positive"),
    (["--pcg-max-iter", "0"], "max_iter must be at least 1"),
    (["--pcg-tol", "inf", "--psi"], "pcg_tol must be positive and finite, got inf"),
    (["--pcg-tol", "1", "--psi"], "pcg_tol must be below 1, got 1.0"),
    (["--pcg-tol", "5"], "pcg_tol must be below 1, got 5.0"),
], ids=["pcg-tol", "pcg-max-iter", "infinite-pcg-tol", "unit-pcg-tol", "large-pcg-tol"])
def test_influence_rejects_bad_pcg_setting_before_loading(tmp_path, capsys, flags, match):
    # No input file exists: the solver settings must be refused before any read.
    missing = str(tmp_path / "missing")
    code = cli.main(["influence", "--model", missing, "--tr", missing, "--va", missing,
                     *flags, "--out", str(tmp_path / "i.csv")])
    assert code == 2
    assert match in capsys.readouterr().err


def test_influence_csv_contents(files):
    phi, psi = influence.read_influence_csv(files["inf"])
    assert phi.size == 80
    assert psi is None
    phi_again, psi = influence.read_influence_csv(files["inf_psi"])
    assert psi is not None and psi.shape == phi.shape
    assert np.array_equal(phi_again, phi)


@pytest.mark.parametrize("method", ["dropout", "linear", "sigmoid", "optlr", "random"])
def test_sample_honors_stratified_quota(files, tmp_path, method):
    plan_path = tmp_path / f"{method}.csv"
    source = files["inf_psi"] if method == "optlr" else files["inf"]
    code = cli.main(["sample", "--influence", source, "--tr", files["tr"],
                     "--method", method, "--ratio", "0.8", "--seed", "3",
                     "--out", str(plan_path)])
    assert code == 0
    plan = sampling.read_plan_csv(str(plan_path))
    tr = load_libsvm(files["tr"])
    want = sum(round_half_up(0.8 * int(np.sum(tr.y == lab))) for lab in (0, 1))
    assert plan.selected.size == want
    assert plan.method == method


def test_sample_optlr_needs_psi_column(files, tmp_path, capsys):
    code = cli.main(["sample", "--influence", files["inf"], "--tr", files["tr"],
                     "--method", "optlr", "--ratio", "0.8",
                     "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "psi" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["random", "dropout", "optlr"])
def test_sample_rejects_alpha_the_method_does_not_read(files, tmp_path, capsys, method):
    plan_path = tmp_path / "p.csv"
    code = cli.main(["sample", "--influence", files["inf_psi"], "--tr", files["tr"],
                     "--method", method, "--alpha", "5", "--ratio", "0.8",
                     "--out", str(plan_path)])
    assert code == 2
    assert f"{method} reads no alpha" in capsys.readouterr().err
    assert not plan_path.exists()


def test_sample_rejects_row_count_mismatch(files, tmp_path):
    code = cli.main(["sample", "--influence", files["inf"], "--tr", files["va"],
                     "--method", "random", "--ratio", "0.8",
                     "--out", str(tmp_path / "p.csv")])
    assert code == 2


def test_evaluate_prints_all_diagnostics(files, tmp_path, capsys):
    plan_path = tmp_path / "plan.csv"
    cli.main(["sample", "--influence", files["inf"], "--tr", files["tr"],
              "--method", "sigmoid", "--ratio", "0.9", "--out", str(plan_path)])
    capsys.readouterr()
    curve_path = tmp_path / "curve.csv"
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     "--deltas", "0,0.5,2", "--out", str(curve_path),
                     "--baseline-model", files["model"],
                     "--influence", files["inf"], "--plan", str(plan_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean logloss" in out
    assert out.count("eta*") == 3
    assert "squared parameter shift vs baseline: 0.000000e+00" in out
    assert "cov(influence, weight shift)" in out
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "delta,worst_case,eta_star"
    assert len(lines) == 4


def test_evaluate_huge_radius_gives_the_largest_loss(files, tmp_path):
    # 2 delta + 1 overflows to inf at delta = 1e308; the curve must still
    # end at the largest loss, not NaN.
    curve_path = tmp_path / "curve.csv"
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     "--deltas", "0,1,1e308", "--out", str(curve_path)])
    assert code == 0
    params, va = model.load_params(files["model"]), load_libsvm(files["va"])
    top = repr(float(model.per_sample_loss(params, va, regularized=False).max()))
    assert curve_path.read_text().splitlines()[-1] == f"1e+308,{top},{top}"


@pytest.mark.parametrize("method", ["sigmoid", "linear"])
def test_sample_rejects_infinite_alpha_before_loading(tmp_path, capsys, method):
    missing, plan_path = str(tmp_path / "missing"), tmp_path / "p.csv"
    code = cli.main(["sample", "--influence", missing, "--tr", missing, "--method", method,
                     "--alpha", "inf", "--ratio", "0.8", "--out", str(plan_path)])
    assert code == 2
    assert "alpha must be positive and finite, got inf" in capsys.readouterr().err
    assert not plan_path.exists()


@pytest.mark.parametrize("radius", ["-2", "nan", "inf"])
def test_evaluate_rejects_bad_radius_before_loading(tmp_path, capsys, radius):
    # Checked before any file is read: neither path exists, and no logloss
    # line is printed.
    missing, curve = str(tmp_path / "missing"), tmp_path / "curve.csv"
    code = cli.main(["evaluate", "--model", missing, "--data", missing,
                     "--deltas", f"0.1,{radius}", "--out", str(curve)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"delta must be finite and nonnegative, got {float(radius)}" in err
    assert not curve.exists()


def test_evaluate_out_needs_deltas(files, tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     "--out", str(curve)])
    assert code == 2
    assert "needs --deltas" in capsys.readouterr().err
    assert not curve.exists()


def test_evaluate_rejects_deltas_without_a_radius(files, tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     "--deltas", ",", "--out", str(curve)])
    assert code == 2
    assert "names no radius" in capsys.readouterr().err
    assert not curve.exists()


@pytest.mark.parametrize("given", ["--influence", "--plan"])
def test_evaluate_influence_and_plan_go_together(files, tmp_path, capsys, given):
    # The path need not exist: the flag pair is checked before anything is read.
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     given, str(tmp_path / "missing.csv")])
    assert code == 2
    assert "--influence and --plan go together" in capsys.readouterr().err


def test_evaluate_rejects_dimension_mismatch(files, tmp_path):
    narrow = tmp_path / "narrow.svm"
    write_libsvm(random_ds(np.random.default_rng(1), n=12, d=2), str(narrow))
    assert cli.main(["evaluate", "--model", files["model"],
                     "--data", str(narrow)]) == 2


def test_evaluate_rejects_model_with_repeated_index(files, tmp_path, capsys):
    bad = tmp_path / "model.txt"
    bad.write_text("4 0.1\n0 1.0\n0 2.0\n")
    assert cli.main(["evaluate", "--model", str(bad), "--data", files["va"]]) == 2
    assert f"{bad}:3: duplicate index 0" in capsys.readouterr().err


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    code = cli.main(["train", "--tr", str(tmp_path / "nope.svm"),
                     "--out", str(tmp_path / "m.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_influence_names_the_malformed_file(files, tmp_path, capsys):
    bad = tmp_path / "bad.svm"
    bad.write_text("1 0:1\n1 2:x\n")
    out = tmp_path / "influence.csv"
    code = cli.main(["influence", "--model", files["model"], "--tr", files["tr"],
                     "--va", str(bad), "--out", str(out)])
    assert code == 2
    assert f"error: {bad}: line 2: bad feature '2:x'" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_writes_report_aggregate_and_gamma(files, tmp_path):
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", files["full"],
                     "--va-fraction", "0.3", "--te-fraction", "0.2",
                     "--method", "random,sigmoid", "--alpha", "1",
                     "--ratio", "0.9", "--repeats", "2", "--seed", "0",
                     "--reg-c", "0.1", "--gamma", "--out", str(rep)])
    assert code == 0
    assert rep.exists()
    agg = tmp_path / "report_aggregate.csv"
    gamma = tmp_path / "report_gamma.csv"
    assert agg.exists() and gamma.exists()
    assert len(rep.read_text().splitlines()) == 1 + 2 * 2  # two methods x two repeats


def test_pipeline_config_file_with_cli_override(files, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {files['full']}\n"
                   "va_fraction = 0.3\n"
                   "te_fraction = 0.2\n"
                   "methods = random\n"
                   "ratios = 0.9\n"
                   "repeats = 1\n")
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--repeats", "3",
                     "--out", str(rep)])
    assert code == 0
    assert len(rep.read_text().splitlines()) == 1 + 3


def test_pipeline_config_file_leaves_data_source_to_flags(files, tmp_path):
    # The file alone is not a complete config; the flags complete it.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("va_fraction = 0.3\n"
                   "te_fraction = 0.2\n"
                   "methods = random\n"
                   "ratios = 0.9\n")
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--dataset", files["full"],
                     "--repeats", "2", "--out", str(rep)])
    assert code == 0
    assert len(rep.read_text().splitlines()) == 1 + 2


def test_pipeline_failing_cells_exit_nonzero(files, tmp_path, capsys):
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", files["full"],
                     "--va-fraction", "0.3", "--te-fraction", "0.2",
                     "--method", "random", "--ratio", "0.002", "--repeats", "1",
                     "--out", str(rep)])
    assert code == 1
    assert "FAILED cell" in capsys.readouterr().err


def test_pipeline_nonconverged_full_fit_exits_1_without_report(tmp_path, capsys):
    # One Newton step leaves the pima_like full fit far from its optimum,
    # where influence scores mean nothing.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {dataset_path('pima_like.svm')}\n"
                   "train_max_iter = 1\n"
                   "methods = random\n"
                   "repeats = 1\n")
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--out", str(rep)])
    assert code == 1
    assert "full-set fit stopped" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_pipeline_config_rejects_deltas_key(files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {files['full']}\n"
                   "deltas = 0,0.5,2\n")
    code = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "report.csv")])
    assert code == 2
    assert "unknown config key 'deltas'" in capsys.readouterr().err


def test_pipeline_config_rejects_duplicate_key(files, tmp_path, capsys):
    # A later line must not silently override an earlier one.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {files['full']}\n"
                   "methods = random\n"
                   "repeats = 2\n"
                   "repeats = 5\n")
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--out", str(rep)])
    assert code == 2
    assert f"{cfg}:4: duplicate key 'repeats'" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("line, message", [
    ("repeats = x", "repeats: cannot parse 'x'"),
    ("bogus = 1", "unknown config key 'bogus'"),
    ("compute_gamma = maybe", "compute_gamma: expected a boolean, got 'maybe'"),
], ids=["unparsable", "unknown-key", "not-a-boolean"])
def test_pipeline_config_errors_name_the_file_and_line(files, tmp_path, capsys, line, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# grid\nmethods = random\n{line}\n")
    out = tmp_path / "r.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--dataset", files["full"],
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: {message}\n"
    assert not out.exists()


def test_pipeline_flag_errors_keep_their_message(files, tmp_path, capsys):
    code = cli.main(["pipeline", "--dataset", files["full"], "--method", "random",
                     "--repeats", "x", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: repeats: cannot parse 'x'\n"


def test_pipeline_rejects_negative_split_seed_before_loading(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "nonexistent.svm"),
                     "--split-seed", "-1", "--method", "random", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: split seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, match", [
    (["--method", "random,random", "--ratio", "0.9,0.9", "--repeats", "2"],
     "methods has duplicate"),
    (["--method", "sigmoid", "--alpha=-1"], "sigmoid alpha must be positive"),
    (["--method", "sigmoid", "--alpha", "1,inf"], "sigmoid alpha must be positive and finite"),
], ids=["duplicate-grid", "negative-alpha", "infinite-alpha"])
def test_pipeline_rejects_bad_grid_before_loading(tmp_path, capsys, flags, match):
    # The dataset does not exist: the grid must be refused before it is read.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "missing.svm"), *flags,
                     "--out", str(out)])
    assert code == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_rejects_zero_reg_c_before_loading(tmp_path, capsys):
    # The dataset does not exist: reg_c must be refused before it is read.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "nonexistent.svm"),
                     "--method", "random", "--reg-c", "0", "--out", str(out)])
    assert code == 2
    assert "reg_c must be finite and positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, match", [
    (["--reg-c", "0"], "reg_c must be finite and positive for training, got 0.0"),
    (["--max-iter", "0"], "max_iter must be at least 1, got 0"),
    (["--tol", "inf"], "tol must be positive and finite, got inf"),
    (["--tol", "0"], "tol must be positive and finite, got 0.0"),
], ids=["zero-reg-c", "zero-max-iter", "infinite-tol", "zero-tol"])
def test_train_rejects_bad_setting_before_loading(tmp_path, capsys, flags, match):
    # The training file does not exist: the setting must be refused before it is read.
    out = tmp_path / "m.txt"
    code = cli.main(["train", "--tr", str(tmp_path / "nonexistent.svm"), *flags,
                     "--out", str(out)])
    assert code == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_infinite_reg_c(files, tmp_path, capsys):
    out = tmp_path / "m.txt"
    code = cli.main(["train", "--tr", files["tr"], "--reg-c", "inf", "--out", str(out)])
    assert code == 2
    assert "reg_c must be finite and positive for training, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_negative_seed(files, tmp_path, capsys):
    out = tmp_path / "plan.csv"
    code = cli.main(["sample", "--influence", files["inf"], "--tr", files["tr"],
                     "--method", "random", "--ratio", "0.5", "--seed", "-3", "--out", str(out)])
    assert code == 2
    assert "--seed must be nonnegative, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_rejects_bad_pcg_setting_before_fitting(files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pcg_tol = 0\n")
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--dataset", files["full"],
                     "--method", "random", "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert "tol must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_config_refuses_pcg_tol_of_one_before_reading(tmp_path, capsys):
    # The dataset does not exist: the tolerance must be refused first.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {tmp_path / 'missing.svm'}\n"
                   "pcg_tol = 1\n")
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "pcg_tol must be below 1, got 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_config_rejects_pcg_alpha_key(files, tmp_path, capsys):
    # Influence solves always use the Jacobi preconditioner; there is no mix to set.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset_path = {files['full']}\n"
                   "pcg_alpha = 1\n")
    code = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "report.csv")])
    assert code == 2
    assert "unknown config key 'pcg_alpha'" in capsys.readouterr().err


@pytest.mark.parametrize("setting, key", [
    ("--alpha=5", "sigmoid_alphas"),
    ("linear_alpha = 2", "linear_alpha"),
    ("optlr_floor = 0.5", "optlr_floor"),
], ids=["sigmoid-alphas", "linear-alpha", "optlr-floor"])
def test_pipeline_rejects_key_no_requested_method_reads(tmp_path, capsys, setting, key):
    # The dataset does not exist: the unused setting is refused before it is read.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("" if setting.startswith("--") else setting + "\n")
    flags = [setting] if setting.startswith("--") else []
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--dataset",
                     str(tmp_path / "missing.svm"), "--method", "random,dropout", *flags,
                     "--out", str(out)])
    assert code == 2
    assert f"{key} is set but no requested method reads it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, key", [
    ("--va-fraction=0.4", "va_fraction"),
    ("--te-fraction=0.1", "te_fraction"),
    ("--split-seed=3", "split_seed"),
], ids=["va-fraction", "te-fraction", "split-seed"])
def test_pipeline_rejects_split_setting_for_pre_split_data(tmp_path, capsys, flag, key):
    # The files do not exist: the unused setting is refused before they are read.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--tr", str(tmp_path / "missing-tr.svm"),
                     "--va", str(tmp_path / "missing-va.svm"), "--method", "random",
                     flag, "--out", str(out)])
    assert code == 2
    assert f"{key} is set but the data comes pre-split" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_config_split_setting_for_pre_split_data_exits_2(files, tmp_path, capsys):
    # With readable files the run would otherwise go ahead with the setting ignored.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tr_path = {files['tr']}\nva_path = {files['va']}\nsplit_seed = 5\n")
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--config", str(cfg), "--method", "random",
                     "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert "split_seed is set but the data comes pre-split" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--va", "--te"])
def test_pipeline_refuses_split_file_next_to_dataset(files, tmp_path, capsys, monkeypatch, flag):
    # The dataset is readable, so the run would otherwise go ahead with the
    # file ignored; it must be refused before any file is read.
    def no_read(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(experiment, "load_libsvm", no_read)
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", files["full"], flag, str(tmp_path / "missing.svm"),
                     "--method", "random", "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: dataset_path and tr_path/va_path/te_path are mutually exclusive\n")
    assert not out.exists()


def test_noise_runs_and_reports_accuracy(files, tmp_path, capsys):
    rep = tmp_path / "noise.csv"
    code = cli.main(["noise", "--dataset", files["full"], "--flip", "0.3",
                     "--va-fraction", "0.3", "--te-fraction", "0.2",
                     "--method", "sigmoid", "--alpha", "1", "--ratio", "0.8",
                     "--repeats", "2", "--out", str(rep)])
    assert code == 0
    assert "acc" in capsys.readouterr().out
    header = rep.read_text().splitlines()[0]
    assert header.endswith(",accuracy")


def test_noise_requires_flip_flag(files, tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["noise", "--dataset", files["full"],
                  "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_noise_rejects_zero_flip(files, tmp_path, capsys):
    code = cli.main(["noise", "--dataset", files["full"], "--flip", "0",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "needs flip_fraction > 0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_exits_1_when_stdout_is_a_closed_pipe(files, tmp_path, monkeypatch):
    # As when the output is piped to a reader that has exited: the model is
    # written, the line that reports it is not.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    out = tmp_path / "m.txt"
    assert cli.main(["train", "--tr", files["tr"], "--out", str(out)]) == 1
    assert out.exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


# Run in a fresh interpreter: this suite's own oracles import scipy.special.
_NO_SCIPY_SPECIAL = """
import sys
from infsub import cli

pima, out = sys.argv[1], sys.argv[2]
runs = [
    ["train", "--tr", pima, "--out", f"{out}/model.txt"],
    ["influence", "--model", f"{out}/model.txt", "--tr", pima, "--va", pima, "--psi",
     "--out", f"{out}/influence.csv"],
    ["sample", "--influence", f"{out}/influence.csv", "--tr", pima, "--method", "sigmoid",
     "--ratio", "0.8", "--out", f"{out}/plan.csv"],
    ["evaluate", "--model", f"{out}/model.txt", "--data", pima, "--deltas", "0,0.5",
     "--influence", f"{out}/influence.csv", "--plan", f"{out}/plan.csv"],
    ["pipeline", "--dataset", pima, "--method", "dropout,sigmoid,optlr,random",
     "--alpha", "5", "--ratio", "0.8", "--repeats", "1", "--out", f"{out}/report.csv"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
"""


def test_commands_never_load_scipy_special(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _NO_SCIPY_SPECIAL,
         dataset_path("pima_like.svm"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
