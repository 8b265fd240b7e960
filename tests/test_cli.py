"""End-to-end command-line coverage: every subcommand plus exit codes."""

import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import dataset_path, random_ds
from infsub import cli, experiment, influence, model, sampling
from infsub.data import SplitSpec, load_libsvm, round_half_up, split, write_libsvm


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


def test_evaluate_refuses_influence_and_plan_of_different_lengths(files, tmp_path, capsys):
    # Both tables are read and compared before the data and the model, so
    # nothing is printed but the error, which names both files.
    plan_path, short = tmp_path / "plan.csv", tmp_path / "short.csv"
    assert cli.main(["sample", "--influence", files["inf"], "--tr", files["tr"],
                     "--method", "random", "--ratio", "0.5", "--out", str(plan_path)]) == 0
    influence.write_influence_csv(str(short), np.zeros(40))
    capsys.readouterr()
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     "--influence", str(short), "--plan", str(plan_path)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {short} holds 40 influence rows but {plan_path} "
                   "holds 80 plan rows\n")


@pytest.mark.parametrize("baseline", ["missing", "other-reg-c"])
def test_evaluate_refuses_a_baseline_before_printing_or_writing(files, tmp_path, capsys,
                                                                 baseline):
    # The baseline model is loaded and compared with the model before the
    # logloss is printed or the curve written: a missing file, or a model
    # fitted at another reg_c, exits 2 with nothing on stdout and no curve.
    base = tmp_path / "baseline.txt"
    if baseline == "other-reg-c":
        assert cli.main(["train", "--tr", files["tr"], "--reg-c", "0.2", "--out", str(base)]) == 0
    capsys.readouterr()
    curve_path = tmp_path / "curve.csv"
    code = cli.main(["evaluate", "--model", files["model"], "--data", files["va"],
                     "--deltas", "0.1", "--out", str(curve_path), "--baseline-model", str(base)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {base}: " if baseline == "missing"
                          else "error: models fitted with different reg_c: 0.2 vs 0.1\n")
    assert not curve_path.exists()


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


def test_sample_rejects_ratio_outside_unit_interval_before_loading(tmp_path, capsys):
    missing, plan_path = str(tmp_path / "missing"), tmp_path / "p.csv"
    code = cli.main(["sample", "--influence", missing, "--tr", missing, "--method", "random",
                     "--ratio", "1.5", "--out", str(plan_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: target_ratio must be in (0, 1], got 1.5\n"
    assert not plan_path.exists()


# For each subcommand, its required flags, every file missing.
_REQUIRED = {
    "train": ["--tr", "MISSING", "--out", "OUT"],
    "influence": ["--model", "MISSING", "--tr", "MISSING", "--va", "MISSING", "--out", "OUT"],
    "sample": ["--influence", "MISSING", "--tr", "MISSING", "--method", "random",
               "--ratio", "0.5", "--out", "OUT"],
    "evaluate": ["--model", "MISSING", "--data", "MISSING"],
    "pipeline": ["--dataset", "MISSING", "--out", "OUT"],
}


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_negative_n_features_is_refused_before_any_file_is_opened(tmp_path, capsys, command):
    # No file exists: the setting, not a missing file, must be the error.
    # Indices stop at 2**31 - 1, so no index reaches a dimension above 2**31.
    out = tmp_path / "out"
    names = {"MISSING": str(tmp_path / "missing.svm"), "OUT": str(out)}
    key = "n_features: " if command == "pipeline" else ""   # a config refusal names its key
    for value, rule in (("-1", "be nonnegative"), ("2147483649", "be at most 2147483648")):
        code = cli.main([command, *(names.get(a, a) for a in _REQUIRED[command]),
                         "--n-features", value])
        assert code == 2
        assert capsys.readouterr().err == f"error: {key}n_features must {rule}, got {value}\n"
        assert not out.exists()


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


def test_evaluate_names_an_unparsable_radius_before_loading(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["evaluate", "--model", missing, "--data", missing, "--deltas", "0.5,x"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("infsub evaluate: error: argument --deltas: cannot parse 'x'\n")


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


def test_pipeline_has_one_flag_per_config_field():
    # Flags are the pipeline's one front end, so every setting has one.
    keys = [key for _, key, _ in cli._CONFIG_FLAGS]
    flags = [flag for flag, _, _ in cli._CONFIG_FLAGS]
    assert len(set(keys)) == len(keys) and len(set(flags)) == len(flags)
    assert set(keys) == {f.name for f in dataclasses.fields(experiment.ExperimentConfig) if f.init}


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
    rep = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", dataset_path("pima_like.svm"), "--max-iter", "1",
                     "--method", "random", "--repeats", "1", "--out", str(rep)])
    assert code == 1
    assert "full-set fit stopped" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, kind", [
    ("--repeats", "x", "int"),
    ("--max-iter", "1.5", "int"),
    ("--pcg-tol", "x", "float"),
], ids=["unparsable", "non-integer-max-iter", "unparsable-pcg-tol"])
def test_pipeline_config_errors_name_the_file_and_line(files, tmp_path, capsys, flag, value, kind):
    # argparse types every flag, so an unparsable value is named by its flag
    # and refused before anything runs.
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["pipeline", "--dataset", files["full"], "--method", "random",
                  flag, value, "--out", str(out)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"infsub pipeline: error: argument {flag}: invalid {kind} value: '{value}'\n")
    assert not out.exists()


def test_pipeline_flag_errors_keep_their_message(files, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["pipeline", "--dataset", files["full"], "--method", "random",
                  "--repeats", "x", "--out", str(tmp_path / "r.csv")])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "infsub pipeline: error: argument --repeats: invalid int value: 'x'\n")


@pytest.mark.parametrize("flag, value, command", [
    ("--tol", "x", "train"),
    ("--max-iter", "1.5", "train"),
    ("--reg-c", "x", "train"),
    ("--n-features", "1.5", "train"),
    ("--pcg-tol", "x", "influence"),
    ("--pcg-max-iter", "1.5", "influence"),
])
def test_a_flag_is_refused_alike_in_every_subcommand(tmp_path, capsys, flag, value, command):
    # A flag that `pipeline` shares with another subcommand is typed by the
    # same parser, so an unparsable value exits 2 with the same line.
    names = {"MISSING": str(tmp_path / "missing"), "OUT": str(tmp_path / "out")}
    lines = []
    for name in (command, "pipeline"):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([name, *(names.get(a, a) for a in _REQUIRED[name]), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"infsub {name}: error: argument {flag}: ")
        lines.append(err.splitlines()[-1].split(": error: ", 1)[1])
    assert lines[0] == lines[1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_every_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: infsub {command} ")
    if command == "pipeline":
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
        assert {flag for flag, _, _ in cli._CONFIG_FLAGS} <= listed


def test_pipeline_rejects_negative_split_seed_before_loading(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "nonexistent.svm"),
                     "--split-seed", "-1", "--method", "random", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: split_seed: split seed must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--method", "random,random", "--ratio", "0.9,0.9", "--repeats", "2"],
     "error: methods has duplicate entries: ['random', 'random']\n"),
    (["--method", "sigmoid", "--alpha=-1"],
     "error: sigmoid_alphas: alpha must be positive and finite, got -1.0\n"),
    (["--method", "sigmoid", "--alpha", "1,inf"],
     "error: sigmoid_alphas: alpha must be positive and finite, got inf\n"),
    (["--ratio", "1.5"], "error: ratios: target_ratio must be in (0, 1], got 1.5\n"),
    (["--tol", "0"], "error: train_tol: tol must be positive and finite, got 0.0\n"),
    (["--max-iter", "0"], "error: train_max_iter: max_iter must be at least 1, got 0\n"),
    (["--pcg-max-iter", "0"], "error: pcg_max_iter: pcg_max_iter must be at least 1, got 0\n"),
], ids=["duplicate-grid", "negative-alpha", "infinite-alpha", "ratio-past-one", "zero-tol",
        "zero-max-iter", "zero-pcg-max-iter"])
def test_pipeline_rejects_bad_grid_before_loading(tmp_path, capsys, flags, message):
    # The dataset does not exist: the grid must be refused before it is read,
    # and an owning module's refusal names the config key it came from.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "missing.svm"), *flags,
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("empty", [["--te", ""], ["--te="]], ids=["flag", "flag-equals"])
def test_pipeline_rejects_an_empty_te_path_before_loading(tmp_path, capsys, empty):
    # tr and va do not exist: the empty te_path must be refused before they are read.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--tr", str(tmp_path / "missing-tr.svm"),
                     "--va", str(tmp_path / "missing-va.svm"), *empty,
                     "--method", "random", "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: te_path is empty; give a file or leave the key out\n")
    assert not out.exists()


def test_pipeline_refuses_a_va_file_without_rows(files, tmp_path, capsys):
    # A missing te file leaves the test metrics NaN; a va file without rows
    # has nothing to score influence or the full-set fit against.
    empty = tmp_path / "empty.svm"
    empty.write_bytes(b"")
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--tr", files["tr"], "--va", str(empty), "--method", "random",
                     "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: empty dataset\n"
    assert not out.exists()


def test_pipeline_rejects_zero_reg_c_before_loading(tmp_path, capsys):
    # The dataset does not exist: reg_c must be refused before it is read.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "nonexistent.svm"),
                     "--method", "random", "--reg-c", "0", "--out", str(out)])
    assert code == 2
    assert "reg_c must be finite and positive for training, got 0.0" in capsys.readouterr().err
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
    assert "error: seed must be nonnegative, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_rejects_bad_pcg_setting_before_fitting(files, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", files["full"], "--pcg-tol", "0",
                     "--method", "random", "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert "tol must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_config_refuses_pcg_tol_of_one_before_reading(tmp_path, capsys):
    # The dataset does not exist: the tolerance must be refused first.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "missing.svm"), "--pcg-tol", "1",
                     "--out", str(out)])
    assert code == 2
    assert "pcg_tol must be below 1, got 1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods, setting, key", [
    ("random,dropout", "--alpha=5", "sigmoid_alphas"),
    ("random", "--pcg-tol=0.5", "pcg_tol"),
    ("random", "--pcg-max-iter=5", "pcg_max_iter"),
], ids=["sigmoid-alphas", "pcg-tol", "pcg-max-iter"])
def test_pipeline_rejects_key_no_requested_method_reads(tmp_path, capsys, methods, setting, key):
    # The dataset does not exist: the unused setting is refused before it is
    # read. random reads no influence, so neither solver setting is read.
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--dataset", str(tmp_path / "missing.svm"),
                     "--method", methods, setting, "--out", str(out)])
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
    out = tmp_path / "report.csv"
    code = cli.main(["pipeline", "--tr", files["tr"], "--va", files["va"], "--va-fraction", "0.4",
                     "--method", "random", "--repeats", "1", "--out", str(out)])
    assert code == 2
    assert "va_fraction is set but the data comes pre-split" in capsys.readouterr().err
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


def test_pipeline_flip_of_no_label_writes_the_unflipped_bytes(tmp_path, capsys):
    # 0.0001 of pima_like's 384 training rows rounds to no label flipped: the
    # run is the unflipped run, with no accuracy column, byte for byte.
    grid = ["--dataset", dataset_path("pima_like.svm"), "--method", "random,linear",
            "--ratio", "0.8", "--repeats", "2", "--gamma"]
    for name, setting in (("plain", []), ("flip", ["--flip", "0.0001"])):
        (tmp_path / name).mkdir()
        assert cli.main(["pipeline", *grid, *setting,
                         "--out", str(tmp_path / name / "report.csv")]) == 0
        assert ", acc " not in capsys.readouterr().out
    written = sorted(os.listdir(tmp_path / "plain"))
    assert written == ["report.csv", "report_aggregate.csv", "report_gamma.csv"]
    assert sorted(os.listdir(tmp_path / "flip")) == written
    for name in written:
        assert (tmp_path / "flip" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_piecemeal_flow_reproduces_pipeline_cells(tmp_path, monkeypatch):
    # The README's piecemeal flow is a second route to a pipeline cell. With
    # breast_cancer_like split as the README splits it, `sample` at a cell's
    # seed selects the cell's rows, and `train` from zero on those rows gives
    # the cell's held-out loglosses within the fit tolerance.
    ds = load_libsvm(dataset_path("breast_cancer_like.svm"))
    paths = {name: str(tmp_path / f"{name}.svm") for name in ("tr", "va", "te")}
    for name, part in zip(paths, split(ds, SplitSpec(0.3, 0.2, seed=0))):
        write_libsvm(part, paths[name])
    d, reg_c, seed, ratio = "10", 0.1, 11, 0.9
    masks = {}
    real_draw = experiment._draw_cell

    def draw(tr, probs, base, ratio, seed, phi):
        masks[seed] = real_draw(tr, probs, base, ratio, seed, phi)
        return masks[seed]

    monkeypatch.setattr(experiment, "_draw_cell", draw)
    report = tmp_path / "report.csv"
    assert cli.main(["pipeline", "--tr", paths["tr"], "--va", paths["va"], "--te", paths["te"],
                     "--n-features", d, "--reg-c", str(reg_c), "--method", "sigmoid,random",
                     "--alpha", "5", "--ratio", str(ratio), "--repeats", "1",
                     "--seed", str(seed), "--out", str(report)]) == 0
    losses = {line.split(",")[0]: [float(v) for v in line.split(",")[3:5]]
              for line in report.read_text().splitlines()[1:]}

    full, influence_csv = str(tmp_path / "model.txt"), str(tmp_path / "influence.csv")
    assert cli.main(["train", "--tr", paths["tr"], "--n-features", d, "--reg-c", str(reg_c),
                     "--out", full]) == 0
    assert cli.main(["influence", "--model", full, "--tr", paths["tr"], "--va", paths["va"],
                     "--n-features", d, "--out", influence_csv]) == 0
    tr, va, te = (load_libsvm(paths[name], int(d)) for name in ("tr", "va", "te"))
    for label, method, alpha in (("sigmoid@5", "sigmoid", ["--alpha", "5"]),
                                 ("random", "random", [])):
        cell_seed = experiment.derive_seed(seed, label, ratio, 0)
        plan = str(tmp_path / f"{method}-plan.csv")
        assert cli.main(["sample", "--influence", influence_csv, "--tr", paths["tr"],
                         "--n-features", d, "--method", method, *alpha, "--ratio", str(ratio),
                         "--seed", str(cell_seed), "--out", plan]) == 0
        selected = sampling.read_plan_csv(plan).selected
        assert np.array_equal(selected, np.flatnonzero(masks[cell_seed]))
        subset, fitted = str(tmp_path / f"{method}.svm"), str(tmp_path / f"{method}.model")
        write_libsvm(tr.subset(selected), subset)
        assert cli.main(["train", "--tr", subset, "--n-features", d, "--reg-c", str(reg_c),
                         "--out", fitted]) == 0
        fit = model.load_params(fitted)
        # The cell's column weighs its rows n / n_sub, so both fits minimize
        # the subset's mean log loss plus (C/2)||theta||^2, which is
        # C-strongly convex: each stops within ||g|| / C <= tol / C of the
        # optimum, so the two thetas lie within 2 tol / C of each other. A
        # row's log loss changes by at most |x . dtheta| (its slope in the
        # margin is below 1), so a mean loss by at most max ||x|| 2 tol / C.
        for data, want in zip((va, te), losses[label]):
            bound = max(np.sqrt(data.X.multiply(data.X).sum(axis=1))) * 2 * model.TRAIN_TOL / reg_c
            assert abs(model.mean_logloss(fit, data) - want) <= bound


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


def test_main_exits_2_when_an_allocation_does_not_fit(files, tmp_path, monkeypatch, capsys):
    # As numpy raises for a d-sized array no memory can hold (--n-features
    # 2147483648 asks for 16 GiB); raised here so the test asks for none.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB for an array with shape "
                          "(2147483648,) and data type float64")
    monkeypatch.setattr(model, "train", no_memory)
    out = tmp_path / "m.txt"
    assert cli.main(["train", "--tr", files["tr"], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate 16.0 GiB")
    assert not out.exists()


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
