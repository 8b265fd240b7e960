"""Acceptance gate: one test per shipped guarantee.

Each test prints a single verdict line; run `pytest -s tests/test_acceptance.py`
to see them. Every tolerance is pinned inline next to the check it guards, and
each oracle is independent of the code under test (leave-one-out retraining,
central finite differences, a fine grid search, plain Monte-Carlo).

The two bundled datasets stand in for the usual binary-classification
benchmarks; point INFSUB_BREAST_CANCER_PATH / INFSUB_DIABETES_PATH at real
libsvm files to rerun the gate against them.
"""

import os
import time

import numpy as np

from conftest import dataset_path, random_ds
from test_risk import grid_worst_case
from infsub import cli, model
from infsub.experiment import ExperimentConfig, best_sigmoid, run_pipeline
from infsub.influence import PcgConfig, compute_phi, inverse_hvp_pcg
from infsub.sampling import subset_risk_weighted
from infsub.synthdata import ill_conditioned


def _dataset(env_var, bundled_name):
    return os.environ.get(env_var) or dataset_path(bundled_name)


BREAST_CANCER = _dataset("INFSUB_BREAST_CANCER_PATH", "breast_cancer_like.svm")
DIABETES = _dataset("INFSUB_DIABETES_PATH", "pima_like.svm")


def _verdict(num, title, ok, detail):
    print(f"\n[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_influence_tracks_leave_one_out_retraining():
    # Oracle: drop each training row, retrain to gradient norm 1e-10, and
    # record n * (full validation logloss - retrained validation logloss).
    # phi must correlate with that oracle at Pearson r >= 0.9 in under 10 s.
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    tr = random_ds(rng, 30, 5)
    va = random_ds(rng, 40, 5)
    full = model.train(tr, 0.1, tol=1e-10, max_iter=200)
    l_full = model.mean_logloss(full, va)
    keep = np.arange(tr.n_rows)
    oracle = np.empty(tr.n_rows)
    for i in range(tr.n_rows):
        loo = model.train(tr.subset(np.delete(keep, i)), 0.1, tol=1e-10, max_iter=200)
        oracle[i] = tr.n_rows * (l_full - model.mean_logloss(loo, va))
    phi = compute_phi(full, tr, va, PcgConfig(1e-10, 2000)).phi
    r = float(np.corrcoef(phi, oracle)[0, 1])
    elapsed = time.perf_counter() - start
    _verdict(1, "influence tracks leave-one-out retraining",
             r >= 0.9 and elapsed < 10.0,
             f"pearson {r:.4f} over 30 retrains, {elapsed:.2f}s")


def test_02_influence_sums_to_zero_when_validating_on_train():
    # With va == tr and per-sample losses carrying their share of the
    # regularizer, the influence scores must cancel: sum phi = 0.
    rng = np.random.default_rng(8)
    tr = random_ds(rng, 60, 6)
    params = model.train(tr, 0.1, tol=1e-10, max_iter=200)
    phi = compute_phi(params, tr, tr, PcgConfig(1e-10, 2000)).phi
    ratio = abs(phi.sum()) / np.abs(phi).sum()
    _verdict(2, "influence cancels when validation equals training",
             ratio <= 1e-6, f"|sum phi| / sum |phi| = {ratio:.3e}")


def test_03_sigmoid_subset_beats_full_model_on_holdout():
    # C=0.1, ratio 0.95, 10 repeats, sigmoid alpha picked on Va from
    # {0.1, 1, 5, 10, 50}; the winning subset's mean Te logloss must not
    # exceed the full-set model's in at least 8 of 10 split seeds per
    # dataset, all inside a 2-minute budget.
    start = time.perf_counter()
    tallies = {}
    for name, path in (("breast-cancer", BREAST_CANCER), ("diabetes", DIABETES)):
        wins = 0
        for split_seed in range(10):
            cfg = ExperimentConfig(
                dataset_path=path, va_fraction=0.3, te_fraction=0.2,
                split_seed=split_seed, reg_c=0.1, methods=["sigmoid"],
                sigmoid_alphas=[0.1, 1.0, 5.0, 10.0, 50.0], ratios=[0.95],
                repeats=10, seed=split_seed)
            report = run_pipeline(cfg)
            best = best_sigmoid(report, 0.95)
            wins += best.te_mean <= report.full_te_logloss
        tallies[name] = wins
    elapsed = time.perf_counter() - start
    _verdict(3, "tuned sigmoid subset beats the full model out of sample",
             all(w >= 8 for w in tallies.values()) and elapsed < 120.0,
             ", ".join(f"{k} {v}/10" for k, v in tallies.items())
             + f", {elapsed:.1f}s")


def test_04_parameter_shift_ordering_across_samplers():
    # Hard dropout specializes hardest, so its squared parameter shift must
    # exceed sigmoid(alpha=1) at every ratio, while sigmoid stays within a
    # factor of two of the random baseline.
    cfg = ExperimentConfig(
        dataset_path=BREAST_CANCER, va_fraction=0.3, te_fraction=0.2,
        split_seed=0, reg_c=0.1, methods=["random", "dropout", "sigmoid"],
        sigmoid_alphas=[1.0], ratios=[0.95, 0.9, 0.8, 0.7], repeats=10,
        seed=0, compute_gamma=True)
    report = run_pipeline(cfg)
    gamma = {(row.method, row.ratio): row.gamma_mean for row in report.aggregates()}
    ordered, bounded, notes = True, True, []
    for ratio in cfg.ratios:
        drop, sig, rand = (gamma[("dropout", ratio)], gamma[("sigmoid@1", ratio)],
                           gamma[("random", ratio)])
        ordered &= drop > sig
        bounded &= 0.5 <= sig / rand <= 2.0
        notes.append(f"r={ratio:g}: drop/sig {drop / sig:.2f}, sig/rand {sig / rand:.2f}")
    _verdict(4, "dropout shifts parameters more than sigmoid, sigmoid near random",
             ordered and bounded, "; ".join(notes))


def test_05_worst_case_dual_matches_grid_search():
    # 10 random loss vectors x delta in {0, 0.5, 2, 10}: the exactly solved
    # dual must be within 1e-4 of a 1e-5-step grid oracle, and every value
    # must land between the mean and the max of the losses.
    from infsub.risk import worst_case_curve
    rng = np.random.default_rng(42)
    worst_err, sandwiched = 0.0, True
    for k in range(10):
        losses = (rng.uniform(0.0, 2.0 + 0.1 * k, 50) if k % 2 == 0
                  else rng.exponential(0.7, 50))
        for delta in (0.0, 0.5, 2.0, 10.0):
            [(_, value, _)] = worst_case_curve(losses, [delta])
            worst_err = max(worst_err, abs(value - grid_worst_case(losses, delta)))
            sandwiched &= (losses.mean() - 1e-9 <= value <= losses.max() + 1e-9)
    _verdict(5, "worst-case dual agrees with grid search in all 40 cells",
             worst_err <= 1e-4 and sandwiched,
             f"max |dual - grid| = {worst_err:.2e}, mean<=value<=max {sandwiched}")


def test_06_numerical_kernels_against_finite_differences():
    # 100 random (theta, dataset, v) probes: analytic gradient and HVP vs
    # central differences at relative error <= 1e-4; then a PCG solve with
    # true residual <= 1e-8 ||v||, converging in strictly fewer iterations
    # than plain CG on feature scales spanning 1..1e4.
    rng = np.random.default_rng(11)
    h, worst = 1e-5, 0.0
    for _ in range(100):
        n, d = int(rng.integers(8, 40)), int(rng.integers(2, 9))
        ds = random_ds(rng, n, d)
        reg_c = float(rng.choice([0.01, 0.1, 1.0]))
        theta = rng.normal(0.0, 0.5, d)
        v = rng.normal(size=d)
        u = v / np.linalg.norm(v)

        def at(t):
            return model.ModelParams(theta=t, reg_c=reg_c)

        fd_grad = (model.risk(at(theta + h * u), ds)
                   - model.risk(at(theta - h * u), ds)) / (2.0 * h)
        grad_err = abs(model.gradient(at(theta), ds) @ u - fd_grad) / max(abs(fd_grad), 1e-12)
        fd_hvp = (model.gradient(at(theta + h * v), ds)
                  - model.gradient(at(theta - h * v), ds)) / (2.0 * h)
        hvp = model.hvp(model.curvature(at(theta), ds), v)
        hvp_err = np.linalg.norm(hvp - fd_hvp) / max(np.linalg.norm(fd_hvp), 1e-12)
        worst = max(worst, grad_err, hvp_err)

    ds = ill_conditioned(n=200, d=40, seed=5)
    params = model.ModelParams(theta=np.zeros(40), reg_c=1e-4)
    v = np.random.default_rng(6).normal(size=40)
    t, pcg = inverse_hvp_pcg(model.curvature(params, ds), v, PcgConfig(1e-8, 5000))
    _, plain = model.pcg(model.curvature(params, ds), v, 1e-8, 5000)
    residual = np.linalg.norm(model.hvp(model.curvature(params, ds), t) - v)
    bound = 1e-8 * np.linalg.norm(v)
    _verdict(6, "kernels match finite differences and PCG beats plain CG",
             worst <= 1e-4 and residual <= bound and pcg.converged
             and plain.converged and pcg.iters < plain.iters,
             f"max FD rel err {worst:.2e}, residual {residual:.2e} <= {bound:.2e}, "
             f"iters {pcg.iters} vs {plain.iters}")


def test_07_sigmoid_subset_recovers_accuracy_under_label_noise():
    # Flip 40% of training labels; the Va-tuned sigmoid subset's mean Te
    # accuracy over 10 repeats must beat the full-set model by >= 1 point.
    cfg = ExperimentConfig(
        dataset_path=BREAST_CANCER, va_fraction=0.3, te_fraction=0.2,
        split_seed=0, reg_c=0.1, methods=["sigmoid"],
        sigmoid_alphas=[0.1, 1.0, 5.0, 10.0, 50.0], ratios=[0.6],
        repeats=10, seed=0, flip_fraction=0.4)
    report = run_pipeline(cfg)
    best = best_sigmoid(report, 0.6)
    gain = best.accuracy_mean - report.full_te_accuracy
    _verdict(7, "sigmoid subset beats full model by a point under 40% label noise",
             gain >= 0.01,
             f"accuracy {best.accuracy_mean:.4f} vs {report.full_te_accuracy:.4f} "
             f"(+{100 * gain:.2f}pp, {best.method})")


def test_08_weighted_risk_estimator_is_unbiased():
    # Monte-Carlo: 1e4 independent Bernoulli(pi) subsets of a 50-sample
    # instance; the mean inverse-probability risk must sit within 3 standard
    # errors of the full-sample risk.
    ds = random_ds(np.random.default_rng(3), 50, 4)
    params = model.train(ds, 0.1)
    probs = np.random.default_rng(5).uniform(0.25, 1.0, 50)
    weighted = model.per_sample_loss(params, ds, regularized=True) / probs / ds.n_rows
    mask = np.random.default_rng(0).random((10_000, 50)) < probs
    draws = mask @ weighted
    # The vectorized draws are the estimator: spot-check rows against it.
    for row in (0, 117, 9_999):
        sel = np.flatnonzero(mask[row])
        assert np.isclose(draws[row], subset_risk_weighted(params, ds, sel, probs),
                          rtol=1e-12, atol=0.0)
    target = model.risk(params, ds)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    z = (draws.mean() - target) / se
    _verdict(8, "inverse-probability risk is unbiased over 1e4 draws",
             abs(z) <= 3.0, f"mean {draws.mean():.6f} vs risk {target:.6f}, z = {z:+.2f}")


def test_09_pipeline_runs_are_byte_identical(tmp_path):
    # Same config, two fresh runs, three CSVs each: every byte must match.
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag / "report.csv"
        out.parent.mkdir()
        code = cli.main([
            "pipeline", "--dataset", BREAST_CANCER,
            "--va-fraction", "0.3", "--te-fraction", "0.2", "--split-seed", "0",
            "--reg-c", "0.1", "--method", "random,dropout,sigmoid",
            "--alpha", "1", "--ratio", "0.95", "--repeats", "3",
            "--seed", "0", "--gamma", "--out", str(out)])
        assert code == 0
        outputs.append([out, out.parent / "report_aggregate.csv",
                        out.parent / "report_gamma.csv"])
    same = all(p1.read_bytes() == p2.read_bytes() for p1, p2 in zip(*outputs))
    _verdict(9, "pipeline reruns produce byte-identical CSVs",
             same, "report, aggregate, and gamma files compared")
