"""Influence-to-probability maps, stratified draws, and the weighted risk estimate."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import make_ds, random_ds
from infsub import model
from infsub.model import ModelParams, train
from infsub.sampling import (METHODS, SamplingError, SamplingPlan, draw_subset,
                             dropout_probs, linear_probs, optlr_probs,
                             probs_for, random_probs, read_plan_csv,
                             sigmoid_probs, subset_risk_weighted, write_plan_csv)

finite_phis = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=30)


# ------------------------------------------------------------ probability maps

def test_dropout_keeps_nonpositive_influence():
    assert dropout_probs(np.array([-1.0, 0.0, 3.0])).tolist() == [1.0, 1.0, 0.0]
    assert np.all(dropout_probs(np.array([-2.0, -0.5])) == 1.0)
    assert np.all(dropout_probs(np.array([0.1, 5.0])) == 0.0)


def test_linear_auto_alpha():
    # max|phi| = 2, so alpha = 0.5: probabilities clamp to [1, 0, 0].
    probs = linear_probs(np.array([-2.0, 0.0, 1.0]))
    assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-15)
    # 1 / max|phi| overflows for a subnormal scale; zeros must still map to 0.
    tiny = 2.225073858507e-311
    assert linear_probs(np.array([-tiny, 0.0, tiny / 2])).tolist() == [1.0, 0.0, 0.0]


def test_linear_explicit_alpha_clamps():
    phi = np.array([-10.0, -0.5, 0.0, 4.0])
    probs = linear_probs(phi, alpha=1.0)
    assert probs.tolist() == [1.0, 0.5, 0.0, 0.0]


def test_linear_rejects_degenerate_inputs():
    with pytest.raises(SamplingError, match="all-zero"):
        linear_probs(np.zeros(3))
    with pytest.raises(SamplingError, match="alpha"):
        linear_probs(np.array([1.0]), alpha=0.0)
    # At phi = 0 an infinite alpha would give a NaN probability.
    with pytest.raises(SamplingError, match="alpha must be positive and finite, got inf"):
        linear_probs(np.array([-1.0, 0.0]), alpha=np.inf)
    with pytest.raises(SamplingError, match="finite"):
        linear_probs(np.array([np.nan]))


@pytest.mark.parametrize("phi", [np.zeros(0), np.ones((2, 2))], ids=["empty", "2-d"])
def test_probabilities_refuse_an_empty_or_2d_vector(phi):
    with pytest.raises(SamplingError, match="^phi must be a nonempty flat vector$"):
        linear_probs(phi)


def test_probs_for_dispatches_with_defaults():
    phi = np.array([-2.0, 0.5, 1.0, -0.25])
    psi = np.array([0.0, 1.0, 4.0, 2.0])
    assert np.array_equal(probs_for("dropout", 0.5, phi), dropout_probs(phi))
    assert np.array_equal(probs_for("linear", 0.5, phi), linear_probs(phi))
    assert np.array_equal(probs_for("linear", 0.5, phi, alpha=3.0), linear_probs(phi, 3.0))
    assert np.array_equal(probs_for("sigmoid", 0.5, phi), sigmoid_probs(phi, 1.0))
    assert np.array_equal(probs_for("sigmoid", 0.5, phi, alpha=5.0), sigmoid_probs(phi, 5.0))
    assert np.array_equal(probs_for("optlr", 0.5, psi=psi, floor=0.2), optlr_probs(psi, 0.2))
    assert np.array_equal(probs_for("random", 0.5, phi), random_probs(4, 0.5))
    assert np.array_equal(probs_for("random", 0.5, n=6), random_probs(6, 0.5))
    with pytest.raises(SamplingError, match="rerun `influence` with --psi"):
        probs_for("optlr", 0.5, phi)
    with pytest.raises(SamplingError, match="unknown method"):
        probs_for("magic", 0.5, phi)
    for method in ("random", "dropout", "optlr"):
        with pytest.raises(SamplingError, match=f"{method} reads no alpha"):
            probs_for(method, 0.5, phi, psi, alpha=5.0)


@pytest.mark.parametrize("phi", [np.zeros(3), np.array([0.0, 2.2e-311])])
def test_probs_for_linear_auto_alpha_degenerate_scale(phi):
    # A zero scale is a SamplingError, not a ZeroDivisionError, and a
    # subnormal one whose inverse overflows still gives finite probabilities.
    if not np.any(phi):
        with pytest.raises(SamplingError, match="all-zero"):
            probs_for("linear", 0.9, phi)
    else:
        assert probs_for("linear", 0.9, phi).tolist() == [0.0, 0.0]


def test_sigmoid_midpoint_and_values():
    phi = np.array([-2.0, 0.0, 2.0])
    probs = sigmoid_probs(phi, alpha=1.0)
    assert probs[1] == pytest.approx(0.5, abs=1e-15)
    assert probs[0] == pytest.approx(expit(0.5), abs=1e-12)   # ~0.6225
    assert probs[2] == pytest.approx(expit(-0.5), abs=1e-12)  # ~0.3775


def test_sigmoid_symmetric_pair_sums_to_one():
    probs = sigmoid_probs(np.array([-3.0, 3.0]), alpha=7.0)
    assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_large_alpha_approaches_dropout():
    probs = sigmoid_probs(np.array([-1.0, 1.0]), alpha=200.0)
    assert probs[0] > 1.0 - 1e-12
    assert probs[1] < 1e-12
    # A small spread overflows exp; that limit is exactly pi = 0, not a warning.
    assert sigmoid_probs(np.array([2.0, 1.99]), alpha=5.0).tolist() == [0.0, 0.0]


def test_sigmoid_scale_invariant():
    phi = np.array([-1.5, 0.2, 0.9, 4.0])
    a = sigmoid_probs(phi, alpha=5.0)
    b = sigmoid_probs(phi * 37.0, alpha=5.0)
    assert np.allclose(a, b, atol=1e-14)


def test_sigmoid_rejects_constant_vector():
    with pytest.raises(SamplingError, match="constant"):
        sigmoid_probs(np.full(4, 2.5), alpha=1.0)
    with pytest.raises(SamplingError, match="alpha"):
        sigmoid_probs(np.array([0.0, 1.0]), alpha=-1.0)
    with pytest.raises(SamplingError, match="alpha must be positive and finite, got inf"):
        sigmoid_probs(np.array([0.0, 1.0]), alpha=np.inf)


def test_optlr_scaling_and_floor():
    norms = np.array([4.0, 2.0, 0.0])
    probs = optlr_probs(norms)
    assert probs[0] == 1.0          # the max norm lands exactly at 1
    assert probs[1] == pytest.approx(0.5, abs=1e-15)
    assert probs[2] == 0.01         # floored


def test_optlr_validation():
    with pytest.raises(SamplingError, match="nonnegative"):
        optlr_probs(np.array([-1.0]))
    with pytest.raises(SamplingError, match="floor"):
        optlr_probs(np.array([1.0]), floor=0.0)
    with pytest.raises(SamplingError, match="all-zero"):
        optlr_probs(np.zeros(3))


def test_random_probs_constant():
    probs = random_probs(5, 0.8)
    assert np.array_equal(probs, np.full(5, 0.8))
    with pytest.raises(SamplingError):
        random_probs(0, 0.5)
    with pytest.raises(SamplingError):
        random_probs(3, 1.5)


@settings(max_examples=60, deadline=None)
@given(phi=finite_phis)
def test_probability_maps_are_nonincreasing_in_phi(phi):
    phi = np.asarray(phi)
    assume(float(np.max(phi)) > float(np.min(phi)))
    order = np.argsort(phi, kind="stable")
    for probs in (dropout_probs(phi),
                  linear_probs(phi),
                  sigmoid_probs(phi, alpha=5.0)):
        ranked = probs[order]
        assert np.all(np.diff(ranked) <= 1e-12)
        assert np.all((probs >= 0.0) & (probs <= 1.0))


# ------------------------------------------------------------------- drawing

def test_draw_everything_at_ratio_one():
    labels = np.array([0, 1, 0, 1, 1])
    plan = draw_subset(np.ones(5), 1.0, labels, "random", seed=3)
    assert plan.selected.tolist() == [0, 1, 2, 3, 4]


def test_draw_exact_stratified_counts():
    rng = np.random.default_rng(0)
    labels = np.array([0] * 60 + [1] * 40)
    probs = rng.uniform(0.05, 1.0, size=100)
    plan = draw_subset(probs, 0.95, labels, "sigmoid", seed=1)
    assert plan.selected.size == 95
    assert int(np.sum(labels[plan.selected] == 0)) == 57
    assert int(np.sum(labels[plan.selected] == 1)) == 38


def test_dropout_rank_order_oracle():
    # Five nonpositive-influence rows plus the smallest positive one fill a
    # quota of six; ranking is ascending influence.
    phi = np.array([0.3, -0.1, 0.7, -0.5, 0.2, -0.9, 0.1, -0.2, 0.4, -0.6])
    labels = np.zeros(10, dtype=int)
    plan = draw_subset(dropout_probs(phi), 0.6, labels, "dropout", seed=0, phi=phi)
    assert plan.selected.tolist() == sorted([1, 3, 5, 7, 9, 6])


def test_dropout_breaks_ties_by_index():
    phi = np.array([0.5, 0.5, -1.0, 0.5])
    plan = draw_subset(dropout_probs(phi), 0.5, np.zeros(4, dtype=int), "dropout",
                       seed=9, phi=phi)
    assert plan.selected.tolist() == [0, 2]


def test_dropout_is_seed_independent():
    phi = np.random.default_rng(5).normal(size=40)
    labels = (np.arange(40) % 2)
    a = draw_subset(dropout_probs(phi), 0.7, labels, "dropout", seed=0, phi=phi)
    b = draw_subset(dropout_probs(phi), 0.7, labels, "dropout", seed=12345, phi=phi)
    assert np.array_equal(a.selected, b.selected)


def test_dropout_without_phi_is_rejected():
    probs = np.array([0.2, 0.9, 0.5])
    with pytest.raises(SamplingError, match="dropout ranks rows by phi"):
        draw_subset(probs, 2.0 / 3.0, np.zeros(3, dtype=int), "dropout", seed=0)


def test_weighted_draw_deterministic_per_seed():
    rng = np.random.default_rng(6)
    probs = rng.uniform(0.1, 1.0, size=200)
    labels = rng.integers(0, 2, size=200)
    a = draw_subset(probs, 0.8, labels, "linear", seed=42)
    b = draw_subset(probs, 0.8, labels, "linear", seed=42)
    c = draw_subset(probs, 0.8, labels, "linear", seed=43)
    assert np.array_equal(a.selected, b.selected)
    assert not np.array_equal(a.selected, c.selected)


def test_zero_probability_rows_excluded_until_needed():
    labels = np.zeros(10, dtype=int)
    probs = np.array([0.0] * 5 + [0.8] * 5)
    # Quota 3 < 5 positive-probability rows: zeros never selected.
    plan = draw_subset(probs, 0.3, labels, "sigmoid", seed=7)
    assert np.all(plan.selected >= 5)
    # Quota 8 > 5: all positives plus three uniform zero-probability rows.
    plan = draw_subset(probs, 0.8, labels, "sigmoid", seed=7)
    assert plan.selected.size == 8
    assert set(range(5, 10)) <= set(plan.selected.tolist())


def test_weighted_draw_prefers_heavier_rows():
    # Two rows, quota one: the heavy row should win with chance 0.9.
    labels = np.zeros(2, dtype=int)
    probs = np.array([0.9, 0.1])
    wins = sum(draw_subset(probs, 0.5, labels, "linear", seed=s).selected[0] == 0
               for s in range(500))
    assert 420 <= wins <= 478  # Binomial(500, 0.9) within ~4.5 sigma


@settings(max_examples=50, deadline=None)
@given(
    n_neg=st.integers(min_value=1, max_value=40),
    n_pos=st.integers(min_value=1, max_value=40),
    ratio=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    method=st.sampled_from(["random", "linear", "sigmoid", "optlr"]),
)
def test_draw_per_class_quota_always_exact(n_neg, n_pos, ratio, seed, method):
    labels = np.array([0] * n_neg + [1] * n_pos)
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.0, 1.0, size=labels.size)
    plan = draw_subset(probs, ratio, labels, method, seed)
    from infsub.data import round_half_up
    for label, count in ((0, n_neg), (1, n_pos)):
        quota = round_half_up(ratio * count)
        assert int(np.sum(labels[plan.selected] == label)) == quota


def test_draw_input_validation():
    probs = np.full(4, 0.5)
    labels = np.zeros(4, dtype=int)
    with pytest.raises(SamplingError, match="method"):
        draw_subset(probs, 0.5, labels, "magic", seed=0)
    with pytest.raises(SamplingError, match="0, 1"):
        draw_subset(np.array([1.5, 0.5, 0.5, 0.5]), 0.5, labels, "random", seed=0)
    with pytest.raises(SamplingError, match="labels"):
        draw_subset(probs, 0.5, np.zeros(3, dtype=int), "random", seed=0)
    with pytest.raises(SamplingError, match="target_ratio"):
        draw_subset(probs, 0.0, labels, "random", seed=0)
    with pytest.raises(SamplingError, match="phi"):
        draw_subset(probs, 0.5, labels, "dropout", seed=0, phi=np.zeros(3))


def test_plan_validation():
    with pytest.raises(SamplingError, match="method"):
        SamplingPlan("magic", np.full(3, 0.5), np.array([0]), 0.5, 0)
    with pytest.raises(SamplingError, match="strictly increasing"):
        SamplingPlan("random", np.full(3, 0.5), np.array([1, 0]), 0.5, 0)
    with pytest.raises(SamplingError, match="strictly increasing"):
        SamplingPlan("random", np.full(3, 0.5), np.array([0, 5]), 0.5, 0)
    with pytest.raises(SamplingError, match="0, 1"):
        SamplingPlan("random", np.array([2.0]), np.array([0]), 0.5, 0)
    with pytest.raises(SamplingError, match="target_ratio"):
        SamplingPlan("random", np.array([0.5]), np.array([0]), 1.5, 0)
    assert "random" in METHODS


# ------------------------------------------------------------- weighted risk

def test_weighted_risk_reduces_to_plain_risk_at_full_selection():
    ds = random_ds(np.random.default_rng(11), n=30, d=4)
    params = train(ds, reg_c=0.15)
    est = subset_risk_weighted(params, ds, np.arange(ds.n_rows), np.ones(ds.n_rows))
    assert est == pytest.approx(model.risk(params, ds), rel=1e-14)


def test_weighted_risk_single_sample_formula():
    ds = random_ds(np.random.default_rng(12), n=8, d=3)
    params = ModelParams(np.random.default_rng(13).normal(size=3), 0.2)
    probs = np.full(8, 0.5)
    losses = model.per_sample_loss(params, ds, regularized=True)
    est = subset_risk_weighted(params, ds, np.array([3]), probs)
    assert est == pytest.approx(2.0 * losses[3] / 8.0, rel=1e-14)


def test_weighted_risk_unbiased_over_bernoulli_draws():
    # Small-scale expectation check; the acceptance gate repeats it at
    # 10^4 draws on the prescribed instance size.
    ds = random_ds(np.random.default_rng(14), n=20, d=4)
    params = train(ds, reg_c=0.3)
    probs = np.random.default_rng(15).uniform(0.5, 1.0, size=20)
    rng = np.random.default_rng(16)
    draws = 2000
    estimates = np.empty(draws)
    for b in range(draws):
        mask = rng.random(20) < probs
        selected = np.flatnonzero(mask)
        estimates[b] = (subset_risk_weighted(params, ds, selected, probs)
                        if selected.size else 0.0)
    se = estimates.std(ddof=1) / np.sqrt(draws)
    assert abs(estimates.mean() - model.risk(params, ds)) <= 3 * se


def test_weighted_risk_validation():
    ds = random_ds(np.random.default_rng(17), n=6, d=2)
    params = ModelParams(np.zeros(2), 0.1)
    probs = np.full(6, 0.5)
    with pytest.raises(SamplingError, match="empty"):
        subset_risk_weighted(params, ds, np.array([], dtype=int), probs)
    with pytest.raises(SamplingError, match="out of range"):
        subset_risk_weighted(params, ds, np.array([7]), probs)
    with pytest.raises(SamplingError, match="positive probability"):
        subset_risk_weighted(params, ds, np.array([0]), np.zeros(6))
    with pytest.raises(SamplingError, match="probabilities for"):
        subset_risk_weighted(params, ds, np.array([0]), np.full(5, 0.5))


# --------------------------------------------------------------------- CSV

def test_plan_csv_round_trip(tmp_path):
    probs = np.array([0.25, 1.0, 1.0 / 3.0, 0.0])
    plan = SamplingPlan("sigmoid", probs, np.array([1, 2]), 0.5, seed=11, alpha=5.0)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, str(path))
    back = read_plan_csv(str(path))
    assert back.method == "sigmoid"
    assert np.array_equal(back.probs, probs)
    assert back.selected.tolist() == [1, 2]
    assert back.target_ratio == 0.5
    assert back.seed == 11
    assert back.alpha == 5.0
    first = path.read_text().splitlines()[0]
    assert first == "# method=sigmoid alpha=5.0 seed=11 ratio=0.5"


def test_plan_csv_contents(tmp_path):
    plan = SamplingPlan("sigmoid", np.array([0.25, 1.0, 1.0 / 3.0, 0.0]), np.array([1, 2]),
                        0.5, seed=11, alpha=5.0)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, str(path))
    assert path.read_text() == ("# method=sigmoid alpha=5.0 seed=11 ratio=0.5\n"
                                "index,prob,selected\n"
                                "0,0.25,0\n"
                                "1,1.0,1\n"
                                "2,0.3333333333333333,1\n"
                                "3,0.0,0\n")


def test_plan_csv_round_trip_nan_alpha(tmp_path):
    plan = SamplingPlan("random", np.full(3, 0.9), np.array([0, 2]), 0.9, seed=0)
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, str(path))
    back = read_plan_csv(str(path))
    assert np.isnan(back.alpha)
    assert back.selected.tolist() == [0, 2]


def test_plan_csv_bad_values_name_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    good = "method=random alpha=nan seed=0 ratio=0.5"
    for comment, prob in ((good.replace("ratio=0.5", "ratio=abc"), "0.5"),
                          (good.replace("alpha=nan", "alpha=abc"), "0.5"),
                          (good.replace("seed=0", "seed=abc"), "0.5"),
                          (good.replace("seed=0", "seed=1.5"), "0.5"),
                          (good, "abc"), (good, "1.5")):
        path.write_text(f"# {comment}\nindex,prob,selected\n0,{prob},1\n")
        with pytest.raises(SamplingError, match=f"^{re.escape(str(path))}: "):
            read_plan_csv(str(path))


def test_plan_csv_read_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,prob,selected\n0,0.5,1\n")
    with pytest.raises(SamplingError, match="metadata"):
        read_plan_csv(str(path))
    path.write_text("# method=random alpha=nan seed=0 ratio=0.5\nwrong\n")
    with pytest.raises(SamplingError, match="header"):
        read_plan_csv(str(path))
    path.write_text("# method=random alpha=nan seed=0 ratio=0.5\n"
                    "index,prob,selected\n0,0.5,2\n")
    with pytest.raises(SamplingError, match="flag"):
        read_plan_csv(str(path))
    path.write_text("# method=random alpha=nan seed=0 ratio=0.5\n"
                    "index,prob,selected\n1,0.5,0\n")
    with pytest.raises(SamplingError, match="indexed"):
        read_plan_csv(str(path))
