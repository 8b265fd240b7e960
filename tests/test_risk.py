"""Worst-case risk dual, parameter-shift metric, and the covariance diagnostic.

The dual minimization is checked against a dense grid search over eta. For a
radius of zero the ball collapses to the empirical distribution, where the
worst case equals the plain mean; for positive radii the interior minimizer
is bracketed by a closed-form left edge, so the grid can enclose it.
"""

import numpy as np
import pytest

from infsub.model import ModelParams
from infsub.risk import (cov_phi_eps, gamma_shift, worst_case_curve,
                         worst_case_risk, write_worst_case_curve_csv)
from infsub.sampling import dropout_probs, linear_probs, sigmoid_probs


def grid_worst_case(losses, delta, step=1e-5):
    """Independent oracle: brute-force the dual objective on a fine eta grid.

    At delta = 0 the value is the analytic mean. For delta > 0 the interior
    minimizer cannot sit left of mean - sqrt(var / (2 delta)) (stationarity
    with an all-positive tail), so the grid starts one unit below that.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if delta == 0.0:
        return float(np.mean(losses))
    coeff = np.sqrt(2.0 * delta + 1.0)
    closed_form_edge = float(np.mean(losses)) - np.sqrt(float(np.var(losses)) / (2.0 * delta))
    lo = min(float(np.min(losses)) - 1.0, closed_form_edge - 1.0)
    hi = float(np.max(losses))
    best = np.inf
    chunk = 1 << 16
    n_pts = int(np.ceil((hi - lo) / step)) + 1
    for start in range(0, n_pts, chunk):
        etas = lo + step * np.arange(start, min(start + chunk, n_pts))
        tails = np.maximum(losses[None, :] - etas[:, None], 0.0)
        vals = coeff * np.sqrt(np.mean(tails * tails, axis=1)) + etas
        best = min(best, float(vals.min()))
    return best


# -------------------------------------------------------------- worst case

def test_constant_losses_any_radius():
    losses = np.full(7, 0.42)
    for delta in (0.0, 1.0, 10.0):
        value, eta = worst_case_risk(losses, delta)
        assert value == pytest.approx(0.42, abs=1e-6)


def test_zero_radius_equals_mean():
    # The dual only approaches the mean as eta -> -inf, and the solver
    # returns exactly that limit.
    rng = np.random.default_rng(50)
    for _ in range(5):
        losses = rng.exponential(size=30)
        assert worst_case_risk(losses, 0.0) == (float(np.mean(losses)), -np.inf)


def test_single_loss_any_radius():
    for delta in (0.0, 3.0):
        value, _ = worst_case_risk(np.array([1.3]), delta)
        assert value == pytest.approx(1.3, abs=1e-6)


def test_matches_grid_oracle():
    rng = np.random.default_rng(51)
    tied = np.array([0.2, 1.1, 0.2, 0.7, 1.1, 0.2, 0.0, 0.7, 1.1, 0.2])
    for losses in [rng.exponential(scale=0.7, size=25) for _ in range(4)] + [tied]:
        for delta in (0.5, 2.0, 10.0):
            value, _ = worst_case_risk(losses, delta)
            assert abs(value - grid_worst_case(losses, delta)) <= 1e-4


def test_value_between_mean_and_max():
    rng = np.random.default_rng(52)
    losses = rng.uniform(0.0, 3.0, size=40)
    for delta in (0.0, 0.1, 1.0, 25.0):
        value, _ = worst_case_risk(losses, delta)
        assert float(losses.mean()) - 1e-9 <= value <= float(losses.max()) + 1e-9


def test_curve_nondecreasing_and_limits():
    losses = np.random.default_rng(53).uniform(0.1, 2.0, size=30)
    deltas = [0.0, 0.5, 2.0, 10.0, 1e6]
    curve = worst_case_curve(losses, deltas)
    values = [value for _, value, _ in curve]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(float(losses.mean()), abs=1e-6)
    assert values[-1] == pytest.approx(float(losses.max()), abs=1e-3)
    assert curve == [(d, *worst_case_risk(losses, d)) for d in deltas]


def test_radius_that_holds_the_point_mass_gives_the_largest_loss():
    # From delta = (n - 1) / 2 = 14.5 on, the ball holds the point mass on the
    # largest loss. At delta = 1e308, 2 delta + 1 overflows to inf, which once
    # made the value NaN.
    losses = np.random.default_rng(54).uniform(0.1, 2.0, size=30)
    top = float(losses.max())
    for delta in (14.5, 15.0, 1e6, 1e308, float(np.finfo(np.float64).max)):
        assert worst_case_risk(losses, delta) == (top, top)
    curve = worst_case_curve(losses, [0.0, 0.5, 2.0, 14.0, 14.5, 1e6, 1e308])
    values = [value for _, value, _ in curve]
    assert all(np.isfinite(values))
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] == top


def test_worst_case_input_validation():
    with pytest.raises(ValueError, match="nonempty"):
        worst_case_risk(np.array([]), 1.0)
    with pytest.raises(ValueError, match="finite"):
        worst_case_risk(np.array([np.inf]), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        worst_case_risk(np.array([-0.1]), 1.0)
    with pytest.raises(ValueError, match="delta"):
        worst_case_risk(np.array([1.0]), -1.0)
    with pytest.raises(ValueError, match="delta"):
        worst_case_risk(np.array([1.0]), np.inf)


# ------------------------------------------------------------ parameter shift

def test_gamma_shift_values():
    a = ModelParams(np.array([0.0, 0.0]), 0.1)
    b = ModelParams(np.array([3.0, 4.0]), 0.1)
    assert gamma_shift(a, a) == 0.0
    assert gamma_shift(a, b) == pytest.approx(25.0, abs=1e-12)


def test_gamma_shift_rejects_mismatches():
    a = ModelParams(np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="dimension"):
        gamma_shift(a, ModelParams(np.zeros(3), 0.1))
    with pytest.raises(ValueError, match="reg_c"):
        gamma_shift(a, ModelParams(np.zeros(2), 0.2))


# ---------------------------------------------------------------- covariance

def test_cov_constant_probs_is_zero():
    phi = np.random.default_rng(54).normal(size=50)
    assert cov_phi_eps(phi, np.full(50, 0.7)) == 0.0


def test_cov_matches_numpy():
    rng = np.random.default_rng(55)
    phi = rng.normal(size=40)
    probs = rng.uniform(size=40)
    expected = float(np.cov(phi, (probs - 1.0) / 40.0)[0, 1])
    assert cov_phi_eps(phi, probs) == pytest.approx(expected, rel=1e-12)


def test_cov_nonpositive_for_decreasing_maps():
    rng = np.random.default_rng(56)
    phi = rng.normal(size=200)
    for probs in (dropout_probs(phi), linear_probs(phi), sigmoid_probs(phi, 5.0)):
        assert cov_phi_eps(phi, probs) <= 0.0
    assert cov_phi_eps(phi, sigmoid_probs(phi, 5.0)) < 0.0


def test_cov_independent_assignment_near_zero():
    # Permutation oracle: with probabilities assigned independently of phi,
    # the covariance should sit within three permutation standard errors.
    rng = np.random.default_rng(57)
    phi = rng.normal(size=4000)
    probs = rng.uniform(size=4000)
    observed = cov_phi_eps(phi, probs)
    perms = np.array([cov_phi_eps(phi, rng.permutation(probs)) for _ in range(200)])
    assert abs(observed) <= 3.0 * perms.std(ddof=1)


def test_cov_short_and_mismatched_inputs():
    assert cov_phi_eps(np.array([1.0]), np.array([0.5])) == 0.0
    with pytest.raises(ValueError, match="equal length"):
        cov_phi_eps(np.zeros(3), np.zeros(4))


# ----------------------------------------------------------------------- CSV

def test_curve_csv_contents(tmp_path):
    rows = [(0.0, 0.5, -1.0), (2.0, 0.75, 0.25)]
    path = tmp_path / "curve.csv"
    write_worst_case_curve_csv(rows, str(path))
    assert path.read_text() == ("delta,worst_case,eta_star\n"
                                "0.0,0.5,-1.0\n"
                                "2.0,0.75,0.25\n")
