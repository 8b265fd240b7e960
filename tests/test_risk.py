"""Worst-case risk dual, parameter-shift metric, and the covariance diagnostic.

The dual minimization is checked against a dense grid search over eta, and
the curve against an O(n) sweep of every segment per radius. For a radius
of zero the ball collapses to the empirical distribution, where the worst
case equals the plain mean; for positive radii the interior minimizer is
bracketed by a closed-form left edge, so the grid can enclose it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infsub.model import ModelParams
from infsub.risk import cov_phi_eps, gamma_shift, worst_case_curve, write_worst_case_curve_csv
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


def up_scale(losses):
    """The exponent e for which 2^e lifts a largest loss below 1/2 into
    [1/2, 1), else 0.

    The oracles square losses; below about 1e-154 the squares underflow to
    zero, and a dual of losses near 1e-297 would read as 0. Scaling up by a
    power of two (``np.ldexp``) is exact, and so is scaling the result back.
    """
    top = float(np.max(losses))
    return int(-np.frexp(top)[1]) if 0.0 < top < 0.5 else 0


def sweep_segments(losses, delta):
    """Oracle: the dual's minimum on every segment between sorted losses, O(n).

    With the losses sorted in descending order, for eta between the k-th and
    (k+1)-th largest loss the dual is c sqrt(q ((m - eta)^2 + v)) + eta,
    with c^2 = 2 delta + 1, q = k/n and m, v the mean and population
    variance of the top k. Where a = c^2 q - 1 > 0 it is stationary at
    m - sqrt(v / a), with value m + sqrt(a v); otherwise the segment's left
    end is its minimum. Returns each segment's (value, eta), k = 1..n.
    """
    scale = up_scale(losses)
    top = np.sort(np.ldexp(np.asarray(losses, dtype=np.float64), scale))[::-1]
    c2 = 2.0 * delta + 1.0
    k = np.arange(1, top.size + 1)
    q = k / top.size
    dev = top - top[0]
    dev_mean = np.cumsum(dev) / k
    m = top[0] + dev_mean
    v = np.maximum(np.cumsum(dev * dev) / k - dev_mean * dev_mean, 0.0)
    a = c2 * q - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        free = np.where(a > 0.0, m - np.sqrt(v / a), -np.inf)
        eta = np.clip(free, np.append(top[1:], -np.inf), top)
        value = np.where(eta == free, m + np.sqrt(a * v),
                         np.sqrt(c2 * q * ((m - eta) ** 2 + v)) + eta)
    return np.ldexp(value, -scale), np.ldexp(eta, -scale)


def sweep_worst_case(losses, delta):
    """Oracle for one row of ``worst_case_curve``: the least segment minimum,
    with the same two exact limits (the mean at 2 delta + 1 == 1, the
    largest loss from delta = (n - 1) / 2 on)."""
    losses = np.asarray(losses, dtype=np.float64)
    if 2.0 * delta + 1.0 == 1.0:
        return float(np.mean(losses)), -np.inf
    if delta >= (losses.size - 1) / 2:
        return float(losses.max()), float(losses.max())
    value, eta = sweep_segments(losses, delta)
    best = int(np.argmin(value))
    return float(value[best]), float(eta[best])


def dual(losses, delta, eta):
    """The dual objective itself, evaluated at one eta."""
    scale = up_scale(losses)
    tail = np.maximum(np.ldexp(np.asarray(losses), scale) - np.ldexp(eta, scale), 0.0)
    return float(np.ldexp(np.sqrt(2.0 * delta + 1.0) * np.sqrt(np.mean(tail * tail))
                          + np.ldexp(eta, scale), -scale))


# -------------------------------------------------------------- worst case

def test_constant_losses_any_radius():
    losses = np.full(7, 0.42)
    for delta in (0.0, 1.0, 10.0):
        [(_, value, _)] = worst_case_curve(losses, [delta])
        assert value == pytest.approx(0.42, abs=1e-6)


def test_zero_radius_equals_mean():
    # The dual only approaches the mean as eta -> -inf, and the solver
    # returns exactly that limit.
    rng = np.random.default_rng(50)
    for _ in range(5):
        losses = rng.exponential(size=30)
        assert worst_case_curve(losses, [0.0]) == [(0.0, float(np.mean(losses)), -np.inf)]


def test_single_loss_any_radius():
    for delta in (0.0, 3.0):
        [(_, value, _)] = worst_case_curve(np.array([1.3]), [delta])
        assert value == pytest.approx(1.3, abs=1e-6)


def test_matches_grid_oracle():
    rng = np.random.default_rng(51)
    tied = np.array([0.2, 1.1, 0.2, 0.7, 1.1, 0.2, 0.0, 0.7, 1.1, 0.2])
    for losses in [rng.exponential(scale=0.7, size=25) for _ in range(4)] + [tied]:
        for delta in (0.5, 2.0, 10.0):
            [(_, value, _)] = worst_case_curve(losses, [delta])
            assert abs(value - grid_worst_case(losses, delta)) <= 1e-4


def test_value_between_mean_and_max():
    rng = np.random.default_rng(52)
    losses = rng.uniform(0.0, 3.0, size=40)
    for delta in (0.0, 0.1, 1.0, 25.0):
        [(_, value, _)] = worst_case_curve(losses, [delta])
        assert float(losses.mean()) - 1e-9 <= value <= float(losses.max()) + 1e-9


def test_curve_nondecreasing_and_limits():
    losses = np.random.default_rng(53).uniform(0.1, 2.0, size=30)
    deltas = [0.0, 0.5, 2.0, 10.0, 1e6]
    curve = worst_case_curve(losses, deltas)
    values = [value for _, value, _ in curve]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(float(losses.mean()), abs=1e-6)
    assert values[-1] == pytest.approx(float(losses.max()), abs=1e-3)
    # Each row is the curve for its radius alone: no row depends on the others.
    assert curve == [row for d in deltas for row in worst_case_curve(losses, [d])]


def test_radius_that_holds_the_point_mass_gives_the_largest_loss():
    # From delta = (n - 1) / 2 = 14.5 on, the ball holds the point mass on the
    # largest loss. At delta = 1e308, 2 delta + 1 overflows to inf, which once
    # made the value NaN.
    losses = np.random.default_rng(54).uniform(0.1, 2.0, size=30)
    top = float(losses.max())
    for delta in (14.5, 15.0, 1e6, 1e308, float(np.finfo(np.float64).max)):
        assert worst_case_curve(losses, [delta]) == [(delta, top, top)]
    curve = worst_case_curve(losses, [0.0, 0.5, 2.0, 14.0, 14.5, 1e6, 1e308])
    values = [value for _, value, _ in curve]
    assert all(np.isfinite(values))
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] == top


def test_curve_matches_the_sweep_bit_for_bit():
    # The benchmark's 201 radii over 2400 losses, radii up to the float below
    # (n - 1) / 2, and losses tied, heavy-tailed or within 1e-3 of each
    # other. Rounding can put the binary search one segment off; solving
    # its neighbours too keeps every row bit-identical to the sweep.
    rng = np.random.default_rng(58)
    n = 2400
    deltas = ([i / 100 for i in range(201)] + rng.uniform(0.0, (n - 1) / 2, 50).tolist()
              + [float(np.nextafter((n - 1) / 2, 0.0))])
    for losses in (rng.exponential(size=n), np.round(rng.exponential(size=n), 2),
                   rng.lognormal(0.0, 3.0, size=n), 5.0 + rng.uniform(0.0, 1e-3, size=n)):
        assert worst_case_curve(losses, deltas) == [(d, *sweep_worst_case(losses, d))
                                                     for d in deltas]


def test_huge_losses_give_a_finite_worst_case():
    # Squares of losses past about 1e154 overflow unless the losses are scaled
    # first; the scaling is by a power of two, so it is exact.
    losses = np.array([1e200, 5e199, 0.0])
    _, e = np.frexp(losses.max())
    scaled = worst_case_curve(np.ldexp(losses, -e), [0.5])[0]
    with np.errstate(all="raise"):
        (delta, value, eta), = worst_case_curve(losses, [0.5])
    assert np.isfinite(value) and losses.mean() <= value <= losses.max()
    assert (value, eta) == (np.ldexp(scaled[1], e), np.ldexp(scaled[2], e))


def test_curve_rows_follow_the_order_of_the_radii():
    losses = np.random.default_rng(59).exponential(size=50)
    deltas = [3.0, 0.0, 1e308, 0.25, 3.0]
    assert worst_case_curve(losses, deltas) == [(d, *sweep_worst_case(losses, d))
                                                 for d in deltas]
    assert worst_case_curve(losses, []) == []


@st.composite
def losses_and_radii(draw):
    """Losses with ties, constant runs and n down to 1, and the radii where the
    dual is degenerate: 0, below the resolution of 1, the point-mass radius
    (n - 1) / 2 and the float below it, 1e308, and (n / k - 1) / 2, where a
    tied top k makes the dual flat."""
    pool = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4))
    n = draw(st.integers(1, 40))
    losses = np.array(draw(st.lists(st.sampled_from(pool) | st.floats(0.0, 1e3),
                                    min_size=n, max_size=n)))
    if draw(st.booleans()):
        losses[:] = losses[0]
    top = np.sort(losses)[::-1]
    tied = int(np.sum(top == top[0]))
    radii = [0.0, 1e-17, (n - 1) / 2, float(np.nextafter((n - 1) / 2, 0.0)), 1e308,
             (n / tied - 1) / 2]
    radii += draw(st.lists(st.floats(0.0, 2.0 * n), max_size=6))
    return losses, radii


@settings(max_examples=300, deadline=None)
@given(case=losses_and_radii())
def test_curve_matches_the_sweep(case):
    losses, radii = case
    curve = worst_case_curve(losses, radii)
    assert [row[0] for row in curve] == radii
    for delta, value, eta in curve:
        want, want_eta = sweep_worst_case(losses, delta)
        assert abs(value - want) <= 1e-12 * want
        if eta != want_eta:
            # eta may differ only where no float can tell the minimizer: some
            # segment minimum at another eta is within rounding of the least
            # (on a flat dual, exactly equal to it). Any such eta minimizes.
            values, etas = sweep_segments(losses, delta)
            assert np.any((etas != want_eta) & (values <= want * (1.0 + 1e-12)))
            assert abs(dual(losses, delta, eta) - want) <= 1e-12 * (want + abs(eta))


def test_worst_case_input_validation():
    with pytest.raises(ValueError, match="nonempty"):
        worst_case_curve(np.array([]), [1.0])
    with pytest.raises(ValueError, match="finite"):
        worst_case_curve(np.array([np.inf]), [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        worst_case_curve(np.array([-0.1]), [1.0])
    with pytest.raises(ValueError, match="delta"):
        worst_case_curve(np.array([1.0]), [-1.0])
    with pytest.raises(ValueError, match="delta"):
        worst_case_curve(np.array([1.0]), [np.inf])
    with pytest.raises(ValueError, match="got nan"):
        worst_case_curve(np.array([1.0]), [0.5, np.nan, -1.0])


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
