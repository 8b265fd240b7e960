"""Distributional-robustness diagnostics for subset-trained models.

The headline quantity is the worst-case empirical risk over reweightings of
the loss vector inside a chi-square ball of radius delta, computed through
its one-dimensional dual: minimize over eta of
sqrt(2 delta + 1) * sqrt(mean(relu(l - eta)^2)) + eta (Namkoong & Duchi
2016), which one sort of the losses, prefix sums over them and one binary
search per radius solve exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .data import write_table
from .model import ModelParams


def _check_losses(losses: np.ndarray) -> np.ndarray:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses must be a nonempty flat vector")
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    return losses


def check_deltas(deltas: Iterable[float]) -> np.ndarray:
    """The radii as a float array; ValueError names the first one that is
    negative or not finite."""
    deltas = np.array(list(deltas), dtype=np.float64)
    bad = np.flatnonzero(~((deltas >= 0.0) & (deltas < np.inf)))
    if bad.size:
        raise ValueError(f"delta must be finite and nonnegative, got {deltas[bad[0]]}")
    return deltas


def _dual_minima(losses: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum of the dual over eta, and the minimizer, for each radius.

    With the losses sorted in descending order, segment k holds the etas
    between the k-th and (k+1)-th largest loss, where the objective is
    c sqrt(q ((m - eta)^2 + v)) + eta, with c^2 = 2 delta + 1, q = k/n and
    m, v the mean and population variance of the top k. Where
    a = c^2 q - 1 > 0 it is stationary at m - sqrt(v / a), with value
    m + sqrt(a v); otherwise it is nondecreasing, and the segment's left end
    is its minimum.

    The dual is convex, so its slope at the left end of segment k,
    1 - c r_k with r_k = sqrt(q) (m - t) / sqrt((m - t)^2 + v) and t that
    end, is nonincreasing in k: r is nondecreasing and does not depend on
    delta. The minimizer lies on the first segment whose r reaches 1 / c,
    which one binary search finds per radius. That segment and its two
    neighbours, which absorb rounding in r, are solved in closed form and
    the least of their minima is the answer.

    At delta = 0 (or below the float resolution of 1) the ball holds only
    the empirical distribution, and the dual approaches the mean as
    eta -> -inf without attaining it. From delta = (n - 1) / 2 on, the ball
    holds the point mass on the largest loss, so the answer is that loss,
    attained at eta = max(l); it is returned as such, since c^2 overflows
    to inf near the largest floats.

    The losses are first scaled by the power of two that puts the largest
    in [0.5, 1), and the results scaled back, so that no square overflows
    however large the losses; the scaling is exact unless a loss falls
    below 2**-1022 times the largest. An eta at a segment's end is that
    loss itself, unscaled, so it stays exact even then.
    """
    _, e = np.frexp(np.max(losses))
    unscaled = np.sort(losses)[::-1]
    losses = np.ldexp(losses, -e)
    top = np.ldexp(unscaled, -e)
    n = top.size
    value = np.full(deltas.size, np.mean(losses))
    eta = np.full(deltas.size, -np.inf)
    with np.errstate(over="ignore"):
        c2 = 2.0 * deltas + 1.0
    wide = c2 != 1.0
    mass = wide & (deltas >= (n - 1) / 2)
    value[mass] = eta[mass] = top[0]
    live = np.flatnonzero(wide & ~mass)

    k = np.arange(1, n + 1)
    q = k / n
    # Sums of the losses minus the largest keep constant losses at a
    # variance of exactly 0.
    dev = top - top[0]
    dev_mean = np.cumsum(dev) / k
    m = top[0] + dev_mean
    v = np.maximum(np.cumsum(dev * dev) / k - dev_mean * dev_mean, 0.0)
    left = np.append(top[1:], -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = m - left
        r = np.sqrt(q) * gap / np.sqrt(gap * gap + v)
    # A gap of 0 means the top k + 1 losses are equal, where the dual has
    # slope 1 from the right; the last segment reaches eta = -inf.
    r[np.isnan(r)] = 0.0
    r[-1] = np.inf

    c2 = c2[live]
    first = np.searchsorted(r, 1.0 / np.sqrt(c2))
    # One row of candidate segments per radius: no array is D x n.
    seg = np.clip(first[:, None] + np.arange(-1, 2), 0, n - 1)
    c2 = c2[:, None]
    m, v, q = m[seg], v[seg], q[seg]
    a = c2 * q - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        free = np.where(a > 0.0, m - np.sqrt(v / a), -np.inf)
        at = np.clip(free, left[seg], top[seg])
        val = np.where(at == free, m + np.sqrt(a * v),
                       np.sqrt(c2 * q * ((m - at) ** 2 + v)) + at)
    at = np.where(at == top[seg], unscaled[seg],
                  np.where(at == left[seg], np.append(unscaled[1:], -np.inf)[seg],
                           np.ldexp(at, e)))
    best = np.argmin(val, axis=1)[:, None]
    value[live] = np.take_along_axis(val, best, axis=1)[:, 0]
    eta = np.ldexp(eta, e)
    eta[live] = np.take_along_axis(at, best, axis=1)[:, 0]
    return np.ldexp(value, e), eta


def worst_case_curve(losses: np.ndarray, deltas: Iterable[float]) -> list[tuple[float, float, float]]:
    """(delta, worst_case, eta_star) for each radius, in the order of ``deltas``.

    worst_case is the worst-case mean loss over the chi-square ball of radius
    delta, from the convex dual solved exactly, and lies in
    [mean(l), max(l)]. At delta = 0 it is mean(l) and eta_star is -inf,
    where the dual's infimum is approached. The rows are nondecreasing in
    worst_case when the radii are sorted. All radii share one sort of the
    losses and one set of prefix sums, and each row equals the curve for its
    radius alone.
    """
    losses = _check_losses(losses)
    deltas = check_deltas(deltas)
    value, eta = _dual_minima(losses, deltas)
    return list(zip(deltas.tolist(), value.tolist(), eta.tolist()))


def gamma_shift(full: ModelParams, subset: ModelParams) -> float:
    """Squared parameter shift ||theta_subset - theta_full||^2.

    Comparable across methods only when both fits used the same
    regularization strength, so differing reg_c is rejected.
    """
    if full.dim != subset.dim:
        raise ValueError(f"dimension mismatch: {full.dim} vs {subset.dim}")
    if full.reg_c != subset.reg_c:
        raise ValueError(f"models fitted with different reg_c: {full.reg_c} vs {subset.reg_c}")
    diff = subset.theta - full.theta
    return float(diff @ diff)


def cov_phi_eps(phi: np.ndarray, probs: np.ndarray) -> float:
    """Sample covariance between influence and the implied weight shifts.

    Probabilities map to weight shifts eps = (pi - 1)/n. A well-aimed
    sampling scheme gives this a nonpositive value: harmful (positive phi)
    samples get downweighted. Returns 0 for fewer than two samples.
    """
    phi = np.asarray(phi, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if phi.shape != probs.shape or phi.ndim != 1:
        raise ValueError("phi and probs must be flat vectors of equal length")
    n = phi.size
    if n < 2:
        return 0.0
    eps = (probs - 1.0) / n
    return float(np.sum((phi - phi.mean()) * (eps - eps.mean())) / (n - 1))


def write_worst_case_curve_csv(rows: Sequence[tuple[float, float, float]], path: str) -> None:
    """Emit ``delta,worst_case,eta_star`` rows."""
    write_table(path, ["delta", "worst_case", "eta_star"],
                np.array(rows, dtype=np.float64).reshape(-1, 3).T)
