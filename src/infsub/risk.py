"""Distributional-robustness diagnostics for subset-trained models.

The headline quantity is the worst-case empirical risk over reweightings of
the loss vector inside a chi-square ball of radius delta, computed through
its one-dimensional dual: minimize over eta of
sqrt(2 delta + 1) * sqrt(mean(relu(l - eta)^2)) + eta (Namkoong & Duchi
2016), which a sweep over the sorted losses solves exactly.
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


def _dual_minimum(top: np.ndarray, mean_loss: float, delta: float) -> tuple[float, float]:
    """Exact minimum of the dual over eta, and the minimizer.

    ``top`` holds the losses sorted in descending order. For eta between the
    k-th and (k+1)-th largest loss the objective is
    c sqrt(q ((m - eta)^2 + v)) + eta, with c^2 = 2 delta + 1, q = k/n and
    m, v the mean and population variance of the top k losses. Where
    a = c^2 q - 1 > 0 it is stationary at m - sqrt(v / a), with value
    m + sqrt(a v); otherwise it is nondecreasing, and the segment's left end
    is its minimum. The answer is the least segment minimum. From
    delta = (n - 1) / 2 on, the ball holds the point mass on the largest
    loss, so the answer is that loss, attained at eta = max(l); it is
    returned as such, since c^2 overflows to inf near the largest floats.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    c2 = 2.0 * delta + 1.0
    if c2 == 1.0:
        # delta = 0 (or below the float resolution of 1): the ball holds only
        # the empirical distribution, and the dual approaches the mean as
        # eta -> -inf without attaining it.
        return mean_loss, -np.inf
    if delta >= (top.size - 1) / 2:
        return float(top[0]), float(top[0])
    k = np.arange(1, top.size + 1)
    q = k / top.size
    # Sums of the losses minus the largest keep constant losses at a
    # variance of exactly 0.
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
    best = int(np.argmin(value))
    return float(value[best]), float(eta[best])


def worst_case_risk(losses: np.ndarray, delta: float) -> tuple[float, float]:
    """Worst-case mean loss over a chi-square ball of radius delta.

    Returns (value, eta_star), solving the convex dual exactly by a sweep
    over the sorted losses. At delta = 0 the value is mean(l) and eta_star
    is -inf, where the dual's infimum is approached. The value lies in
    [mean(l), max(l)].
    """
    losses = _check_losses(losses)
    return _dual_minimum(np.sort(losses)[::-1], float(np.mean(losses)), delta)


def worst_case_curve(losses: np.ndarray, deltas: Iterable[float]) -> list[tuple[float, float, float]]:
    """(delta, worst_case, eta_star) for each radius; nondecreasing in delta.

    All radii share one sort, and each row equals ``worst_case_risk``.
    """
    losses = _check_losses(losses)
    top, mean_loss = np.sort(losses)[::-1], float(np.mean(losses))
    return [(float(d), *_dual_minimum(top, mean_loss, float(d))) for d in deltas]


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
