"""Distributional-robustness diagnostics for subset-trained models.

The headline quantity is the worst-case empirical risk over reweightings of
the loss vector inside a chi-square ball of radius delta, computed through
its one-dimensional dual: minimize over eta of
sqrt(2 delta + 1) * sqrt(mean(relu(l - eta)^2)) + eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import _fmt
from .model import ModelParams

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0
# Below this slack over the mean-loss lower bound, extending the eta bracket
# further left cannot move the dual value by more than the search tolerance.
_BRACKET_SLACK = 1e-7


def _check_losses(losses: np.ndarray) -> np.ndarray:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses must be a nonempty flat vector")
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    return losses


def _dual_value(losses: np.ndarray, coeff: float, eta: float) -> float:
    tail = np.maximum(losses - eta, 0.0)
    return coeff * float(np.sqrt(np.mean(tail * tail))) + eta


def _dual_slope(losses: np.ndarray, coeff: float, eta: float) -> float:
    tail = np.maximum(losses - eta, 0.0)
    root = float(np.sqrt(np.mean(tail * tail)))
    if root == 0.0:
        return 1.0
    return 1.0 - coeff * float(np.mean(tail)) / root


def worst_case_risk(losses: np.ndarray, delta: float) -> tuple[float, float]:
    """Worst-case mean loss over a chi-square ball of radius delta.

    Returns (value, eta_star). The dual objective is convex in eta; it is
    minimized by golden-section search on [min(l) - 1, max(l)], extending
    the bracket left first whenever the slope at the left edge shows the
    minimizer is not yet enclosed (at delta = 0 the objective is
    nondecreasing and the infimum is approached in the far left tail, so
    extension stops once the value sits within 1e-7 of the mean-loss lower
    bound). The returned value always lies in [mean(l), max(l)] up to
    search tolerance.
    """
    losses = _check_losses(losses)
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    coeff = float(np.sqrt(2.0 * delta + 1.0))
    mean_loss = float(np.mean(losses))

    lo = float(np.min(losses)) - 1.0
    hi = float(np.max(losses))
    enclosed = _dual_slope(losses, coeff, lo) < 0.0
    for _ in range(200):
        if enclosed:
            break
        if _dual_value(losses, coeff, lo) - mean_loss <= _BRACKET_SLACK:
            # Left-tail regime (always at delta = 0): the objective keeps
            # creeping toward the mean-loss lower bound as eta -> -inf, so
            # report the edge instead of hunting an interior minimum.
            return _dual_value(losses, coeff, lo), lo
        lo = hi - 2.0 * (hi - lo)
        enclosed = _dual_slope(losses, coeff, lo) < 0.0

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = _dual_value(losses, coeff, c)
    fd = _dual_value(losses, coeff, d)
    # The iteration cap also ends the search if b - a stalls at the local
    # float spacing before reaching the absolute tolerance.
    for _ in range(300):
        if b - a <= 1e-9:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = _dual_value(losses, coeff, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = _dual_value(losses, coeff, d)
    eta_star = (a + b) / 2.0
    return _dual_value(losses, coeff, eta_star), eta_star


def worst_case_curve(losses: np.ndarray, deltas: Iterable[float]) -> list[tuple[float, float, float]]:
    """(delta, worst_case, eta_star) for each radius; nondecreasing in delta."""
    return [(float(d), *worst_case_risk(losses, float(d))) for d in deltas]


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


@dataclass(frozen=True)
class RobustnessReport:
    """Bundle of the diagnostics for one subset-trained model."""

    worst_case: float
    eta_star: float
    gamma: float
    cov_phi_eps: float


def evaluate_robustness(te_losses: np.ndarray, delta: float, full: ModelParams,
                        subset: ModelParams, phi: np.ndarray,
                        probs: np.ndarray) -> RobustnessReport:
    """Run all three diagnostics against one subset fit."""
    value, eta = worst_case_risk(te_losses, delta)
    return RobustnessReport(
        worst_case=value,
        eta_star=eta,
        gamma=gamma_shift(full, subset),
        cov_phi_eps=cov_phi_eps(phi, probs),
    )


def write_worst_case_curve_csv(rows: Sequence[tuple[float, float, float]], path: str) -> None:
    """Emit ``delta,worst_case,eta_star`` rows."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("delta,worst_case,eta_star\n")
            for delta, value, eta in rows:
                fh.write(f"{_fmt(delta)},{_fmt(value)},{_fmt(eta)}\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def write_gamma_csv(rows: Sequence[tuple[float, str, float]], path: str) -> None:
    """Emit ``ratio,method,gamma`` rows."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ratio,method,gamma\n")
            for ratio, method, gamma in rows:
                fh.write(f"{_fmt(ratio)},{method},{_fmt(gamma)}\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc
