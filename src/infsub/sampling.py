"""Influence-to-probability maps and stratified subset draws.

Each map turns per-sample influence (or parameter-influence norms) into
weights or acceptance probabilities; ``draw_subset`` then realizes an exact
target size per class. For probabilities pi_i, the bridge to sample
reweighting eps_i = (pi_i - 1)/n keeps eps in [-1/n, 0]: pi = 1 leaves a
sample untouched, pi = 0 removes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .data import SparseDataset, read_table, round_half_up, write_table
from .model import ModelParams

# Each method, and the score its probabilities read (``probs_for``):
# the influence scores phi, the psi norms, or none.
METHODS = {"dropout": "phi", "linear": "phi", "sigmoid": "phi", "optlr": "psi", "random": None}
# Least optlr acceptance probability.
OPTLR_FLOOR = 0.01


class SamplingError(ValueError):
    """Invalid sampling inputs (bad method, ratio, probabilities, ...)."""


def _finite_vector(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise SamplingError(f"{name} must be a nonempty flat vector")
    if not np.all(np.isfinite(x)):
        raise SamplingError(f"{name} must be finite")
    return x


def check_alpha(alpha: float) -> None:
    """Refuse a linear or sigmoid scale that is not positive and finite.

    An infinite alpha times a zero phi would make that row's probability NaN.
    """
    if not 0.0 < alpha < np.inf:
        raise SamplingError(f"alpha must be positive and finite, got {alpha}")


def check_ratio(ratio: float) -> None:
    """Refuse a target ratio |subset|/|Tr| outside (0, 1]."""
    if not 0.0 < ratio <= 1.0:
        raise SamplingError(f"target_ratio must be in (0, 1], got {ratio}")


def check_seed(seed: int) -> None:
    """Refuse a negative draw seed."""
    if seed < 0:
        raise SamplingError(f"seed must be nonnegative, got {seed}")


def dropout_probs(phi: np.ndarray) -> np.ndarray:
    """Keep-with-certainty for helpful or neutral samples: pi = 1 iff phi <= 0."""
    phi = _finite_vector(phi, "phi")
    return (phi <= 0.0).astype(np.float64)


def linear_probs(phi: np.ndarray, alpha: float | None = None) -> np.ndarray:
    """pi = clamp(-alpha phi, 0, 1); alpha defaults to 1/max|phi|.

    The default puts the most helpful sample exactly at pi = 1. A zero
    influence vector has no usable scale and is rejected.
    """
    phi = _finite_vector(phi, "phi")
    if alpha is None:
        scale = float(np.max(np.abs(phi)))
        if scale == 0.0:
            raise SamplingError("all-zero influence; pass an explicit alpha")
        alpha = 1.0 / scale
        if np.isinf(alpha):
            # 1/scale overflows for the smallest subnormal scales, and inf * 0
            # would be NaN; dividing gives the same clamp without it.
            return np.clip(-phi / scale, 0.0, 1.0)
    check_alpha(alpha)
    return np.clip(-alpha * phi, 0.0, 1.0)


def sigmoid_probs(phi: np.ndarray, alpha: float) -> np.ndarray:
    """pi = 1 / (1 + exp(alpha phi / range)) with range = max(phi) - min(phi).

    Range normalization makes alpha transferable across datasets; a constant
    influence vector is rejected since it carries no ranking signal.
    """
    phi = _finite_vector(phi, "phi")
    check_alpha(alpha)
    spread = float(np.max(phi) - np.min(phi))
    if spread == 0.0:
        raise SamplingError("constant influence vector; sigmoid weights are undefined")
    return model._sigmoid(-alpha * phi / spread)


def optlr_probs(psi: np.ndarray) -> np.ndarray:
    """pi = max(OPTLR_FLOOR, min(1, ||psi|| / max||psi||)), from the norms ``psi``.

    The largest norm lands at pi = 1. The floor keeps every acceptance
    probability positive so the inverse weights 1/pi stay bounded. All-zero
    norms carry no scale and are rejected.
    """
    psi = _finite_vector(psi, "psi")
    if np.any(psi < 0):
        raise SamplingError("psi must be nonnegative")
    top = float(np.max(psi))
    if top == 0.0:
        raise SamplingError("all-zero psi norms; optlr has no scale")
    return np.clip((1.0 / top) * psi, OPTLR_FLOOR, 1.0)


def random_probs(n: int, target_ratio: float) -> np.ndarray:
    """Uniform baseline: every sample at pi = target_ratio."""
    if n < 1:
        raise SamplingError("n must be at least 1")
    check_ratio(target_ratio)
    return np.full(n, target_ratio)


def probs_for(method: str, ratio: float, phi: np.ndarray | None = None,
              psi: np.ndarray | None = None, alpha: float | None = None,
              n: int | None = None) -> np.ndarray:
    """Acceptance probabilities for ``method``, the one map from a method name.

    ``METHODS`` names the score each method reads; random needs only the
    row count ``n`` (default: the length of ``phi``) and ``ratio``.
    ``alpha`` None means 1/max|phi| for linear and 1.0 for sigmoid; the
    other methods read no alpha and reject one rather than record a value
    the draw never used.
    """
    if alpha is not None and method not in ("linear", "sigmoid"):
        raise SamplingError(f"{method} reads no alpha; only linear and sigmoid do")
    if method == "random":
        return random_probs(len(phi) if n is None else n, ratio)
    if method == "optlr":
        if psi is None:
            raise SamplingError("optlr needs psi norms; rerun `influence` with --psi")
        return optlr_probs(psi)
    if method == "dropout":
        return dropout_probs(phi)
    if method == "linear":
        return linear_probs(phi, alpha)
    if method == "sigmoid":
        return sigmoid_probs(phi, 1.0 if alpha is None else alpha)
    raise SamplingError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SamplingPlan:
    """A realized draw: probabilities, the selected row indices, and the
    metadata needed to reproduce it."""

    method: str
    probs: np.ndarray
    selected: np.ndarray
    target_ratio: float
    seed: int
    alpha: float = float("nan")

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise SamplingError(f"unknown method {self.method!r}")
        probs = _finite_vector(self.probs, "probs")
        if np.any(probs < 0) or np.any(probs > 1):
            raise SamplingError("probs must lie in [0, 1]")
        selected = np.asarray(self.selected, dtype=np.int64)
        if selected.size and (np.any(np.diff(selected) <= 0)
                              or selected[0] < 0 or selected[-1] >= probs.size):
            raise SamplingError("selected must be strictly increasing valid row indices")
        check_ratio(self.target_ratio)
        check_seed(self.seed)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "selected", selected)


def draw_subset(probs: np.ndarray, target_ratio: float, labels: np.ndarray,
                method: str, seed: int, phi: np.ndarray | None = None,
                alpha: float = float("nan")) -> SamplingPlan:
    """Draw an exact-size subset whose per-class counts track the full set.

    Each class contributes round-half-up(target_ratio * class size) rows.
    Dropout is deterministic and needs ``phi``: rows ranked by ascending phi
    (ties broken by row index), most helpful first. The other methods draw
    rows without replacement with chance proportional to their probability;
    rows at pi = 0 become eligible, uniformly, only once every
    positive-probability row of the class is in.
    """
    # The plan checks the method, probabilities and ratio once; the draw then
    # fills in its selection, valid by construction (sorted, distinct rows).
    plan = SamplingPlan(method=method, probs=probs, selected=np.empty(0, dtype=np.int64),
                        target_ratio=target_ratio, seed=seed, alpha=alpha)
    probs = plan.probs
    labels = np.asarray(labels)
    if labels.shape != probs.shape:
        raise SamplingError(f"{labels.shape[0]} labels for {probs.shape[0]} probabilities")
    if method == "dropout" and phi is None:
        raise SamplingError("dropout ranks rows by phi; pass the influence scores")
    if phi is not None:
        phi = _finite_vector(phi, "phi")
        if phi.shape != probs.shape:
            raise SamplingError("phi length must match probs")

    rng = np.random.default_rng(seed)
    picked: list[np.ndarray] = []
    for label in np.unique(labels):
        cls = np.flatnonzero(labels == label)
        quota = round_half_up(target_ratio * cls.size)
        if quota == 0:
            continue
        if method == "dropout":
            order = np.lexsort((cls, phi[cls]))
            picked.append(cls[order[:quota]])
            continue
        w = probs[cls]
        pos = np.flatnonzero(w > 0)
        if quota <= pos.size:
            # Weighted draw without replacement: the quota smallest
            # exponential race times Exp(1)/w win, ties broken by row index.
            keys = rng.exponential(size=pos.size) / w[pos]
            order = np.lexsort((cls[pos], keys))
            picked.append(cls[pos[order[:quota]]])
        else:
            # pos.size < quota <= cls.size, so the rows at pi = 0 always
            # hold the quota - pos.size still missing.
            zero = np.flatnonzero(w == 0)
            fill = rng.permutation(zero.size)[:quota - pos.size]
            picked.append(np.concatenate([cls[pos], cls[zero[fill]]]))

    if picked:
        object.__setattr__(plan, "selected", np.sort(np.concatenate(picked)))
    return plan


def subset_risk_weighted(params: ModelParams, ds: SparseDataset,
                         selected: np.ndarray, probs: np.ndarray) -> float:
    """Inverse-probability risk estimate (1/n) sum_{i in subset} l_i / pi_i.

    n is the full dataset size, so over the randomness of the draw the
    estimate is unbiased for the full-set risk. Every selected row must have
    pi > 0.
    """
    probs = _finite_vector(probs, "probs")
    if probs.size != ds.n_rows:
        raise SamplingError(f"{probs.size} probabilities for {ds.n_rows} rows")
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size == 0:
        raise SamplingError("empty subset")
    if np.any(selected < 0) or np.any(selected >= ds.n_rows):
        raise SamplingError("selected indices out of range")
    pi = probs[selected]
    if np.any(pi <= 0):
        raise SamplingError("selected rows must have positive probability")
    losses = model.per_sample_loss(params, ds, regularized=True)[selected]
    return float(np.sum(losses / pi) / ds.n_rows)


def write_plan_csv(plan: SamplingPlan, path: str) -> None:
    """Emit ``index,prob,selected`` rows under a metadata comment line."""
    chosen = np.zeros(plan.probs.size, dtype=np.int64)
    chosen[plan.selected] = 1
    write_table(path, ["index", "prob", "selected"], [range(plan.probs.size), plan.probs, chosen],
                comment=f"method={plan.method} alpha={float(plan.alpha)!r} "
                        f"seed={plan.seed} ratio={float(plan.target_ratio)!r}")


def read_plan_csv(path: str) -> SamplingPlan:
    """Read a plan written by ``write_plan_csv``; a malformed file, or a
    metadata comment without all four of its keys, raises SamplingError
    naming it."""
    try:
        comment, header, columns = read_table(path)
    except ValueError as exc:
        raise SamplingError(str(exc)) from None
    if comment is None:
        raise SamplingError(f"{path}: missing metadata comment")
    if header != ["index", "prob", "selected"]:
        raise SamplingError(f"{path}: unexpected header {','.join(header)!r}")
    meta = dict(tok.partition("=")[::2] for tok in comment.split())
    missing = [key for key in ("method", "alpha", "seed", "ratio") if key not in meta]
    if missing:
        raise SamplingError(f"{path}: metadata comment lacks {', '.join(missing)}")
    _, probs, flags = columns
    bad = next((f for f in flags if f not in ("0", "1")), None)
    if bad is not None:
        raise SamplingError(f"{path}: selected flag must be 0 or 1, got {bad!r}")
    try:
        return SamplingPlan(
            method=meta["method"],
            probs=np.array(probs, dtype=np.float64),
            selected=np.flatnonzero(np.array(flags, dtype=str) == "1"),
            target_ratio=float(meta["ratio"]),
            seed=int(meta["seed"]),
            alpha=float(meta["alpha"]),
        )
    except ValueError as exc:   # a malformed number, or a plan SamplingPlan refuses
        raise SamplingError(f"{path}: {exc}") from None
