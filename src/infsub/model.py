"""L2-regularized binary logistic regression, Hessian-free.

The regularizer is folded into every per-sample loss: l_i(theta) equals the
log loss of sample i plus (C/2)||theta||^2, so the objective is their mean
and the per-sample gradients sum to zero at the optimum. C is the
coefficient of the (1/2)||theta||^2 term added to the mean log loss.
Curvature is a ``Curvature`` operator, applied only as Hessian-vector
products and inverted only by the one conjugate-gradient solver ``pcg``; the
Hessian is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import SparseDataset

PROB_CLIP = 1e-12
# PCG drops its preconditioner after this many iterations without a new best
# preconditioned residual.
STALL_LIMIT = 10
# Newton stops at this gradient norm, or after this many steps.
TRAIN_TOL = 1e-8
TRAIN_MAX_ITER = 100


class ModelError(ValueError):
    """Invalid model inputs (dimension mismatch, bad hyperparameters, ...)."""


@dataclass(frozen=True)
class ModelParams:
    """A weight vector with the regularization strength it was fitted under.

    ``grad_norm``, ``n_iter`` and ``converged`` describe the fit that
    produced the parameters; hand-built instances may leave them at their
    defaults.
    """

    theta: np.ndarray
    reg_c: float
    grad_norm: float = float("nan")
    n_iter: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1:
            raise ModelError("theta must be a flat vector")
        if not np.all(np.isfinite(theta)):
            raise ModelError("theta must be finite")
        if not 0.0 <= self.reg_c < np.inf:
            raise ModelError(f"reg_c must be finite and nonnegative, got {self.reg_c}")
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class Curvature:
    """The regularized Hessian at fixed (params, dataset, weights), as an operator.

    H = (1/n) X^T diag(s) X + c_wbar I, with s = w p(1-p) and c_wbar = C wbar
    fixed when the operator is built from the margins X theta. ``diag``, the
    exact diagonal, is computed on first use and kept. Negative entries of
    ``s`` make H indefinite, which only hand-built instances do.
    """

    X: sp.csr_array
    s: np.ndarray
    c_wbar: float

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @cached_property
    def diag(self) -> np.ndarray:
        return hessian_diag(self)


def _margins(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """z = X theta for a nonempty ``ds``: the one input of every loss and derivative."""
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    if ds.n_features != params.dim:
        raise ModelError(
            f"feature dimension {ds.n_features} does not match model dimension {params.dim}")
    return ds.X @ params.theta


def _weights(ds: SparseDataset, sample_weight: np.ndarray | None) -> np.ndarray:
    """Validated per-row weights; None means all ones, which changes no value."""
    if sample_weight is None:
        return np.ones(ds.n_rows)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (ds.n_rows,):
        raise ModelError(f"sample_weight shape {w.shape} does not match {ds.n_rows} rows")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ModelError("sample_weight must be finite and nonnegative")
    return w


def _log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row log loss at margins z, with probabilities clipped to [1e-12, 1 - 1e-12]."""
    p = np.clip(expit(z), PROB_CLIP, 1.0 - PROB_CLIP)
    return -(y * np.log(p) + (1 - y) * np.log1p(-p))


def _risk(params: ModelParams, ds: SparseDataset, z: np.ndarray, w: np.ndarray) -> float:
    """Weighted mean log loss at margins z = X theta, plus (C/2) wbar ||theta||^2."""
    return (float(np.mean(w * _log_loss(z, ds.y)))
            + 0.5 * params.reg_c * float(np.mean(w)) * float(params.theta @ params.theta))


def _derivatives(params: ModelParams, ds: SparseDataset, z: np.ndarray,
                 w: np.ndarray) -> tuple[np.ndarray, Curvature]:
    """Gradient and Hessian operator of ``_risk`` at margins z = X theta; one sigmoid."""
    p = expit(z)
    wbar = float(np.mean(w))
    g = (ds.X.T @ (w * (p - ds.y))) / ds.n_rows + params.reg_c * wbar * params.theta
    return g, Curvature(ds.X, w * (p * (1.0 - p)), params.reg_c * wbar)


def _sigma(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """Unclipped sigmoid(X theta), for the influence residuals p - y."""
    return expit(_margins(params, ds))


def predict_proba(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """Per-row sigmoid(theta . x), clipped to [1e-12, 1 - 1e-12]."""
    return np.clip(expit(_margins(params, ds)), PROB_CLIP, 1.0 - PROB_CLIP)


def per_sample_loss(params: ModelParams, ds: SparseDataset, regularized: bool = True) -> np.ndarray:
    """Log loss of each row, plus (C/2)||theta||^2 when ``regularized``."""
    losses = _log_loss(_margins(params, ds), ds.y)
    if regularized:
        losses = losses + 0.5 * params.reg_c * float(params.theta @ params.theta)
    return losses


def risk(params: ModelParams, ds: SparseDataset, sample_weight: np.ndarray | None = None) -> float:
    """Weighted mean of the regularized per-sample losses (weights default to 1)."""
    return _risk(params, ds, _margins(params, ds), _weights(ds, sample_weight))


def mean_logloss(params: ModelParams, ds: SparseDataset) -> float:
    """Unregularized mean log loss; the reporting metric."""
    return float(np.mean(per_sample_loss(params, ds, regularized=False)))


def accuracy(params: ModelParams, ds: SparseDataset) -> float:
    """Fraction of rows classified correctly at threshold 0.5."""
    p = predict_proba(params, ds)
    return float(np.mean((p >= 0.5) == (ds.y == 1)))


def gradient(params: ModelParams, ds: SparseDataset, sample_weight: np.ndarray | None = None) -> np.ndarray:
    """Gradient of ``risk`` at ``params``: (1/n) X^T (w (p - y)) + C wbar theta."""
    return _derivatives(params, ds, _margins(params, ds), _weights(ds, sample_weight))[0]


def curvature(params: ModelParams, ds: SparseDataset,
              sample_weight: np.ndarray | None = None) -> Curvature:
    """Build the Hessian operator of ``risk`` at ``params``; the sigmoid runs once here."""
    return _derivatives(params, ds, _margins(params, ds), _weights(ds, sample_weight))[1]


def hvp(H: Curvature, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product (1/n) X^T (s (X v)) + C wbar v.

    One forward and one transposed sparse matvec; the Hessian itself is never
    formed. With C > 0 and nonnegative weights, not all zero, the operator
    is positive definite.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (H.dim,):
        raise ModelError(f"vector shape {v.shape} does not match model dimension {H.dim}")
    return (H.X.T @ (H.s * (H.X @ v))) / H.X.shape[0] + H.c_wbar * v


def hessian_diag(H: Curvature) -> np.ndarray:
    """Exact diagonal of the regularized Hessian: (1/n) sum_i s_i x_ik^2 + C wbar.

    Entries for columns with no data reduce to the regularization constant.
    Prefer ``H.diag``, which computes this once per operator.
    """
    sq = H.X.multiply(H.X)
    return np.asarray(sq.T @ H.s) / H.X.shape[0] + H.c_wbar


@dataclass(frozen=True)
class PcgInfo:
    """Outcome of one solve: iterations, final residual norm, flags."""

    iters: int
    residual: float
    converged: bool
    restarted: bool = False


def pcg(H: Curvature, b: np.ndarray, tol: float, max_iter: int,
        mdiag: np.ndarray | None = None) -> tuple[np.ndarray, PcgInfo]:
    """Solve H x = b by conjugate gradient, preconditioned by 1/mdiag if given.

    Terminates when ||H x - b|| <= tol ||b||. If the preconditioned residual
    makes no progress for STALL_LIMIT iterations the preconditioner is
    dropped and the solve restarts as plain CG from the current iterate. On
    hitting max_iter, or on a direction with p.Hp <= 0 (H not positive
    definite), the best iterate seen is returned with converged False and
    the iterations actually done; callers decide whether that is fatal.
    Every product goes through ``hvp``.
    """
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(b), PcgInfo(0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    z = r / mdiag if mdiag is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    best_pre = rz
    best_res = bnorm
    x_best = x
    stall = 0
    restarted = False

    for k in range(1, max_iter + 1):
        q = hvp(H, p)
        pq = float(p @ q)
        if pq <= 0.0:
            return x_best, PcgInfo(k - 1, best_res, False, restarted)
        a = rz / pq
        x = x + a * p
        r = r - a * q
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res = res
            x_best = x
        if res <= tol * bnorm:
            return x, PcgInfo(k, res, True, restarted)

        z = r / mdiag if mdiag is not None else r
        rz_new = float(r @ z)
        if rz_new < best_pre:
            best_pre = rz_new
            stall = 0
        else:
            stall += 1
        if mdiag is not None and stall >= STALL_LIMIT:
            # Preconditioned residual is stuck; fall back to plain CG.
            mdiag = None
            restarted = True
            stall = 0
            z = r.copy()
            rz = float(r @ z)
            p = z.copy()
            best_pre = rz
            continue
        p = z + (rz_new / rz) * p
        rz = rz_new

    return x_best, PcgInfo(max_iter, best_res, False, restarted)


def train(ds: SparseDataset, reg_c: float, tol: float = TRAIN_TOL, max_iter: int = TRAIN_MAX_ITER,
          sample_weight: np.ndarray | None = None) -> ModelParams:
    """Fit by damped Newton from a zero start.

    Newton steps come from unpreconditioned ``pcg`` solves with forcing
    tolerance min(0.5, sqrt(||g||)); step sizes are backtracked under the
    Armijo condition (c1 = 1e-4, halving). Runs to gradient norm <= tol or
    max_iter steps; a non-converged fit is returned flagged, not raised.
    Deterministic for fixed inputs.
    """
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    if not 0.0 < reg_c < np.inf:
        raise ModelError(f"reg_c must be finite and positive for training, got {reg_c}")
    if not tol > 0.0:
        raise ModelError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ModelError(f"max_iter must be at least 1, got {max_iter}")
    w = _weights(ds, sample_weight)
    active = ds.y[w > 0]
    if active.size == 0 or np.all(active == active[0]):
        raise ModelError("training data carries a single class")

    params = ModelParams(np.zeros(ds.n_features), reg_c)
    z = ds.X @ params.theta
    f = _risk(params, ds, z, w)
    inner_cap = min(max(2 * params.dim, 20), 1000)
    for n_iter in range(max_iter + 1):
        g, H = _derivatives(params, ds, z, w)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol or n_iter == max_iter:
            return ModelParams(params.theta, reg_c, gnorm, n_iter, gnorm <= tol)
        step, _ = pcg(H, -g, min(0.5, np.sqrt(gnorm)), inner_cap)
        slope = float(g @ step)
        # The accepted trial's margins and risk carry over to the next step;
        # if all 60 halvings fail, the 2^-60 step is taken untested.
        t = 1.0
        for halvings in range(61):
            trial = ModelParams(params.theta + t * step, reg_c)
            z = ds.X @ trial.theta
            f_trial = _risk(trial, ds, z, w)
            if halvings == 60 or f_trial <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        params, f = trial, f_trial


def save_params(params: ModelParams, path: str) -> None:
    """Write ``d C`` then one ``index value`` line per nonzero weight."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{params.dim} {params.reg_c!r}\n")
            for k in np.flatnonzero(params.theta != 0.0):
                fh.write(f"{k} {float(params.theta[k])!r}\n")
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc}") from exc


def _int_float(path: str, no: int, line: str, what: str) -> tuple[int, float]:
    """The two fields ``int float`` of a header or weight line; the float must be finite."""
    try:
        k_s, v_s = line.split()
        k, v = int(k_s), float(v_s)
    except ValueError:
        k, v = 0, float("nan")
    if not np.isfinite(v):
        raise ModelError(f"{path}:{no}: bad {what} {line!r}")
    return k, v


def load_params(path: str) -> ModelParams:
    """Inverse of ``save_params``; weights round-trip exactly. Errors name the 1-based line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ModelError(f"{path}: empty model file")
    (no, head), *body = lines
    d, reg_c = _int_float(path, no, head, "header")
    if d < 0:
        raise ModelError(f"{path}:{no}: negative dimension {d}")
    theta = np.zeros(d)
    seen: set[int] = set()
    for no, ln in body:
        k, theta_k = _int_float(path, no, ln, "weight line")
        if not 0 <= k < d:
            raise ModelError(f"{path}:{no}: index {k} out of range for dimension {d}")
        if k in seen:
            raise ModelError(f"{path}:{no}: duplicate index {k}")
        seen.add(k)
        theta[k] = theta_k
    return ModelParams(theta, reg_c)
