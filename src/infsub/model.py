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
        if not self.reg_c >= 0.0:
            raise ModelError(f"reg_c must be nonnegative, got {self.reg_c}")
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def _feature_matrix(x: SparseDataset | sp.csr_array, dim: int) -> sp.csr_array:
    X = x.X if isinstance(x, SparseDataset) else x
    if X.shape[1] != dim:
        raise ModelError(f"feature dimension {X.shape[1]} does not match model dimension {dim}")
    return X


def _weights(ds: SparseDataset, sample_weight: np.ndarray | None) -> np.ndarray | None:
    if sample_weight is None:
        return None
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (ds.n_rows,):
        raise ModelError(f"sample_weight shape {w.shape} does not match {ds.n_rows} rows")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ModelError("sample_weight must be finite and nonnegative")
    return w


def _sigma(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """Unclipped sigmoid(X theta); gradients and curvature use this directly."""
    return expit(_feature_matrix(ds, params.dim) @ params.theta)


def predict_proba(params: ModelParams, x: SparseDataset | sp.csr_array) -> np.ndarray:
    """Per-row sigmoid(theta . x), clipped to [1e-12, 1 - 1e-12]."""
    X = _feature_matrix(x, params.dim)
    return np.clip(expit(X @ params.theta), PROB_CLIP, 1.0 - PROB_CLIP)


def per_sample_loss(params: ModelParams, ds: SparseDataset, regularized: bool = True) -> np.ndarray:
    """Log loss of each row, plus (C/2)||theta||^2 when ``regularized``."""
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    p = predict_proba(params, ds)
    y = ds.y
    losses = -(y * np.log(p) + (1 - y) * np.log1p(-p))
    if regularized:
        losses = losses + 0.5 * params.reg_c * float(params.theta @ params.theta)
    return losses


def risk(params: ModelParams, ds: SparseDataset, sample_weight: np.ndarray | None = None) -> float:
    """Weighted mean of the regularized per-sample losses (weights default to 1)."""
    losses = per_sample_loss(params, ds, regularized=False)
    w = _weights(ds, sample_weight)
    if w is None:
        base = float(np.mean(losses))
        wbar = 1.0
    else:
        base = float(np.mean(w * losses))
        wbar = float(np.mean(w))
    return base + 0.5 * params.reg_c * wbar * float(params.theta @ params.theta)


def mean_logloss(params: ModelParams, ds: SparseDataset) -> float:
    """Unregularized mean log loss; the reporting metric."""
    return float(np.mean(per_sample_loss(params, ds, regularized=False)))


def accuracy(params: ModelParams, ds: SparseDataset) -> float:
    """Fraction of rows classified correctly at threshold 0.5."""
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    p = predict_proba(params, ds)
    return float(np.mean((p >= 0.5) == (ds.y == 1)))


def gradient(params: ModelParams, ds: SparseDataset, sample_weight: np.ndarray | None = None) -> np.ndarray:
    """Gradient of ``risk`` at ``params``: (1/n) X^T (w (p - y)) + C wbar theta."""
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    resid = _sigma(params, ds) - ds.y
    w = _weights(ds, sample_weight)
    if w is None:
        wbar = 1.0
    else:
        resid = w * resid
        wbar = float(np.mean(w))
    return (ds.X.T @ resid) / ds.n_rows + params.reg_c * wbar * params.theta


@dataclass(frozen=True)
class Curvature:
    """The regularized Hessian at fixed (params, dataset, weights), as an operator.

    H = (1/n) X^T diag(s) X + c_wbar I, with s = w p(1-p) and c_wbar = C wbar
    fixed when the operator is built by ``curvature``. ``diag``, the exact
    diagonal, is computed on first use and kept. Negative entries of ``s``
    make H indefinite, which only hand-built instances do.
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


def curvature(params: ModelParams, ds: SparseDataset,
              sample_weight: np.ndarray | None = None) -> Curvature:
    """Build the Hessian operator of ``risk`` at ``params``; the sigmoid runs once here."""
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    X = _feature_matrix(ds, params.dim)
    p = _sigma(params, ds)
    s = p * (1.0 - p)
    w = _weights(ds, sample_weight)
    if w is None:
        wbar = 1.0
    else:
        s = w * s
        wbar = float(np.mean(w))
    return Curvature(X, s, params.reg_c * wbar)


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
    if not reg_c > 0.0:
        raise ModelError(f"reg_c must be positive for training, got {reg_c}")
    if not tol > 0.0:
        raise ModelError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ModelError(f"max_iter must be at least 1, got {max_iter}")
    w = _weights(ds, sample_weight)
    active = ds.y if w is None else ds.y[w > 0]
    if active.size == 0 or np.all(active == active[0]):
        raise ModelError("training data carries a single class")

    d = ds.n_features
    theta = np.zeros(d)
    inner_cap = min(max(2 * d, 20), 1000)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        params = ModelParams(theta, reg_c)
        g = gradient(params, ds, w)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return ModelParams(theta, reg_c, gnorm, n_iter - 1, True)
        step, _ = pcg(curvature(params, ds, w), -g, min(0.5, np.sqrt(gnorm)), inner_cap)
        f0 = risk(params, ds, w)
        slope = float(g @ step)
        t = 1.0
        for _ in range(60):
            if risk(ModelParams(theta + t * step, reg_c), ds, w) <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        theta = theta + t * step

    final = ModelParams(theta, reg_c)
    gnorm = float(np.linalg.norm(gradient(final, ds, w)))
    return ModelParams(theta, reg_c, gnorm, n_iter, gnorm <= tol)


def save_params(params: ModelParams, path: str) -> None:
    """Write ``d C`` then one ``index value`` line per nonzero weight."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{params.dim} {params.reg_c!r}\n")
            for k in np.flatnonzero(params.theta != 0.0):
                fh.write(f"{k} {float(params.theta[k])!r}\n")
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc}") from exc


def load_params(path: str) -> ModelParams:
    """Inverse of ``save_params``; weights round-trip exactly."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ModelError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 2:
        raise ModelError(f"{path}: bad header {lines[0]!r}")
    d = int(head[0])
    reg_c = float(head[1])
    theta = np.zeros(d)
    for ln in lines[1:]:
        k_s, _, v_s = ln.partition(" ")
        k = int(k_s)
        if not 0 <= k < d:
            raise ModelError(f"{path}: index {k} out of range for dimension {d}")
        theta[k] = float(v_s)
    return ModelParams(theta, reg_c)
