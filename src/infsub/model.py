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

    ``v`` is a vector of shape (d,) or a block of column vectors, shape
    (d, k). One forward and one transposed sparse product; the Hessian
    itself is never formed. With C > 0 and nonnegative weights, not all
    zero, the operator is positive definite.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != H.dim:
        raise ModelError(f"vector shape {v.shape} does not match model dimension {H.dim}")
    s = H.s if v.ndim == 1 else H.s[:, None]
    return (H.X.T @ (s * (H.X @ v))) / H.X.shape[0] + H.c_wbar * v


def hessian_diag(H: Curvature) -> np.ndarray:
    """Exact diagonal of the regularized Hessian: (1/n) sum_i s_i x_ik^2 + C wbar.

    Entries for columns with no data reduce to the regularization constant.
    Prefer ``H.diag``, which computes this once per operator.
    """
    sq = H.X.multiply(H.X)
    return np.asarray(sq.T @ H.s) / H.X.shape[0] + H.c_wbar


@dataclass(frozen=True)
class PcgInfo:
    """How a solve ended: iterations, the returned iterate's residual norm, converged.

    For a block of right-hand sides ``residual`` and ``converged`` hold one
    entry per column, and ``iters`` counts the iterations of the block's
    longest-running column. ``restarted`` is always False: the solver never
    drops its preconditioner, and the field stays only because the
    benchmark's tracer still reads it.
    """

    iters: int
    residual: float | np.ndarray
    converged: bool | np.ndarray
    restarted: bool = False


def _dot(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """a . b for vectors; the column-wise products a_j . b_j for (d, k) blocks."""
    return float(a @ b) if a.ndim == 1 else np.einsum("ij,ij->j", a, b)


def _norm(a: np.ndarray) -> float | np.ndarray:
    """||a|| for a vector; the norm of each column for a (d, k) block."""
    return float(np.linalg.norm(a)) if a.ndim == 1 else np.linalg.norm(a, axis=0)


def pcg(H: Curvature, b: np.ndarray, tol: float, max_iter: int,
        mdiag: np.ndarray | None = None) -> tuple[np.ndarray, PcgInfo]:
    """Solve H x = b by conjugate gradient, preconditioned by 1/mdiag if given.

    ``b`` is one right-hand side of shape (d,) or a block of k of them, shape
    (d, k): a block runs k independent solves in lockstep, each column with
    its own step sizes and stopping rule. A column stops once
    ||H x - b|| <= tol ||b|| and then leaves the block, so later products
    cover only the columns still running. On hitting max_iter, or on a
    direction with p.Hp <= 0 (H not positive definite), a column stops with
    its last iterate and that iterate's residual, flagged not converged,
    after the iterations it actually did; callers decide whether that is
    fatal. CG's last iterate already has the least H-norm error over the
    Krylov space it searched. Every product goes through ``hvp``.
    """
    block = b.ndim == 2
    bnorm = _norm(b)
    if block:
        if mdiag is not None:
            mdiag = mdiag[:, None]
        # Each column's outcome, filled in as it stops; zero columns stop at once.
        sol = np.zeros_like(b)
        residual = np.zeros_like(bnorm)
        converged = bnorm == 0.0
        cols = np.flatnonzero(~converged)
        if cols.size == 0:
            return sol, PcgInfo(0, residual, converged)
        b, bnorm = b[:, cols], bnorm[cols]
        n_iter = 0
    elif bnorm == 0.0:
        return np.zeros_like(b), PcgInfo(0, 0.0, True)

    x = np.zeros_like(b)
    r = b.copy()
    z = r / mdiag if mdiag is not None else r.copy()
    p = z.copy()
    rz = _dot(r, z)
    res = bnorm

    for k in range(1, max_iter + 1):
        q = hvp(H, p)
        pq = _dot(p, q)
        if not block and pq <= 0.0:
            return x, PcgInfo(k - 1, res, False)
        # A block column whose direction breaks down takes no step and stops below.
        broke = pq <= 0.0
        a = np.divide(rz, pq, out=np.zeros_like(pq), where=~broke) if block else rz / pq
        x = x + a * p
        r = r - a * q
        res = _norm(r)
        done = res <= tol * bnorm
        if not block and done:
            return x, PcgInfo(k, res, True)
        if block and np.any(stop := done | broke):
            j = cols[stop]
            sol[:, j], residual[j], converged[j] = x[:, stop], res[stop], done[stop]
            n_iter = max(n_iter, k if np.any(done) else k - 1)
            keep = ~stop
            x, r, p = (v[:, keep] for v in (x, r, p))
            rz, bnorm, res, cols = (v[keep] for v in (rz, bnorm, res, cols))
            if cols.size == 0:
                break

        z = r / mdiag if mdiag is not None else r
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    if not block:
        return x, PcgInfo(max_iter, res, False)
    if cols.size:
        sol[:, cols], residual[cols], n_iter = x, res, max_iter
    return sol, PcgInfo(n_iter, residual, converged)


def check_train_settings(reg_c: float, tol: float, max_iter: int) -> None:
    """Refuse the ``train`` settings no fit can run with, before any data is read."""
    if not 0.0 < reg_c < np.inf:
        raise ModelError(f"reg_c must be finite and positive for training, got {reg_c}")
    if not 0.0 < tol < np.inf:
        raise ModelError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ModelError(f"max_iter must be at least 1, got {max_iter}")


def train(ds: SparseDataset, reg_c: float, tol: float = TRAIN_TOL, max_iter: int = TRAIN_MAX_ITER,
          sample_weight: np.ndarray | None = None) -> ModelParams:
    """Fit by damped Newton from a zero start.

    Newton steps come from unpreconditioned ``pcg`` solves with forcing
    tolerance min(0.5, sqrt(||g||)); step sizes are backtracked under the
    Armijo condition (c1 = 1e-4, halving). Runs to gradient norm <= tol or
    max_iter steps; a non-converged fit is returned flagged, not raised.
    Deterministic for fixed inputs.
    """
    check_train_settings(reg_c, tol, max_iter)
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
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
