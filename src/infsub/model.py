"""L2-regularized binary logistic regression, Hessian-free.

The regularizer is folded into every per-sample loss: l_i(theta) equals the
log loss of sample i plus (C/2)||theta||^2, so the objective is their mean
and the per-sample gradients sum to zero at the optimum. C is the
coefficient of the (1/2)||theta||^2 term added to the mean log loss.
Curvature is a ``Curvature`` operator, applied only as Hessian-vector
products and inverted only by the one conjugate-gradient solver ``pcg``; the
Hessian is never materialized.

Every probability is the one ``_sigmoid``, 1 / (1 + exp(-z)) in numpy.
exp(-z) overflows to inf for z below -709.78, where the quotient is the
exact limit 0, so that overflow is not reported; z = +inf gives exactly 1,
z = 0 exactly 0.5. It agrees with scipy's ``expit`` within 2 ulp, and
bit for bit on most inputs: numpy's vectorized exp and the C library's
round apart on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .data import SparseDataset, read_lines, write_lines

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
        # A Python float, so that save_params writes it as a plain number.
        object.__setattr__(self, "reg_c", float(self.reg_c))

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class Curvature:
    """The regularized Hessian at fixed (params, dataset, weights), as an operator.

    H = (1/n) X^T diag(s) X + c_wbar I, with s = w p(1-p) and c_wbar = C wbar
    fixed when the operator is built from the margins X theta. A block of k
    fits carries one operator per column: ``s`` of shape (n, k) and
    ``c_wbar`` of shape (k,), applied column by column to (d, k) blocks.
    ``XT``, the transposed view of X, is built once and handed on to every
    operator of a fit. ``diag``, the exact diagonal ((d, k) for a block of
    operators), is computed on first use and kept. Negative entries of ``s``
    make H indefinite, which only hand-built instances do.
    """

    X: sp.csr_array
    s: np.ndarray
    c_wbar: float | np.ndarray
    XT: sp.csc_array | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.XT is None:
            object.__setattr__(self, "XT", self.X.T)

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @cached_property
    def diag(self) -> np.ndarray:
        return hessian_diag(self)

    def columns(self, keep: np.ndarray) -> Curvature:
        """The operators of the columns selected by ``keep``; a single operator is shared."""
        if self.s.ndim == 1:
            return self
        return Curvature(self.X, self.s[:, keep], self.c_wbar[keep], self.XT)


def _margins(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """z = X theta for a nonempty ``ds``: the one input of every loss and derivative."""
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    if ds.n_features != params.dim:
        raise ModelError(
            f"feature dimension {ds.n_features} does not match model dimension {params.dim}")
    return ds.X @ params.theta


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b for vectors, column-wise a_j . b_j for (d, k) blocks.

    A block must be column-contiguous (order F), as every block of the fit
    and solve loops is kept: each column then goes to BLAS ddot with unit
    stride and rounds as ``a_j @ b_j`` does on its own, whatever the block's
    width and the column's place in it. A row-major block would hand ddot
    stride k, which rounds differently.
    """
    return np.vecdot(a, b, axis=0)


def _over_n(prod: np.ndarray, n: int) -> np.ndarray:
    """prod / n, written column by column (order F) for ``_dot``: a sparse
    product of a block comes back row by row."""
    return np.divide(prod, n, out=np.empty(prod.shape, order="F"))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), elementwise; exp's overflow to inf gives the exact limit 0.

    ``np.errstate`` is local to the thread (numpy >= 2.0), so block threads
    that run this at once do not share the setting.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row log loss at margins z, with probabilities clipped to [1e-12, 1 - 1e-12].

    Each entry takes the one log its 0/1 label picks, -log(p) or
    -log1p(-p): bit for bit -(y log(p) + (1 - y) log1p(-p)), whose other
    term is always 0 times a finite log. The result has the layout of z.
    """
    p = np.clip(_sigmoid(z), PROB_CLIP, 1.0 - PROB_CLIP)
    pos = y == 1
    loss = np.log(p, out=np.empty_like(p), where=pos)
    np.log1p(-p, out=loss, where=~pos)
    return np.negative(loss, out=loss)


# The loss and derivative kernels below take one fit (theta (d,), margins (n,),
# weights (n,) or 1, labels (n,), wbar a float) or a block of k fits (theta (d, k),
# margins and weights (n, k), labels (n, 1), wbar (k,)). A block column sums
# in the order its one-fit call does, and the (d, k) arrays are column-
# contiguous (``_dot``), so each column rounds bit for bit as its own fit.

def _objective(theta: np.ndarray, z: np.ndarray, w: float | np.ndarray, wbar: float | np.ndarray,
               y: np.ndarray, reg_c: float) -> float | np.ndarray:
    """Weighted mean log loss at margins z = X theta, plus (C/2) wbar ||theta||^2.

    The weighted losses are laid out column by column (order F), so numpy
    sums each column pairwise, as it sums a vector. Summed row by row, a
    block's risks carried tens of ulp of error, and near the optimum, where
    the Armijo test compares risks a few ulp apart, a column could then
    reject every halving and stall short of its tolerance.
    """
    return (np.mean(np.multiply(w, _log_loss(z, y), order="F"), axis=0)
            + 0.5 * reg_c * wbar * _dot(theta, theta))


def _derivatives(theta: np.ndarray, z: np.ndarray, w: float | np.ndarray,
                 wbar: float | np.ndarray, y: np.ndarray, reg_c: float, X: sp.csr_array,
                 XT: sp.csc_array) -> tuple[np.ndarray, Curvature]:
    """Gradient and Hessian operator of ``_objective`` at margins z; one sigmoid."""
    p = _sigmoid(z)
    # Row by row (order C), the layout scipy's sparse product reads without a copy.
    g = _over_n(XT @ np.multiply(w, p - y, order="C"), X.shape[0])
    g += reg_c * wbar * theta
    return g, Curvature(X, w * (p * (1.0 - p)), reg_c * wbar, XT)


def _at(params: ModelParams, ds: SparseDataset):
    """The kernel arguments of the unweighted objective at ``params``: theta, z, 1, 1, y, C."""
    return params.theta, _margins(params, ds), 1.0, 1.0, ds.y, params.reg_c


def _sigma(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """Unclipped sigmoid(X theta), for the influence residuals p - y."""
    return _sigmoid(_margins(params, ds))


def predict_proba(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """Per-row sigmoid(theta . x), clipped to [1e-12, 1 - 1e-12]."""
    return np.clip(_sigmoid(_margins(params, ds)), PROB_CLIP, 1.0 - PROB_CLIP)


def per_sample_loss(params: ModelParams, ds: SparseDataset, regularized: bool = True) -> np.ndarray:
    """Log loss of each row, plus (C/2)||theta||^2 when ``regularized``."""
    losses = _log_loss(_margins(params, ds), ds.y)
    if regularized:
        losses = losses + 0.5 * params.reg_c * float(params.theta @ params.theta)
    return losses


def risk(params: ModelParams, ds: SparseDataset) -> float:
    """Mean of the regularized per-sample losses over every row of ``ds``."""
    return float(_objective(*_at(params, ds)))


def mean_logloss(params: ModelParams, ds: SparseDataset) -> float:
    """Unregularized mean log loss; the reporting metric."""
    return float(np.mean(per_sample_loss(params, ds, regularized=False)))


def accuracy(params: ModelParams, ds: SparseDataset) -> float:
    """Fraction of rows classified correctly at threshold 0.5."""
    p = predict_proba(params, ds)
    return float(np.mean((p >= 0.5) == (ds.y == 1)))


def score_columns(Theta: np.ndarray, ds: SparseDataset) -> tuple[list[float], list[float]]:
    """Mean log loss and accuracy of each column of Theta (d, k) on ``ds``, as floats.

    One product X @ Theta gives every column's margins, kept column by column
    (order F), so each column's mean sums pairwise as a vector's does, and
    accuracy reads the same margins; each entry is then bit for bit
    ``mean_logloss`` or ``accuracy`` of that column alone. An empty ``ds``
    scores NaN.
    """
    if ds.n_rows == 0:
        return [float("nan")] * Theta.shape[1], [float("nan")] * Theta.shape[1]
    z = np.asfortranarray(ds.X @ Theta)
    y = ds.y[:, None]
    return (np.mean(_log_loss(z, y), axis=0).tolist(),
            np.mean((_sigmoid(z) >= 0.5) == (y == 1), axis=0).tolist())


def gradient(params: ModelParams, ds: SparseDataset) -> np.ndarray:
    """Gradient of ``risk`` at ``params``: (1/n) X^T (p - y) + C theta."""
    return _derivatives(*_at(params, ds), ds.X, ds.X.T)[0]


def curvature(params: ModelParams, ds: SparseDataset) -> Curvature:
    """Build the Hessian operator of ``risk`` at ``params``; the sigmoid runs once here."""
    return _derivatives(*_at(params, ds), ds.X, ds.X.T)[1]


def hvp(H: Curvature, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product (1/n) X^T (s (X v)) + C wbar v.

    ``v`` is a vector of shape (d,) or a block of column vectors, shape
    (d, k); a block of operators (``s`` of shape (n, k)) takes a (d, k)
    block only, column j through operator j. One forward and one transposed
    sparse product; the Hessian itself is never formed. A block comes back
    column-contiguous (``_dot``), and each column is bit for bit the product
    of that column alone. With C > 0 and nonnegative weights, not all zero,
    the operator is positive definite.
    """
    v = np.asarray(v, dtype=np.float64)
    if (v.ndim not in (1, 2) or v.shape[0] != H.dim
            or (H.s.ndim == 2 and v.shape[1:] != H.s.shape[1:])):
        raise ModelError(f"vector shape {v.shape} does not match model dimension {H.dim}")
    u = H.X @ v
    u *= H.s[:, None] if v.ndim > H.s.ndim else H.s
    out = H.XT @ u
    del u  # freed before the quotient and C wbar v are formed, which lowers a block's peak
    out = _over_n(out, H.X.shape[0])
    out += H.c_wbar * v
    return out


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

    ``residual`` is the norm of CG's recursively updated residual r, the
    quantity the stopping rule reads; it tracks ||b - H x|| but is not
    recomputed from it, and the two part in the last digits near a tight
    tolerance. For a block of right-hand sides ``residual`` and
    ``converged`` hold one entry per column, and ``iters`` counts the
    iterations of the block's longest-running column. ``restarted`` is always
    False: the solver never drops its preconditioner, and the field stays
    only because the benchmark's tracer still reads it.
    """

    iters: int
    residual: float | np.ndarray
    converged: bool | np.ndarray
    restarted: bool = False


def pcg(H: Curvature, b: np.ndarray, tol: float | np.ndarray, max_iter: int,
        mdiag: np.ndarray | None = None) -> tuple[np.ndarray, PcgInfo]:
    """Solve H x = b by conjugate gradient, preconditioned by 1/mdiag if given.

    ``b`` is one right-hand side of shape (d,) or a block of k of them, shape
    (d, k): a block runs k independent solves in lockstep, each column with
    its own step sizes and stopping rule, and a vector runs as a block of
    one. The block is kept column-contiguous (``_dot``), so each column's
    iterates, iteration count and result are bit for bit those of its solve
    on its own, whatever the other columns are and whenever they stop.
    ``mdiag``, the preconditioner's diagonal, has shape (d,) and serves
    every column.
    ``tol`` is one relative tolerance or one per column. The loop has one
    stop step, at the top of each of its max_iter + 1 passes, as
    ``fit_columns`` has. After k iterations it retires each column whose
    recursively updated residual r (the residual CG carries along, not a
    fresh b - H x) has ||r|| <= tol ||b||, converged (a zero b at k = 0);
    flagged not converged, each column whose last direction had p.Hp <= 0
    (H not positive definite), which took no step and so counts k - 1
    iterations; and at k = max_iter every column left, flagged too. Each
    keeps its last iterate and that iterate's residual, and later products
    cover only the columns still running, through their own operators
    where H is a block of them. Callers decide whether a flagged column is
    fatal. CG's last iterate already has the least H-norm error over the
    Krylov space it searched. A tol of 1 or more is met by the zero start,
    so such a column returns x = 0, converged, after 0 iterations; no
    caller passes one (Newton's forcing term is at most 0.5, and
    ``influence.PcgConfig`` refuses it). Every product goes through ``hvp``.
    """
    vector = b.ndim == 1
    # Column-contiguous blocks (``_dot``); a vector becomes a block of one.
    b = np.asfortranarray(b[:, None] if vector else b)
    if mdiag is not None:
        mdiag = mdiag[:, None]
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), b.shape[1:])
    bnorm = np.sqrt(_dot(b, b))
    # Each column's outcome, filled in as it stops.
    sol = np.zeros_like(b)
    residual = np.zeros_like(bnorm)
    converged = np.zeros(bnorm.shape, dtype=bool)
    # The state of the columns still running, which ``cols`` names.
    cols = np.arange(b.shape[1])
    x = np.zeros_like(b)
    r = np.copy(b)
    z = r / mdiag if mdiag is not None else r
    p = np.copy(z)
    rz = _dot(r, z)
    res = bnorm
    broke = np.zeros_like(converged)
    n_iter = 0
    for k in range(max_iter + 1):
        done = res <= tol * bnorm
        if np.any(stop := done | broke | (k == max_iter)):
            j = cols[stop]
            sol[:, j], residual[j], converged[j] = x[:, stop], res[stop], done[stop]
            n_iter = max(n_iter, k - 1 if np.all(broke[stop]) else k)
            keep = ~stop
            cols, rz, res, bnorm, tol = cols[keep], rz[keep], res[keep], bnorm[keep], tol[keep]
            # One block at a time, so each old copy is freed before the next is made.
            x = x[:, keep]
            r = r[:, keep]
            p = p[:, keep]
            H = H.columns(keep)
        if cols.size == 0:
            break
        q = hvp(H, p)
        pq = _dot(p, q)
        # A column whose direction breaks down takes no step and stops at the next pass.
        broke = pq <= 0.0
        a = np.divide(rz, pq, out=np.zeros_like(pq), where=~broke)
        x += a * p
        r -= a * q
        res = np.sqrt(_dot(r, r))
        z = r / mdiag if mdiag is not None else r
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new

    if vector:
        return sol[:, 0], PcgInfo(n_iter, float(residual[0]), bool(converged[0]))
    return sol, PcgInfo(n_iter, residual, converged)


def check_train_settings(reg_c: float, tol: float = TRAIN_TOL,
                         max_iter: int = TRAIN_MAX_ITER) -> None:
    """Refuse the ``train`` settings no fit can run with, before any data is read."""
    if not 0.0 < reg_c < np.inf:
        raise ModelError(f"reg_c must be finite and positive for training, got {reg_c}")
    if not 0.0 < tol < np.inf:
        raise ModelError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ModelError(f"max_iter must be at least 1, got {max_iter}")


def check_two_classes(y: np.ndarray) -> None:
    """Refuse training labels (those of the rows with positive weight) of one class or none."""
    if y.size == 0:
        raise ModelError("training data has no rows")
    if np.all(y == y[0]):
        raise ModelError("training data carries a single class")


def train(ds: SparseDataset, reg_c: float, tol: float = TRAIN_TOL,
          max_iter: int = TRAIN_MAX_ITER) -> ModelParams:
    """Fit one model by damped Newton from theta = 0: ``fit_columns`` with one column.

    Runs to gradient norm <= tol or max_iter steps; a non-converged fit is
    returned flagged, not raised. Deterministic for fixed inputs. A
    pipeline's full-set fit is this call; its cells are not, since they run
    as columns of ``fit_columns`` blocks, warm from the full-set theta.
    """
    W, theta0 = np.ones((ds.n_rows, 1)), np.zeros(ds.n_features)
    return fit_columns(ds, reg_c, W, theta0, tol, max_iter)[0]


def fit_columns(ds: SparseDataset, reg_c: float, W: np.ndarray, theta0: np.ndarray,
                tol: float = TRAIN_TOL, max_iter: int = TRAIN_MAX_ITER) -> list[ModelParams]:
    """Fit the k weighted objectives set by the columns of W, all from theta0.

    Objective j is ``_objective`` under the weights W[:, j] (shape (n, k)). Each
    column runs its own damped Newton iteration: a step from an
    unpreconditioned ``pcg`` solve with forcing tolerance
    min(0.5, max(sqrt(||g_j||), 0.5 tol / ||g_j||)), then its own
    ``_backtrack``. The floor 0.5 tol / ||g_j|| makes the last step aim at
    half the stopping tolerance instead of far below it (Kelley, "Iterative
    Methods for Linear and Nonlinear Equations", 1995, sec. 6.3). The
    columns step in lockstep: one block ``pcg`` solve per iterate, and one
    X @ Theta per line-search trial for the columns still searching. A
    column leaves the block once its gradient norm is <= tol or after
    max_iter steps; a non-converged column is returned flagged, not raised.
    Each column's forcing tolerance reads only its own gradient. Returns one
    ``ModelParams`` per column, in order. The (d, k) state is kept
    column-contiguous (``_dot``), so each column's steps, line search and
    result are bit for bit those of its own k = 1 fit, whatever its
    block-mates are and whenever they leave; k = 1 from theta0 = 0 is
    ``train``. Deterministic for fixed inputs.
    """
    check_train_settings(reg_c, tol, max_iter)
    if ds.n_rows == 0:
        raise ModelError("empty dataset")
    # Column by column, so the column means round as vector means do.
    W = np.asfortranarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != ds.n_rows:
        raise ModelError(f"weight block shape {W.shape} does not match {ds.n_rows} rows")
    if not np.all(np.isfinite(W)) or np.any(W < 0):
        raise ModelError("weights must be finite and nonnegative")
    theta0 = ModelParams(theta0, reg_c).theta
    if theta0.shape != (ds.n_features,):
        raise ModelError(f"start dimension {theta0.size} does not match {ds.n_features} features")
    for w in W.T:
        check_two_classes(ds.y[w > 0])

    X, XT, y = ds.X, ds.X.T, ds.y[:, None]
    inner_cap = min(max(2 * ds.n_features, 20), 1000)
    fits: list[ModelParams | None] = [None] * W.shape[1]
    # The state of the columns still fitting, which ``cols`` names.
    cols = np.arange(W.shape[1])
    wbar = np.mean(W, axis=0)
    theta = np.array(np.broadcast_to(theta0[:, None], (theta0.size, cols.size)), order="F")
    z = X @ theta
    f = _objective(theta, z, W, wbar, y, reg_c)
    for n_iter in range(max_iter + 1):
        g, H = _derivatives(theta, z, W, wbar, y, reg_c, X, XT)
        gnorm = np.sqrt(_dot(g, g))
        if np.any(stop := (gnorm <= tol) | (n_iter == max_iter)):
            for j in np.flatnonzero(stop):
                fits[cols[j]] = ModelParams(theta[:, j].copy(), reg_c, float(gnorm[j]),
                                            n_iter, bool(gnorm[j] <= tol))
            if np.all(stop):
                return fits
            keep = ~stop
            cols, wbar, f, gnorm = cols[keep], wbar[keep], f[keep], gnorm[keep]
            # One block at a time, so each old copy is freed before the next is made.
            theta = theta[:, keep]
            z = z[:, keep]
            W = W[:, keep]
            g = g[:, keep]
            H = H.columns(keep)
        # Solving H x = g and negating gives the iterates of H x = -g bit for bit.
        forcing = np.minimum(0.5, np.maximum(np.sqrt(gnorm), 0.5 * tol / gnorm))
        step = -pcg(H, g, forcing, inner_cap)[0]
        slope = _dot(g, step)
        # Only theta, z and f carry over to the next iterate; freeing the
        # rest before the line search and the next solve lowers the peak.
        del g, H
        _backtrack(X, y, W, wbar, reg_c, theta, z, f, step, slope)
        del step
    raise AssertionError("unreachable: the last Newton iterate stops every column")


def _backtrack(X: sp.csr_array, y: np.ndarray, W: np.ndarray, wbar: np.ndarray, reg_c: float,
               theta: np.ndarray, z: np.ndarray, f: np.ndarray, step: np.ndarray,
               slope: np.ndarray) -> None:
    """Armijo backtracking (c1 = 1e-4, halving) of every column along its step.

    Each column halves on its own: a trial covers the columns still
    searching, and an accepted trial's theta, margins and risk are written
    into ``theta``, ``z`` and ``f``. A column whose full step predicts a
    decrease, -slope, within 64 ulp of f takes that step untested: there the
    test compares rounding noise in f, and a Newton step it rejects near the
    optimum is halved again at every iterate, so the column stalls short of
    its tolerance. A column whose 60 halvings all fail takes the 2^-60 step
    untested.
    """
    search = np.arange(f.size)
    blind = -slope <= 64 * np.spacing(np.abs(f))
    for halvings in range(61):
        at = search if search.size < f.size else slice(None)
        # Every column still searching is at the same halving: t = 2^-halvings.
        t = 0.5 ** halvings
        trial = theta[:, at] + t * step[:, at]
        z_trial = X @ trial
        f_trial = _objective(trial, z_trial, W[:, at], wbar[at], y, reg_c)
        ok = f_trial <= f[at] + 1e-4 * t * slope[at]
        if halvings == 0:
            ok |= blind
        elif halvings == 60:
            ok[:] = True
        done = search[ok]
        theta[:, done], z[:, done], f[done] = trial[:, ok], z_trial[:, ok], f_trial[ok]
        search = search[~ok]
        if search.size == 0:
            return


def save_params(params: ModelParams, path: str) -> None:
    """Write ``d C``, then ``index value`` per nonzero weight; a bad path raises DataError."""
    nonzero = np.flatnonzero(params.theta != 0.0)
    write_lines(path, [f"{params.dim} {params.reg_c!r}"] + [
        f"{k} {v!r}" for k, v in zip(nonzero.tolist(), params.theta[nonzero].tolist())])


def load_params(path: str) -> ModelParams:
    """Inverse of ``save_params``; weights round-trip exactly.

    Each nonblank line is two fields, ``int float`` as int() and float() read
    them: the header ``d C``, then ``index value`` lines. A ModelError names
    the file and its first faulty line, 1-based: a bad header (C not finite
    and nonnegative), a negative dimension, a dimension too large for one
    array, a bad weight line (value not finite), an index out of range (not
    0 <= index < d) or a duplicate index. An unreadable file raises DataError.
    """
    lines = read_lines(path)
    if not lines:
        raise ModelError(f"{path}: empty model file")
    ints, floats = [], []
    for _, line in lines:
        try:
            k_s, v_s = line.split()
            k, v = int(k_s), float(v_s)
        except ValueError:
            k, v = 0, np.nan
        ints.append(k)
        floats.append(v)
    (no, head), d = lines[0], ints[0]
    if not 0.0 <= floats[0] < np.inf:
        raise ModelError(f"{path}:{no}: bad header {head!r}")
    if d < 0:
        raise ModelError(f"{path}:{no}: negative dimension {d}")
    try:
        theta = np.zeros(d)
    except (ValueError, MemoryError):
        raise ModelError(f"{path}:{no}: dimension {d} too large") from None
    # Lines 1..end-1 have finite values and in-range indices (Python ints, of
    # any size). min and max clear a whole file's indices at once; only a
    # file that fails them is scanned index by index for its first fault.
    value, keys = np.array(floats), ints[1:]
    good = np.isfinite(value[1:])
    if keys and not (min(keys) >= 0 and max(keys) < d):
        good &= np.array([0 <= k < d for k in keys], dtype=bool)
    end = 1 + (good.size if good.all() else int(np.argmin(good)))
    index = np.array(ints[1:end], dtype=np.int64)
    _, first_seen = np.unique(index, return_index=True)
    if first_seen.size < index.size:
        first = 1 + int(np.setdiff1d(np.arange(index.size), first_seen)[0])
        raise ModelError(f"{path}:{lines[first][0]}: duplicate index {ints[first]}")
    if end < len(lines):
        no, line = lines[end]
        if not np.isfinite(value[end]):
            raise ModelError(f"{path}:{no}: bad weight line {line!r}")
        raise ModelError(f"{path}:{no}: index {ints[end]} out of range for dimension {d}")
    theta[index] = value[1:]
    return ModelParams(theta, floats[0])
