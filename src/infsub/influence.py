"""Influence of training samples on held-out risk.

The score of training sample i against a validation set is
phi_i = -g_va . H^{-1} grad_i, where H is the regularized training Hessian,
g_va the summed validation log-loss gradient, and grad_i the regularized
per-sample training gradient. Negative phi marks samples whose upweighting
lowers validation risk. Every solve is ``model.pcg``, matrix-free conjugate
gradient preconditioned by the exact Hessian diagonal (Jacobi); Newton steps
in ``model.fit_columns`` use the same loop without a preconditioner. The psi
norms need one solve per training row; those run a block of rows at a time,
as the columns of one block solve, in the blocks ``parallel.column_blocks``
plans for the pipeline's cell fits too. Each row's psi is bit for bit its
own solve's, whatever its block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, parallel
from .data import SparseDataset, read_table, write_table
from .model import ModelParams, PcgInfo


class ConvergenceError(RuntimeError):
    """A fit or a conjugate-gradient solve missed its tolerance."""


@dataclass(frozen=True)
class PcgConfig:
    """Solver settings of the influence solves: relative tolerance, iteration cap."""

    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"pcg_tol must be positive and finite, got {self.tol}")
        if self.tol >= 1.0:
            # The zero start already has ||b|| <= tol ||b||: no solve would run.
            raise ValueError(f"pcg_tol must be below 1, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"pcg_max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class InfluenceReport:
    """What ``compute_phi`` computed: phi for every training row, and the
    iterations and final residual norm of its one converged solve."""

    phi: np.ndarray
    cg_iters: int
    residual: float


def inverse_hvp_pcg(H: model.Curvature, v: np.ndarray,
                    cfg: PcgConfig = PcgConfig()) -> tuple[np.ndarray, PcgInfo]:
    """Solve H t = v by ``model.pcg``, preconditioned by the diagonal ``H.diag``.

    ``v`` is one right-hand side of shape (d,) or a block of them, shape
    (d, k), solved column by column. Each solve terminates when CG's
    recursively updated residual r has ||r|| <= tol ||v||; r tracks
    v - H t but is not recomputed from it. One that hits max_iter returns its
    last iterate with converged False (see ``model.pcg``). H must carry a positive
    C wbar term: a zero C or all-zero weights leave it singular.
    """
    if not H.c_wbar > 0.0:
        raise ValueError("inverse HVP needs reg_c > 0 for a positive definite Hessian")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != H.dim:
        raise ValueError(f"vector shape {v.shape} does not match dimension {H.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("right-hand side must be finite")
    return model.pcg(H, v, cfg.tol, cfg.max_iter, H.diag)


def compute_phi(params: ModelParams, tr: SparseDataset, va: SparseDataset,
                cfg: PcgConfig = PcgConfig()) -> InfluenceReport:
    """Influence of every training row on the summed validation log loss.

    One linear solve total: s = H^{-1} g_va, then
    phi_i = -((p_i - y_i) x_i . s + C theta . s). A solve that misses its
    tolerance raises ConvergenceError rather than returning junk scores.
    """
    if va.n_rows == 0:
        raise ValueError("empty validation set")
    g_va = va.X.T @ (model._sigma(params, va) - va.y)
    s, info = inverse_hvp_pcg(model.curvature(params, tr), g_va, cfg)
    if not info.converged:
        raise ConvergenceError(
            f"inverse HVP stopped at residual {info.residual:.3e} after {info.iters} iterations")
    resid = model._sigma(params, tr) - tr.y
    reg_term = params.reg_c * float(params.theta @ s)
    phi = -(resid * (tr.X @ s) + reg_term)
    return InfluenceReport(phi=phi, cg_iters=info.iters, residual=info.residual)


def compute_psi_norms(params: ModelParams, tr: SparseDataset,
                      cfg: PcgConfig = PcgConfig()) -> np.ndarray:
    """Norm of the parameter influence H^{-1} grad_i for every training row.

    Runs one conjugate-gradient solve per row, a block of rows at a time as
    the columns of one block solve (``parallel.column_blocks``), the blocks
    side by side on up to one thread per CPU, so cost scales linearly with
    the training set; a row with a zero gradient solves to exactly zero. A
    solve that misses its tolerance raises ConvergenceError naming the first
    such row.
    """
    H = model.curvature(params, tr)
    H.diag  # built once here, not by each block
    resid = model._sigma(params, tr) - tr.y
    base = params.reg_c * params.theta

    def solve(rows: slice) -> np.ndarray:
        # Column j is grad_{rows.start+j} = (p - y) x + C theta, formed densely.
        grads = tr.X[rows].multiply(resid[rows, None]).T.toarray(order="F") + base[:, None]
        sol, info = inverse_hvp_pcg(H, grads, cfg)
        if not np.all(info.converged):
            j = int(np.argmin(info.converged))
            raise ConvergenceError(
                f"sample {rows.start + j}: inverse HVP stopped at residual {info.residual[j]:.3e}")
        return np.linalg.norm(sol, axis=0)

    return np.concatenate(parallel.map_blocks(solve, parallel.column_blocks(tr.n_rows, tr.X)))


def write_influence_csv(path: str, phi: np.ndarray, psi: np.ndarray | None = None) -> None:
    """Emit ``index,phi`` rows, with a ``psi_norm`` column when ``psi`` is given."""
    extra = [] if psi is None else [psi]
    write_table(path, ["index", "phi", "psi_norm"][:2 + len(extra)],
                [range(len(phi)), phi, *extra])


def read_influence_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Read ``(phi, psi)`` written by ``write_influence_csv``; psi is None without
    its column. phi must be finite, psi finite and nonnegative."""
    _, header, columns = read_table(path)
    if header not in (["index", "phi"], ["index", "phi", "psi_norm"]):
        raise ValueError(f"{path}: unexpected header {','.join(header)!r}")
    try:
        phi = np.array(columns[1], dtype=np.float64)
        psi = np.array(columns[2], dtype=np.float64) if len(columns) == 3 else None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"{path}: phi must be finite")
    if psi is not None and not np.all(np.isfinite(psi) & (psi >= 0)):
        raise ValueError(f"{path}: psi_norm must be finite and nonnegative")
    return phi, psi
