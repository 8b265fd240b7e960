"""Influence of training samples on held-out risk.

The score of training sample i against a validation set is
phi_i = -g_va . H^{-1} grad_i, where H is the regularized training Hessian,
g_va the summed validation log-loss gradient, and grad_i the regularized
per-sample training gradient. Negative phi marks samples whose upweighting
lowers validation risk. Every solve is ``model.pcg``, matrix-free conjugate
gradient preconditioned by the exact Hessian diagonal (Jacobi); Newton steps
in ``model.train`` use the same loop without a preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
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
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class InfluenceReport:
    """Influence scores for every training row plus solver diagnostics.

    ``psi_norms`` (per-sample parameter-influence norms) is filled only when
    requested; it costs one linear solve per row.
    """

    phi: np.ndarray
    psi_norms: np.ndarray | None
    cg_iters: int
    residual: float

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=np.float64)
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        if self.psi_norms is not None:
            ns = np.asarray(self.psi_norms, dtype=np.float64)
            if ns.shape != phi.shape:
                raise ValueError("psi_norms length must match phi")
            if not np.all(np.isfinite(ns)) or np.any(ns < 0):
                raise ValueError("psi_norms must be finite and nonnegative")
            object.__setattr__(self, "psi_norms", ns)


def inverse_hvp_pcg(H: model.Curvature, v: np.ndarray,
                    cfg: PcgConfig = PcgConfig()) -> tuple[np.ndarray, PcgInfo]:
    """Solve H t = v by ``model.pcg``, preconditioned by the diagonal ``H.diag``.

    Terminates when ||H t - v|| <= tol ||v||; a stalled preconditioner is
    dropped for plain CG, and a solve that hits max_iter returns its best
    iterate with converged False (see ``model.pcg``). H must carry a positive
    C wbar term: a zero C or all-zero weights leave it singular.
    """
    if not H.c_wbar > 0.0:
        raise ValueError("inverse HVP needs reg_c > 0 for a positive definite Hessian")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (H.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {H.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("right-hand side must be finite")
    return model.pcg(H, v, cfg.tol, cfg.max_iter, H.diag)


def _validation_gradient(params: ModelParams, va: SparseDataset) -> np.ndarray:
    """Summed unregularized log-loss gradient over the validation rows."""
    resid = model._sigma(params, va) - va.y
    return va.X.T @ resid


def compute_phi(params: ModelParams, tr: SparseDataset, va: SparseDataset,
                cfg: PcgConfig = PcgConfig()) -> InfluenceReport:
    """Influence of every training row on the summed validation log loss.

    One linear solve total: s = H^{-1} g_va, then
    phi_i = -((p_i - y_i) x_i . s + C theta . s). A solve that misses its
    tolerance raises ConvergenceError rather than returning junk scores.
    """
    if va.n_rows == 0:
        raise ValueError("empty validation set")
    g_va = _validation_gradient(params, va)
    s, info = inverse_hvp_pcg(model.curvature(params, tr), g_va, cfg)
    if not info.converged:
        raise ConvergenceError(
            f"inverse HVP stopped at residual {info.residual:.3e} after {info.iters} iterations")
    resid = model._sigma(params, tr) - tr.y
    reg_term = params.reg_c * float(params.theta @ s)
    phi = -(resid * (tr.X @ s) + reg_term)
    return InfluenceReport(phi=phi, psi_norms=None, cg_iters=info.iters, residual=info.residual)


def compute_psi_norms(params: ModelParams, tr: SparseDataset,
                      cfg: PcgConfig = PcgConfig()) -> np.ndarray:
    """Norm of the parameter influence H^{-1} grad_i for every training row.

    Runs one conjugate-gradient solve per row, so cost scales linearly with
    the training set; a row with a zero gradient solves to exactly zero.
    """
    H = model.curvature(params, tr)
    p = model._sigma(params, tr)
    base = params.reg_c * params.theta
    norms = np.empty(tr.n_rows)
    for i in range(tr.n_rows):
        idx, vals = tr.row(i)
        rhs = base.copy()
        rhs[idx] += (p[i] - tr.y[i]) * vals
        sol, info = inverse_hvp_pcg(H, rhs, cfg)
        if not info.converged:
            raise ConvergenceError(
                f"sample {i}: inverse HVP stopped at residual {info.residual:.3e}")
        norms[i] = float(np.linalg.norm(sol))
    return norms


def write_influence_csv(report: InfluenceReport, path: str) -> None:
    """Emit ``index,phi`` rows, with a ``psi_norm`` column when present."""
    psi = [] if report.psi_norms is None else [report.psi_norms]
    write_table(path, ["index", "phi", "psi_norm"][:2 + len(psi)],
                [range(report.phi.size), report.phi, *psi])


def read_influence_csv(path: str) -> InfluenceReport:
    """Read scores written by ``write_influence_csv``; diagnostics are not stored."""
    _, header, columns = read_table(path)
    if header not in (["index", "phi"], ["index", "phi", "psi_norm"]):
        raise ValueError(f"{path}: unexpected header {','.join(header)!r}")
    phi, *psi = (np.array(col, dtype=np.float64) for col in columns[1:])
    return InfluenceReport(phi=phi, psi_norms=psi[0] if psi else None,
                           cg_iters=0, residual=float("nan"))
