"""Influence of training samples on held-out risk.

The score of training sample i against a validation set is
phi_i = -g_va . H^{-1} grad_i, where H is the regularized training Hessian,
g_va the summed validation log-loss gradient, and grad_i the regularized
per-sample training gradient. Negative phi marks samples whose upweighting
lowers validation risk. All solves are matrix-free conjugate gradient with a
mixed diagonal/identity preconditioner.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import model
from .data import SparseDataset, _fmt, read_lines, write_lines
from .model import ModelParams, PcgInfo


class ConvergenceError(RuntimeError):
    """A fit or a conjugate-gradient solve missed its tolerance."""


@dataclass(frozen=True)
class PcgConfig:
    """Solver knobs: preconditioner mix, relative tolerance, iteration cap.

    ``alpha_precond`` blends the exact Hessian diagonal (1.0) with the
    identity (0.0); the inverse of the blend is applied each iteration.
    """

    alpha_precond: float = 1.0
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_precond <= 1.0:
            raise ValueError(f"alpha_precond must be in [0, 1], got {self.alpha_precond}")
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
    """Solve H t = v by ``model.pcg`` with the diagonal/identity blend of ``cfg``.

    Terminates when ||H t - v|| <= tol ||v||; a stalled preconditioner is
    dropped for plain CG, and a solve that hits max_iter returns its best
    iterate with converged False (see ``model.pcg``).
    """
    if not H.reg_c > 0.0:
        raise ValueError("inverse HVP needs reg_c > 0 for a positive definite Hessian")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (H.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {H.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("right-hand side must be finite")
    alpha = cfg.alpha_precond
    mdiag = alpha * H.diag + (1.0 - alpha) if alpha > 0.0 else None
    return model.pcg(H, v, cfg.tol, cfg.max_iter, mdiag)


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
    the training set; rows with a zero gradient short-circuit to zero.
    """
    H = model.curvature(params, tr)
    p = model._sigma(params, tr)
    base = params.reg_c * params.theta
    norms = np.empty(tr.n_rows)
    for i in range(tr.n_rows):
        idx, vals = tr.row(i)
        rhs = base.copy()
        rhs[idx] += (p[i] - tr.y[i]) * vals
        if not np.any(rhs):
            norms[i] = 0.0
            continue
        sol, info = inverse_hvp_pcg(H, rhs, cfg)
        if not info.converged:
            raise ConvergenceError(
                f"sample {i}: inverse HVP stopped at residual {info.residual:.3e}")
        norms[i] = float(np.linalg.norm(sol))
    return norms


def write_influence_csv(report: InfluenceReport, path: str) -> None:
    """Emit ``index,phi`` rows, with a ``psi_norm`` column when present."""
    psi = report.psi_norms
    header = "index,phi" if psi is None else "index,phi,psi_norm"
    rows = (f"{i},{_fmt(value)}" if psi is None else f"{i},{_fmt(value)},{_fmt(psi[i])}"
            for i, value in enumerate(report.phi))
    write_lines(path, itertools.chain([header], rows))


def read_influence_csv(path: str) -> InfluenceReport:
    """Read scores written by ``write_influence_csv``; diagnostics are not stored."""
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty influence file")
    header = lines[0].split(",")
    if header[:2] != ["index", "phi"]:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    with_psi = len(header) == 3 and header[2] == "psi_norm"
    phi: list[float] = []
    psi: list[float] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != (3 if with_psi else 2):
            raise ValueError(f"{path}: bad row {ln!r}")
        if int(parts[0]) != len(phi):
            raise ValueError(f"{path}: rows must be indexed 0..n-1 in order")
        phi.append(float(parts[1]))
        if with_psi:
            psi.append(float(parts[2]))
    return InfluenceReport(
        phi=np.asarray(phi),
        psi_norms=np.asarray(psi) if with_psi else None,
        cg_iters=0,
        residual=float("nan"),
    )
