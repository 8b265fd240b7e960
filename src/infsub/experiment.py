"""End-to-end subsampling experiments over a train/validation/test protocol.

A pipeline run fits the full-set model, scores training samples against the
validation split, then for every (method, ratio, repeat) cell draws a subset,
refits, and records held-out metrics. All randomness flows from one base
seed through a keyed hash, so a config reproduces its report byte for byte.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import influence, model, risk, sampling
from .data import (SparseDataset, SplitSpec, _fmt, flip_labels, load_libsvm,
                   split, with_feature_dim)
from .influence import ConvergenceError, PcgConfig
from .model import ModelParams

_LIST_FIELDS = {"methods", "ratios", "sigmoid_alphas"}


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, unusable value, ...)."""


@dataclass
class ExperimentConfig:
    """Everything a pipeline run depends on.

    Datasets come either as pre-split tr/va/te paths or as one dataset_path
    split here by (va_fraction, te_fraction, split_seed). Methods named
    "sigmoid" fan out into one cell per entry of sigmoid_alphas.
    """

    tr_path: str | None = None
    va_path: str | None = None
    te_path: str | None = None
    dataset_path: str | None = None
    n_features: int | None = None
    va_fraction: float = 0.3
    te_fraction: float = 0.2
    split_seed: int = 0

    reg_c: float = 0.1
    train_tol: float = 1e-8
    train_max_iter: int = 100

    methods: list[str] = field(default_factory=lambda: ["random", "dropout", "linear", "sigmoid"])
    ratios: list[float] = field(default_factory=lambda: [0.95])
    repeats: int = 10
    seed: int = 0
    sigmoid_alphas: list[float] = field(default_factory=lambda: [0.1, 1.0, 5.0, 10.0, 50.0])
    linear_alpha: float | None = None
    optlr_floor: float = 0.01

    pcg_alpha: float = 1.0
    pcg_tol: float = 1e-8
    pcg_max_iter: int = 1000

    flip_fraction: float | None = None
    compute_gamma: bool = False

    def __post_init__(self) -> None:
        if self.dataset_path is None and (self.tr_path is None or self.va_path is None):
            raise ConfigError("need dataset_path or both tr_path and va_path")
        if self.dataset_path is not None and self.tr_path is not None:
            raise ConfigError("dataset_path and tr_path are mutually exclusive")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        for m in self.methods:
            if m not in sampling.METHODS:
                raise ConfigError(f"unknown method {m!r}")
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"ratio must be in (0, 1], got {r}")
        if self.flip_fraction is not None and not 0.0 <= self.flip_fraction <= 1.0:
            raise ConfigError(f"flip_fraction must be in [0, 1], got {self.flip_fraction}")

    def pcg_config(self) -> PcgConfig:
        return PcgConfig(alpha_precond=self.pcg_alpha, tol=self.pcg_tol,
                         max_iter=self.pcg_max_iter)


def _coerce(name: str, kind, raw: str):
    raw = raw.strip()
    if kind is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from None


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a config from string key/value pairs, e.g. a parsed config file."""
    kinds = {
        "tr_path": str, "va_path": str, "te_path": str, "dataset_path": str,
        "n_features": int, "va_fraction": float, "te_fraction": float, "split_seed": int,
        "reg_c": float, "train_tol": float, "train_max_iter": int,
        "methods": str, "ratios": float, "repeats": int, "seed": int,
        "sigmoid_alphas": float, "linear_alpha": float, "optlr_floor": float,
        "pcg_alpha": float, "pcg_tol": float, "pcg_max_iter": int,
        "flip_fraction": float, "compute_gamma": bool,
    }
    kwargs = {}
    for key, raw in mapping.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        if key in _LIST_FIELDS:
            kwargs[key] = [_coerce(key, kinds[key], tok) for tok in raw.split(",") if tok.strip()]
        else:
            kwargs[key] = _coerce(key, kinds[key], raw)
    return ExperimentConfig(**kwargs)


def config_from_file(path: str) -> ExperimentConfig:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                mapping[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return config_from_mapping(mapping)


def derive_seed(base: int, *parts) -> int:
    """Deterministic per-cell seed: base XOR a keyed digest of the parts.

    Uses a blake2b digest rather than Python's hash(), which is salted per
    process and would break run-to-run reproducibility.
    """
    key = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return (int(base) ^ int.from_bytes(digest, "big")) & ((1 << 63) - 1)


@dataclass(frozen=True)
class CellResult:
    """One (method, ratio, repeat) cell of the experiment grid."""

    method: str            # display label; sigmoid carries its alpha, e.g. "sigmoid@5"
    ratio: float
    repeat: int
    seed: int
    va_logloss: float = float("nan")
    te_logloss: float = float("nan")
    te_accuracy: float = float("nan")
    gamma: float = float("nan")
    n_selected: int = 0
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    method: str
    ratio: float
    n: int
    va_mean: float
    va_std: float
    te_mean: float
    te_std: float
    accuracy_mean: float
    gamma_mean: float


@dataclass
class ExperimentReport:
    """Full-set baseline, per-cell results, and wall-clock diagnostics.

    Timings stay out of the CSV emitters so identical configs produce
    identical bytes.
    """

    cells: list[CellResult]
    full_va_logloss: float
    full_te_logloss: float
    full_te_accuracy: float
    methods: list[str]
    ratios: list[float]
    repeats: int
    with_accuracy: bool
    influence_seconds: float = 0.0
    total_seconds: float = 0.0

    def aggregates(self) -> list[AggregateRow]:
        """One row per (method, ratio) over its non-failed repeats."""
        rows = []
        for ratio in self.ratios:
            for label in self.methods:
                cells = [c for c in self.cells
                         if c.method == label and c.ratio == ratio and c.error is None]
                if not cells:
                    continue
                va = np.array([c.va_logloss for c in cells])
                te = np.array([c.te_logloss for c in cells])
                acc = np.array([c.te_accuracy for c in cells])
                gam = np.array([c.gamma for c in cells])
                rows.append(AggregateRow(
                    method=label, ratio=ratio, n=len(cells),
                    va_mean=float(va.mean()),
                    va_std=float(va.std(ddof=1)) if len(cells) > 1 else 0.0,
                    te_mean=float(te.mean()),
                    te_std=float(te.std(ddof=1)) if len(cells) > 1 else 0.0,
                    accuracy_mean=float(acc.mean()),
                    gamma_mean=float(gam.mean()),
                ))
        return rows

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if c.error is not None]


def _empty_like(d: int) -> SparseDataset:
    X = sp.csr_array((np.empty(0), np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64)),
                     shape=(0, d))
    return SparseDataset(X, np.empty(0, dtype=np.int8))


def load_splits(cfg: ExperimentConfig) -> tuple[SparseDataset, SparseDataset, SparseDataset]:
    """Materialize (tr, va, te) from either config layout.

    Separately loaded files are widened to a common feature dimension; a
    missing te_path yields an empty test set and test metrics become NaN.
    """
    if cfg.dataset_path is not None:
        ds = load_libsvm(cfg.dataset_path, cfg.n_features)
        return split(ds, SplitSpec(cfg.va_fraction, cfg.te_fraction, cfg.split_seed))
    tr = load_libsvm(cfg.tr_path, cfg.n_features)
    va = load_libsvm(cfg.va_path, cfg.n_features)
    te = load_libsvm(cfg.te_path, cfg.n_features) if cfg.te_path else None
    d = max(tr.n_features, va.n_features, te.n_features if te is not None else 0)
    tr = with_feature_dim(tr, d)
    va = with_feature_dim(va, d)
    te = with_feature_dim(te, d) if te is not None else _empty_like(d)
    return tr, va, te


def expand_methods(cfg: ExperimentConfig) -> list[tuple[str, str, float]]:
    """(label, base_method, alpha) triples in deterministic config order."""
    out = []
    for m in cfg.methods:
        if m == "sigmoid":
            if not cfg.sigmoid_alphas:
                raise ConfigError("sigmoid requested but sigmoid_alphas is empty")
            for a in cfg.sigmoid_alphas:
                out.append((f"sigmoid@{a:g}", "sigmoid", float(a)))
        else:
            out.append((m, m, float("nan")))
    return out


def _cell_probs(label: str, base: str, alpha: float, ratio: float,
                phi: np.ndarray | None, psi: np.ndarray | None,
                cfg: ExperimentConfig, n_tr: int) -> tuple[np.ndarray, float]:
    """Probabilities for one cell plus the effective alpha actually used."""
    if base == "random":
        return sampling.random_probs(n_tr, ratio), float("nan")
    if base == "dropout":
        return sampling.dropout_probs(phi), float("nan")
    if base == "linear":
        eff = cfg.linear_alpha
        if eff is None:
            eff = 1.0 / float(np.max(np.abs(phi)))
        return sampling.linear_probs(phi, eff), float(eff)
    if base == "sigmoid":
        return sampling.sigmoid_probs(phi, alpha), alpha
    if base == "optlr":
        return sampling.optlr_probs(psi, floor=cfg.optlr_floor), float("nan")
    raise ConfigError(f"unknown method {base!r}")


def run_pipeline(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full experiment grid defined by ``cfg``.

    Influence scores are computed once against the validation split and
    shared by every cell. A full-set fit that misses its tolerance raises
    ConvergenceError, since influence is only meaningful at an optimum. A
    failure inside one cell, a non-converged cell fit included, is recorded
    on that cell's result and does not abort the grid. With flip_fraction set,
    training labels are corrupted (seeded) before the full fit, while
    validation and test stay clean; test accuracy is then also reported.
    """
    t_start = time.perf_counter()
    tr, va, te = load_splits(cfg)
    if cfg.flip_fraction:
        tr = flip_labels(tr, cfg.flip_fraction, derive_seed(cfg.seed, "flip", cfg.flip_fraction))

    full = model.train(tr, cfg.reg_c, tol=cfg.train_tol, max_iter=cfg.train_max_iter)
    _require_converged(full, "full-set fit")
    has_te = te.n_rows > 0
    full_va = model.mean_logloss(full, va)
    full_te = model.mean_logloss(full, te) if has_te else float("nan")
    full_acc = model.accuracy(full, te) if has_te else float("nan")

    labels = expand_methods(cfg)
    need_phi = any(base in ("dropout", "linear", "sigmoid") for _, base, _ in labels)
    need_psi = any(base == "optlr" for _, base, _ in labels)
    t_inf = time.perf_counter()
    phi = influence.compute_phi(full, tr, va, cfg.pcg_config()).phi if need_phi else None
    psi = influence.compute_psi_norms(full, tr, cfg.pcg_config()) if need_psi else None
    influence_seconds = time.perf_counter() - t_inf

    cells: list[CellResult] = []
    for ratio in cfg.ratios:
        for label, base, alpha in labels:
            for repeat in range(cfg.repeats):
                seed = derive_seed(cfg.seed, label, ratio, repeat)
                try:
                    cells.append(_run_cell(cfg, tr, va, te, full, phi, psi,
                                           label, base, alpha, ratio, repeat, seed))
                except Exception as exc:
                    cells.append(CellResult(method=label, ratio=ratio, repeat=repeat,
                                            seed=seed, error=f"{type(exc).__name__}: {exc}"))

    return ExperimentReport(
        cells=cells,
        full_va_logloss=full_va,
        full_te_logloss=full_te,
        full_te_accuracy=full_acc,
        methods=[label for label, _, _ in labels],
        ratios=[float(r) for r in cfg.ratios],
        repeats=cfg.repeats,
        with_accuracy=bool(cfg.flip_fraction),
        influence_seconds=influence_seconds,
        total_seconds=time.perf_counter() - t_start,
    )


def _require_converged(fit: ModelParams, what: str) -> None:
    if not fit.converged:
        raise ConvergenceError(f"{what} stopped at gradient norm {fit.grad_norm:.3e} "
                               f"after {fit.n_iter} Newton steps")


def _run_cell(cfg: ExperimentConfig, tr: SparseDataset, va: SparseDataset,
              te: SparseDataset, full: ModelParams, phi: np.ndarray | None,
              psi: np.ndarray | None, label: str, base: str, alpha: float,
              ratio: float, repeat: int, seed: int) -> CellResult:
    probs, eff_alpha = _cell_probs(label, base, alpha, ratio, phi, psi, cfg, tr.n_rows)
    plan = sampling.draw_subset(probs, ratio, tr.y, base, seed,
                                phi=phi if base == "dropout" else None, alpha=eff_alpha)
    subset = tr.subset(plan.selected)
    weights = None
    if base == "optlr":
        # Inverse-probability weights, normalized to mean about 1 on the subset.
        weights = plan.selected.size / (tr.n_rows * probs[plan.selected])
    fitted = model.train(subset, cfg.reg_c, tol=cfg.train_tol,
                         max_iter=cfg.train_max_iter, sample_weight=weights)
    _require_converged(fitted, "cell fit")
    has_te = te.n_rows > 0
    return CellResult(
        method=label, ratio=ratio, repeat=repeat, seed=seed,
        va_logloss=model.mean_logloss(fitted, va),
        te_logloss=model.mean_logloss(fitted, te) if has_te else float("nan"),
        te_accuracy=model.accuracy(fitted, te) if has_te else float("nan"),
        gamma=risk.gamma_shift(full, fitted) if cfg.compute_gamma else float("nan"),
        n_selected=int(plan.selected.size),
    )


def run_noise_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Label-noise variant: requires flip_fraction > 0, otherwise identical."""
    if not cfg.flip_fraction:
        raise ConfigError("noise experiment needs flip_fraction > 0")
    return run_pipeline(cfg)


def emit_report(report: ExperimentReport, path: str) -> None:
    """Write the per-repeat CSV to ``path`` and aggregates beside it.

    The aggregate file replaces the extension with ``_aggregate.csv`` and
    carries the full-set baseline as a ``full`` row. Re-emitting the same
    report overwrites with identical bytes.
    """
    acc = report.with_accuracy
    header = "method,ratio,repeat,va_logloss,te_logloss"
    if acc:
        header += ",accuracy"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for c in report.cells:
                if c.error is not None:
                    continue
                row = f"{c.method},{_fmt(c.ratio)},{c.repeat},{_fmt(c.va_logloss)},{_fmt(c.te_logloss)}"
                if acc:
                    row += f",{_fmt(c.te_accuracy)}"
                fh.write(row + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc

    agg_path = _sibling(path, "_aggregate.csv")
    agg_header = "method,ratio,n,va_logloss_mean,va_logloss_std,te_logloss_mean,te_logloss_std"
    if acc:
        agg_header += ",accuracy_mean"
    try:
        with open(agg_path, "w", encoding="utf-8") as fh:
            fh.write(agg_header + "\n")
            row = (f"full,{_fmt(1.0)},1,{_fmt(report.full_va_logloss)},{_fmt(0.0)},"
                   f"{_fmt(report.full_te_logloss)},{_fmt(0.0)}")
            if acc:
                row += f",{_fmt(report.full_te_accuracy)}"
            fh.write(row + "\n")
            for a in report.aggregates():
                row = (f"{a.method},{_fmt(a.ratio)},{a.n},{_fmt(a.va_mean)},{_fmt(a.va_std)},"
                       f"{_fmt(a.te_mean)},{_fmt(a.te_std)}")
                if acc:
                    row += f",{_fmt(a.accuracy_mean)}"
                fh.write(row + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {agg_path}: {exc}") from exc


def emit_gamma_csv(report: ExperimentReport, path: str) -> None:
    """Write mean parameter shift per (ratio, method) via the risk emitter."""
    rows = [(a.ratio, a.method, a.gamma_mean) for a in report.aggregates()]
    risk.write_gamma_csv(rows, path)


def _sibling(path: str, suffix: str) -> str:
    stem, dot, _ = path.rpartition(".")
    return (stem if dot else path) + suffix


def best_sigmoid(report: ExperimentReport, ratio: float) -> AggregateRow | None:
    """The sigmoid alpha with the lowest mean validation logloss at ``ratio``.

    Ties go to the earlier (smaller-alpha) row. None if no sigmoid cells ran.
    """
    best: AggregateRow | None = None
    for a in report.aggregates():
        if a.ratio == ratio and a.method.startswith("sigmoid@"):
            if best is None or a.va_mean < best.va_mean:
                best = a
    return best
