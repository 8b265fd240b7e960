"""End-to-end subsampling experiments over a train/validation/test protocol.

A pipeline run fits the full-set model, scores training samples against the
validation split, then for every (method, ratio, repeat) cell draws a subset,
refits, and records held-out metrics. The refits run as the columns of
lockstep blocks, planned like psi's row solves by ``parallel.column_blocks``.
All randomness flows from one base seed through a keyed hash, so a config
reproduces its report byte for byte, whatever the CPU count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import influence, model, parallel, risk, sampling
from .data import (SparseDataset, SplitSpec, flip_labels, load_aligned, load_libsvm,
                   split, write_table)
from .influence import ConvergenceError, PcgConfig
from .model import ModelParams

# Grid keys read only by one method, and that method.
_METHOD_KEYS = {"sigmoid_alphas": "sigmoid", "linear_alpha": "linear", "optlr_floor": "optlr"}


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, unusable value, ...)."""


@dataclass
class ExperimentConfig:
    """Everything a pipeline run depends on.

    Datasets come either as pre-split tr/va/te paths or as one dataset_path
    split here by (va_fraction, te_fraction, split_seed). Methods named
    "sigmoid" fan out into one cell per entry of sigmoid_alphas. Every value
    is checked here, before any data is read; ``pcg`` and ``split_spec`` keep
    the solver and split settings built from them.
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
    train_tol: float = model.TRAIN_TOL
    train_max_iter: int = model.TRAIN_MAX_ITER

    methods: list[str] = field(default_factory=lambda: ["random", "dropout", "linear", "sigmoid"])
    ratios: list[float] = field(default_factory=lambda: [0.95])
    repeats: int = 10
    seed: int = 0
    sigmoid_alphas: list[float] = field(default_factory=lambda: [0.1, 1.0, 5.0, 10.0, 50.0])
    linear_alpha: float | None = None
    optlr_floor: float = sampling.OPTLR_FLOOR

    pcg_tol: float = PcgConfig.tol
    pcg_max_iter: int = PcgConfig.max_iter

    flip_fraction: float | None = None
    compute_gamma: bool = False

    pcg: PcgConfig = field(init=False, repr=False)
    split_spec: SplitSpec | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dataset_path is None and (self.tr_path is None or self.va_path is None):
            raise ConfigError("need dataset_path or both tr_path and va_path")
        if self.dataset_path is not None and {self.tr_path, self.va_path, self.te_path} != {None}:
            raise ConfigError("dataset_path and tr_path/va_path/te_path are mutually exclusive")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if not 0.0 < self.reg_c < float("inf"):
            raise ConfigError(f"reg_c must be finite and positive, got {self.reg_c}")
        if not 0.0 < self.train_tol < float("inf"):
            raise ConfigError(f"train_tol must be positive and finite, got {self.train_tol}")
        if self.train_max_iter < 1:
            raise ConfigError(f"train_max_iter must be at least 1, got {self.train_max_iter}")
        if not self.methods or not self.ratios:
            raise ConfigError("methods and ratios must both be nonempty")
        if "sigmoid" in self.methods and not self.sigmoid_alphas:
            raise ConfigError("sigmoid requested but sigmoid_alphas is empty")
        for m in self.methods:
            if m not in sampling.METHODS:
                raise ConfigError(f"unknown method {m!r}")
        for name, values in vars(self).items():
            if isinstance(values, list) and len(set(values)) != len(values):
                raise ConfigError(f"{name} has duplicate entries: {values}")
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"ratio must be in (0, 1], got {r}")
        for a in self.sigmoid_alphas:
            if not 0.0 < a < float("inf"):
                raise ConfigError(f"sigmoid alpha must be positive and finite, got {a}")
        if self.linear_alpha is not None and not 0.0 < self.linear_alpha < float("inf"):
            raise ConfigError(
                f"linear_alpha must be positive and finite, got {self.linear_alpha}")
        if not 0.0 < self.optlr_floor <= 1.0:
            raise ConfigError(f"optlr_floor must be in (0, 1], got {self.optlr_floor}")
        if self.flip_fraction is not None and not 0.0 <= self.flip_fraction <= 1.0:
            raise ConfigError(f"flip_fraction must be in [0, 1], got {self.flip_fraction}")
        self.pcg = PcgConfig(self.pcg_tol, self.pcg_max_iter)
        self.split_spec = (SplitSpec(self.va_fraction, self.te_fraction, self.split_seed)
                           if self.dataset_path is not None else None)


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


def _parse(key: str, raw: str):
    """The value of config key ``key``, an ``ExperimentConfig`` init field,
    parsed as its annotation says (a ``list[...]`` from comma-separated
    items); an unknown key or an unparsable value raises ConfigError."""
    if key not in {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}:
        raise ConfigError(f"unknown config key {key!r}")
    hint = typing.get_type_hints(ExperimentConfig)[key]
    kind = next((a for a in typing.get_args(hint) if a is not type(None)), hint)
    if typing.get_origin(hint) is list:
        return [_coerce(key, kind, tok) for tok in raw.split(",") if tok.strip()]
    return _coerce(key, kind, raw)


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a config from string key/value pairs, e.g. a parsed config file.

    Each value is parsed by its key (``_parse``). A ``_METHOD_KEYS`` key
    whose method is not requested, or a split setting (``va_fraction``,
    ``te_fraction``, ``split_seed``) when the data comes pre-split, is
    rejected: its value would change nothing.
    """
    kwargs = {key: _parse(key, raw) for key, raw in mapping.items()}
    cfg = ExperimentConfig(**kwargs)
    for key, method in _METHOD_KEYS.items():
        if key in kwargs and method not in cfg.methods:
            raise ConfigError(f"{key} is set but no requested method reads it; "
                              f"it needs method {method}")
    for key in ("va_fraction", "te_fraction", "split_seed"):
        if key in kwargs and cfg.split_spec is None:
            raise ConfigError(f"{key} is set but the data comes pre-split as "
                              "tr_path/va_path; only dataset_path is split")
    return cfg


def read_config(path: str) -> dict[str, str]:
    """Parse a ``key = value`` config file into raw strings; '#' starts a comment.
    A bad line, key or value (``_parse``) raises ConfigError naming its line."""
    mapping: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = (part.strip() for part in line.partition("="))
                if not sep:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                if key in mapping:
                    raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
                try:
                    _parse(key, val)
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{line_no}: {exc}") from None
                mapping[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return mapping


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
    with_accuracy: bool
    with_gamma: bool = False
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


def load_splits(cfg: ExperimentConfig) -> tuple[SparseDataset, SparseDataset, SparseDataset]:
    """Materialize (tr, va, te) from either config layout.

    Separately loaded files are widened to a common feature dimension
    (``load_aligned``); a missing te_path yields an empty test set and test
    metrics become NaN.
    """
    if cfg.dataset_path is not None:
        ds = load_libsvm(cfg.dataset_path, cfg.n_features)
        return split(ds, cfg.split_spec)
    paths = [cfg.tr_path, cfg.va_path] + ([cfg.te_path] if cfg.te_path else [])
    tr, va, *te = load_aligned(paths, cfg.n_features)
    return tr, va, te[0] if te else tr.subset(np.empty(0, dtype=np.int64))


def expand_methods(cfg: ExperimentConfig) -> list[tuple[str, str, float | None]]:
    """(label, base_method, alpha) triples in deterministic config order.

    alpha is the sigmoid alpha, ``linear_alpha`` for linear, else None.
    """
    out = []
    for m in cfg.methods:
        if m == "sigmoid":
            for a in cfg.sigmoid_alphas:
                out.append((f"sigmoid@{a:g}", "sigmoid", float(a)))
        else:
            out.append((m, m, cfg.linear_alpha if m == "linear" else None))
    return out


def run_pipeline(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full experiment grid defined by ``cfg``.

    Influence scores are computed once against the validation split and
    shared by every cell. A full-set fit that misses its tolerance raises
    ConvergenceError, since influence is only meaningful at an optimum.
    Every cell is drawn first. Cells whose weight columns are equal (the
    same rows, and for optlr the same probabilities) are fitted once, and
    the result is copied to each. The distinct columns are refitted warm
    from the full-set theta as lockstep columns of ``model.fit_columns``, in
    blocks of near-equal width, the same number per CPU
    (``parallel.column_blocks``), run side by side (``parallel.map_blocks``).
    Since each column's fit is bit for bit its own fit, neither the plan nor
    the twins change any digit of the report. A failure inside one cell, a
    non-converged cell fit included, is recorded on that cell's result and
    does not abort the grid. With flip_fraction set, training labels are
    corrupted (seeded) before the full fit, while validation and test stay
    clean; test accuracy is then also reported.
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
    phi = influence.compute_phi(full, tr, va, cfg.pcg).phi if need_phi else None
    psi = influence.compute_psi_norms(full, tr, cfg.pcg) if need_psi else None
    influence_seconds = time.perf_counter() - t_inf

    # Draw every plan first; draws are seeded per cell, so their order
    # changes nothing. A cell that fails here records its error and fits
    # nothing. One (method, ratio) shares its probabilities across repeats.
    # A cell whose column equals an earlier one's is that cell's twin and is
    # not fitted itself: dropout's repeats draw the same rows. A column is
    # set by the rows and, for optlr, by the probabilities of its ratio.
    cells: list[CellResult] = []
    drawn: list[tuple[int, np.ndarray, np.ndarray | None]] = []
    first: dict[tuple, int] = {}        # each distinct column's first cell
    twins: list[tuple[int, int]] = []   # (cell, first cell of its column)
    for ratio in cfg.ratios:
        for label, base, alpha in labels:
            probs = None
            for repeat in range(cfg.repeats):
                cell = CellResult(method=label, ratio=ratio, repeat=repeat,
                                  seed=derive_seed(cfg.seed, label, ratio, repeat))
                try:
                    if probs is None:
                        probs = sampling.probs_for(base, ratio, phi, psi, alpha,
                                                   floor=cfg.optlr_floor, n=tr.n_rows)
                    selected = _draw_cell(tr, probs, base, ratio, cell.seed, phi)
                    optlr = base == "optlr"
                    key = (selected.tobytes(), ratio if optlr else None)
                    if key in first:
                        twins.append((len(cells), first[key]))
                    else:
                        first[key] = len(cells)
                        drawn.append((len(cells), selected, probs if optlr else None))
                except Exception as exc:
                    cell = _failed(cell, exc)
                cells.append(cell)

    def fit_block(block: list[tuple[int, np.ndarray, np.ndarray | None]]) -> list[CellResult]:
        try:
            fits = _fit_cells(cfg, tr, full, block)
        except Exception as exc:
            return [_failed(cells[i], exc) for i, _, _ in block]
        results = []
        for (i, selected, _), fitted in zip(block, fits):
            try:
                results.append(_evaluate_cell(cfg, cells[i], full, fitted, va, te,
                                              int(np.count_nonzero(selected))))
            except Exception as exc:
                results.append(_failed(cells[i], exc))
        return results

    blocks = [drawn[cols] for cols in parallel.column_blocks(len(drawn), tr.X)]
    for block, fitted_cells in zip(blocks, parallel.map_blocks(fit_block, blocks)):
        for (i, _, _), cell in zip(block, fitted_cells):
            cells[i] = cell
    for i, j in twins:
        twin = cells[i]
        cells[i] = dataclasses.replace(cells[j], method=twin.method, ratio=twin.ratio,
                                       repeat=twin.repeat, seed=twin.seed)

    return ExperimentReport(
        cells=cells,
        full_va_logloss=full_va,
        full_te_logloss=full_te,
        full_te_accuracy=full_acc,
        methods=[label for label, _, _ in labels],
        ratios=[float(r) for r in cfg.ratios],
        with_accuracy=bool(cfg.flip_fraction),
        with_gamma=cfg.compute_gamma,
        influence_seconds=influence_seconds,
        total_seconds=time.perf_counter() - t_start,
    )


def _require_converged(fit: ModelParams, what: str) -> None:
    if not fit.converged:
        raise ConvergenceError(f"{what} stopped at gradient norm {fit.grad_norm:.3e} "
                               f"after {fit.n_iter} Newton steps")


def _failed(cell: CellResult, exc: Exception) -> CellResult:
    return dataclasses.replace(cell, error=f"{type(exc).__name__}: {exc}")


def _draw_cell(tr: SparseDataset, probs: np.ndarray, base: str, ratio: float, seed: int,
               phi: np.ndarray | None) -> np.ndarray:
    """A cell's draw, as a mask over the training rows; a single-class draw raises."""
    rows = sampling.draw_subset(probs, ratio, tr.y, base, seed, phi=phi).selected
    model.check_two_classes(tr.y[rows])
    selected = np.zeros(tr.n_rows, dtype=bool)
    selected[rows] = True
    return selected


def _cell_weights(n: int, rows: np.ndarray, probs: np.ndarray | None) -> float | np.ndarray:
    """The weights of a cell's selected rows in its column of the fit block.

    Each is n / n_sub, times optlr's inverse-probability weight
    n_sub / (n pi_i) when ``probs`` is given, normalized to mean about 1 on
    the subset. The column's weighted mean loss over all n rows is then the
    subset's, and the column mean is the subset's mean weight.
    """
    scale = n / rows.size
    if probs is None:
        return scale
    return scale * (rows.size / (n * probs[rows]))


def _fit_cells(cfg: ExperimentConfig, tr: SparseDataset, full: ModelParams,
               block: list[tuple[int, np.ndarray, np.ndarray | None]]) -> list[ModelParams]:
    """Fit a block of drawn cells in lockstep, each warm from the full-set fit."""
    W = np.zeros((tr.n_rows, len(block)), order="F")
    for j, (_, selected, probs) in enumerate(block):
        rows = np.flatnonzero(selected)
        W[rows, j] = _cell_weights(tr.n_rows, rows, probs)
    return model.fit_columns(tr, cfg.reg_c, W, full.theta, cfg.train_tol, cfg.train_max_iter)


def _evaluate_cell(cfg: ExperimentConfig, cell: CellResult, full: ModelParams,
                   fitted: ModelParams, va: SparseDataset, te: SparseDataset,
                   n_selected: int) -> CellResult:
    """A fitted cell's held-out metrics; a non-converged fit raises."""
    _require_converged(fitted, "cell fit")
    has_te = te.n_rows > 0
    return dataclasses.replace(
        cell,
        va_logloss=model.mean_logloss(fitted, va),
        te_logloss=model.mean_logloss(fitted, te) if has_te else float("nan"),
        te_accuracy=model.accuracy(fitted, te) if has_te else float("nan"),
        gamma=risk.gamma_shift(full, fitted) if cfg.compute_gamma else float("nan"),
        n_selected=n_selected,
    )


# Report columns as (header, record attribute, type); accuracy comes last.
_CELL_COLUMNS = (("method", "method", str), ("ratio", "ratio", float),
                 ("repeat", "repeat", int), ("va_logloss", "va_logloss", float),
                 ("te_logloss", "te_logloss", float), ("accuracy", "te_accuracy", float))
_AGGREGATE_COLUMNS = (("method", "method", str), ("ratio", "ratio", float), ("n", "n", int),
                      ("va_logloss_mean", "va_mean", float), ("va_logloss_std", "va_std", float),
                      ("te_logloss_mean", "te_mean", float), ("te_logloss_std", "te_std", float),
                      ("accuracy_mean", "accuracy_mean", float))
_GAMMA_COLUMNS = (("ratio", "ratio", float), ("method", "method", str),
                  ("gamma", "gamma_mean", float))


def emit_report(report: ExperimentReport, path: str) -> list[str]:
    """Write the per-repeat CSV to ``path`` and the other tables beside it.

    The aggregate file replaces the extension with ``_aggregate.csv`` and
    carries the full-set baseline as a ``full`` row; a run that computed
    gamma adds ``_gamma.csv``, the mean parameter shift per ratio and method.
    Returns the paths written; the same report always gives the same bytes.
    """
    width = None if report.with_accuracy else -1
    full = AggregateRow("full", 1.0, 1, report.full_va_logloss, 0.0,
                        report.full_te_logloss, 0.0, report.full_te_accuracy, float("nan"))
    aggregates = report.aggregates()
    tables = [(path, [c for c in report.cells if c.error is None], _CELL_COLUMNS[:width]),
              (_sibling(path, "_aggregate.csv"), [full] + aggregates,
               _AGGREGATE_COLUMNS[:width])]
    if report.with_gamma:
        tables.append((_sibling(path, "_gamma.csv"), aggregates, _GAMMA_COLUMNS))
    for out, records, columns in tables:
        write_table(out, [name for name, _, _ in columns],
                    [np.array([getattr(r, attr) for r in records], dtype=kind)
                     for _, attr, kind in columns])
    return [out for out, _, _ in tables]


def _sibling(path: str, suffix: str) -> str:
    return os.path.splitext(path)[0] + suffix


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
