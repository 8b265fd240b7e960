"""End-to-end subsampling experiments over a train/validation/test protocol.

A pipeline run fits the full-set model, scores training samples against the
validation split, then for every (method, ratio, repeat) cell draws a subset,
refits, and records held-out metrics. The refits run as the columns of
lockstep blocks, planned like psi's row solves by ``parallel.column_blocks``,
and each block scores all its fits at once (``_score_cells``): one product
with each held-out X per block, not one per cell. All randomness flows from
one base seed through a keyed hash, so a config reproduces its report byte
for byte, whatever the CPU count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import influence, model, parallel, sampling
from .data import (SparseDataset, SplitSpec, check_flip_fraction, check_n_features,
                   flip_labels, load_aligned, load_libsvm, split, write_table)
from .influence import ConvergenceError, PcgConfig
from .model import ModelParams


class ConfigError(ValueError):
    """Bad experiment configuration (unusable value, conflicting settings, ...)."""


@dataclass
class ExperimentConfig:
    """Everything a pipeline run depends on.

    Datasets come either as pre-split tr/va/te paths or as one dataset_path
    split here by (va_fraction, te_fraction, split_seed). Methods named
    "sigmoid" fan out into one cell per entry of sigmoid_alphas, each with its
    own label (``expand_methods``). Each value is checked before any data is
    read, by its owning module's checker if it has one (``_by_owner`` names the
    key); ``pcg`` and ``split_spec`` keep the settings built from them.
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

    pcg_tol: float = PcgConfig.tol
    pcg_max_iter: int = PcgConfig.max_iter

    flip_fraction: float = 0.0
    compute_gamma: bool = False

    pcg: PcgConfig = field(init=False, repr=False)
    split_spec: SplitSpec | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for key in ("tr_path", "va_path", "te_path", "dataset_path"):
            if getattr(self, key) == "":
                raise ConfigError(f"{key} is empty; give a file or leave the key out")
        if self.dataset_path is None and (self.tr_path is None or self.va_path is None):
            raise ConfigError("need dataset_path or both tr_path and va_path")
        if self.dataset_path is not None and {self.tr_path, self.va_path, self.te_path} != {None}:
            raise ConfigError("dataset_path and tr_path/va_path/te_path are mutually exclusive")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if not 0 <= self.seed < 1 << 63:   # derive_seed keeps 63 bits
            raise ConfigError(f"seed must be in [0, 2**63), got {self.seed}")
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
        # The owning modules' rules, each stated once there (``_by_owner``).
        self._by_owner(check_n_features, "n_features")
        self._by_owner(model.check_train_settings, "reg_c", "train_tol", "train_max_iter")
        self._by_owner(lambda ratios: [sampling.check_ratio(r) for r in ratios], "ratios")
        self._by_owner(lambda alphas: [sampling.check_alpha(a) for a in alphas], "sigmoid_alphas")
        self._by_owner(check_flip_fraction, "flip_fraction")
        self.pcg = self._by_owner(PcgConfig, "pcg_tol", "pcg_max_iter")
        self.split_spec = (self._by_owner(SplitSpec, "va_fraction", "te_fraction", "split_seed")
                           if self.dataset_path is not None else None)
        labels = [label for label, _, _ in expand_methods(self)]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"sigmoid alphas alike to 6 digits share the label {label!r}")

    def _by_owner(self, owner, *keys):
        """``owner`` called once per key on the values of ``keys`` so far, its
        defaults standing in for the rest, so a refusal, re-raised as
        ConfigError, names the key just added. Returns the last result."""
        for j, key in enumerate(keys, start=1):
            try:
                result = owner(*(getattr(self, k) for k in keys[:j]))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        return result


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

    alpha is the sigmoid alpha, else None (linear takes 1/max|phi|).
    """
    out = []
    for m in cfg.methods:
        if m == "sigmoid":
            for a in cfg.sigmoid_alphas:
                out.append((f"sigmoid@{a:g}", "sigmoid", float(a)))
        else:
            out.append((m, m, None))
    return out


def run_pipeline(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full experiment grid defined by ``cfg``.

    Influence scores are computed once against the validation split and
    shared by every cell. A full-set fit that misses its tolerance raises
    ConvergenceError, since influence is only meaningful at an optimum.
    Every cell is drawn first. Cells whose weight columns are equal (the
    same rows, and for optlr the same probabilities) are fitted once, and
    the result is written to each under its own labels. The distinct
    columns are refitted warm from the full-set theta as lockstep columns of
    ``model.fit_columns``, in blocks of near-equal width, the same number
    per CPU (``parallel.column_blocks``), run side by side
    (``parallel.map_blocks``). Each block then scores its converged fits
    together, from one (d, k) block of thetas (``_score_cells``). Since
    each column's fit, and each column's metrics, are bit for bit those of
    the cell alone, neither the plan nor the shared fits change any digit
    of the report. A cell whose draw fails or whose fit misses its
    tolerance records that on its own result; a block whose fit or scoring
    raises fails each of its cells; neither aborts the grid. With
    flip_fraction above 0, training labels are corrupted (seeded) before the
    full fit, while validation and test stay clean; test accuracy is then
    also reported, if a label was flipped.
    """
    t_start = time.perf_counter()
    tr, va, te = load_splits(cfg)
    clean_y = tr.y
    if cfg.flip_fraction:
        tr = flip_labels(tr, cfg.flip_fraction, derive_seed(cfg.seed, "flip", cfg.flip_fraction))

    full = model.train(tr, cfg.reg_c, tol=cfg.train_tol, max_iter=cfg.train_max_iter)
    _require_converged(full, "full-set fit")
    full_va = model.mean_logloss(full, va)
    [full_te], [full_acc] = model.score_columns(full.theta[:, None], te)

    labels = expand_methods(cfg)
    scores = {sampling.METHODS[base] for _, base, _ in labels}
    t_inf = time.perf_counter()
    phi = influence.compute_phi(full, tr, va, cfg.pcg).phi if "phi" in scores else None
    psi = influence.compute_psi_norms(full, tr, cfg.pcg) if "psi" in scores else None
    influence_seconds = time.perf_counter() - t_inf

    # Draw every plan first; draws are seeded per cell, so their order
    # changes nothing. A cell that fails here records its error and fits
    # nothing. One (method, ratio) shares its probabilities across repeats.
    # Each weight column maps to its cells, rows and optlr probabilities,
    # and is fitted as its first cell: dropout's repeats draw the same rows.
    # A column is set by its rows and whether they carry optlr's ratio-free weights.
    cells: list[CellResult] = []
    columns: dict[tuple, tuple[list[int], np.ndarray, np.ndarray | None]] = {}
    for ratio in cfg.ratios:
        for label, base, alpha in labels:
            probs = None
            for repeat in range(cfg.repeats):
                cell = CellResult(method=label, ratio=ratio, repeat=repeat,
                                  seed=derive_seed(cfg.seed, label, ratio, repeat))
                try:
                    if probs is None:
                        probs = sampling.probs_for(base, ratio, phi, psi, alpha, n=tr.n_rows)
                    selected = _draw_cell(tr, probs, base, ratio, cell.seed, phi)
                    optlr = base == "optlr"
                    key = (selected.tobytes(), optlr)
                    columns.setdefault(key, ([], selected, probs if optlr else None))
                    columns[key][0].append(len(cells))
                except Exception as exc:
                    cell = _failed(cell, exc)
                cells.append(cell)

    def fit_block(block: list[tuple[list[int], np.ndarray, np.ndarray | None]]) -> list[CellResult]:
        firsts = [cells[ids[0]] for ids, _, _ in block]
        try:
            return _score_cells(firsts, full, _fit_cells(cfg, tr, full, block), va, te)
        except Exception as exc:
            return [_failed(cell, exc) for cell in firsts]

    drawn = list(columns.values())
    blocks = [drawn[cols] for cols in parallel.column_blocks(len(drawn), tr.X)]
    for block, results in zip(blocks, parallel.map_blocks(fit_block, blocks)):
        for (ids, _, _), result in zip(block, results):
            for i in ids:
                c = cells[i]
                cells[i] = dataclasses.replace(result, method=c.method, ratio=c.ratio,
                                               repeat=c.repeat, seed=c.seed)

    return ExperimentReport(
        cells=cells,
        full_va_logloss=full_va,
        full_te_logloss=full_te,
        full_te_accuracy=full_acc,
        methods=[label for label, _, _ in labels],
        ratios=[float(r) for r in cfg.ratios],
        with_accuracy=bool(np.any(tr.y != clean_y)),
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
    """A cell's draw, as a mask over the training rows; a draw of one class or none raises."""
    rows = sampling.draw_subset(probs, ratio, tr.y, base, seed, phi=phi).selected
    model.check_two_classes(tr.y[rows])
    selected = np.zeros(tr.n_rows, dtype=bool)
    selected[rows] = True
    return selected


def _cell_weights(n: int, rows: np.ndarray, probs: np.ndarray | None) -> float | np.ndarray:
    """The weights of a cell's selected rows in its column of the fit block.

    Each is n / n_sub, times optlr's inverse-probability weight
    n_sub / (n pi_i) when ``probs`` is given. The column's weighted mean
    loss over all n rows is then the subset's mean loss under those weights,
    and the column mean is the subset's mean weight. The fit scales its
    penalty by that mean, so scaling every weight of a column does not move
    its minimizer: optlr's weights need not, and do not, average 1.
    """
    scale = n / rows.size
    if probs is None:
        return scale
    return scale * (rows.size / (n * probs[rows]))


def _fit_cells(cfg: ExperimentConfig, tr: SparseDataset, full: ModelParams,
               block: list[tuple[list[int], np.ndarray, np.ndarray | None]]) -> list[ModelParams]:
    """Fit a block of drawn cells in lockstep, each warm from the full-set fit."""
    W = np.zeros((tr.n_rows, len(block)), order="F")
    for j, (_, selected, probs) in enumerate(block):
        rows = np.flatnonzero(selected)
        W[rows, j] = _cell_weights(tr.n_rows, rows, probs)
    return model.fit_columns(tr, cfg.reg_c, W, full.theta, cfg.train_tol, cfg.train_max_iter)


def _score_cells(cells: list[CellResult], full: ModelParams, fits: list[ModelParams],
                 va: SparseDataset, te: SparseDataset) -> list[CellResult]:
    """The held-out metrics of a block's fitted cells, scored in one pass.

    The converged fits are the columns of one order-F (d, k) Theta, which
    ``model.score_columns`` scores on each held-out set with one product;
    gamma is ``model._dot`` of each column's shift from the full-set theta.
    Each metric is then bit for bit ``model.mean_logloss``,
    ``model.accuracy`` or ``risk.gamma_shift`` of that fit alone. A
    non-converged fit fails only its own cell.
    """
    results, scored = list(cells), []
    for j, fit in enumerate(fits):
        try:
            _require_converged(fit, "cell fit")
            scored.append(j)
        except ConvergenceError as exc:
            results[j] = _failed(cells[j], exc)
    if not scored:
        return results
    Theta = np.array([fits[j].theta for j in scored]).T
    shift = np.subtract(Theta, full.theta[:, None], order="F")
    gamma = model._dot(shift, shift)
    va_loss, _ = model.score_columns(Theta, va)
    te_loss, te_acc = model.score_columns(Theta, te)
    for j, va_j, te_j, acc_j, gamma_j in zip(scored, va_loss, te_loss, te_acc, gamma.tolist()):
        results[j] = dataclasses.replace(results[j], va_logloss=va_j, te_logloss=te_j,
                                         te_accuracy=acc_j, gamma=gamma_j)
    return results


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
    carries the full-set baseline as a ``full`` row; ``with_gamma`` adds
    ``_gamma.csv``, the mean parameter shift per ratio and method.
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
