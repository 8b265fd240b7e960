"""Sparse binary-classification datasets.

Covers ingestion of libsvm/svmlight text files, deterministic label-stratified
splitting, and seeded label corruption. Feature matrices are CSR throughout;
labels are canonical {0, 1}.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp


class DataError(ValueError):
    """Malformed input data or an invalid dataset operation."""


def _fmt(x: float) -> str:
    """Shortest text that reads back as the same float; every CSV writer uses it."""
    return repr(float(x))


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Stream each string out as one line of UTF-8 text; OSError becomes RuntimeError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def read_lines(path: str) -> list[str]:
    """The stripped, nonblank lines of a UTF-8 text file; OSError becomes RuntimeError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise RuntimeError(f"cannot read {path}: {exc}") from exc


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up, regardless of the
    platform's banker's rounding."""
    return int(np.floor(x + 0.5))


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """Rows of sparse feature vectors with one 0/1 label per row.

    ``X`` must be a canonical CSR array (indices per row strictly increasing,
    no duplicates) with a fixed feature dimension; ``y`` is flat and binary.
    Instances are treated as immutable: every operation returns a new dataset
    and shares the feature matrix where the rows are unchanged.
    """

    X: sp.csr_array
    y: np.ndarray

    def __post_init__(self) -> None:
        X = self.X
        y = np.asarray(self.y)
        if not sp.issparse(X) or X.format != "csr":
            raise DataError("features must be a CSR sparse array")
        if y.ndim != 1:
            raise DataError("labels must be a flat array")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"{X.shape[0]} feature rows but {y.shape[0]} labels")
        if y.size and not np.all((y == 0) | (y == 1)):
            raise DataError("labels must be 0 or 1")
        if X.nnz and not np.all(np.isfinite(X.data)):
            raise DataError("feature values must be finite")
        if not X.has_canonical_format:
            raise DataError("feature rows must have sorted, duplicate-free indices")
        object.__setattr__(self, "y", y.astype(np.int8, copy=False))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def positive_fraction(self) -> float:
        if self.n_rows == 0:
            return float("nan")
        return float(np.mean(self.y == 1))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (indices, values) for row ``i``."""
        lo, hi = self.X.indptr[i], self.X.indptr[i + 1]
        return self.X.indices[lo:hi], self.X.data[lo:hi]

    def subset(self, rows: np.ndarray) -> "SparseDataset":
        """New dataset holding ``rows`` in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return SparseDataset(self.X[rows], self.y[rows])


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of rows routed to validation and test, plus the shuffle seed.

    The training fraction is the remainder. ``te_fraction`` may be zero, in
    which case the test split is empty by construction.
    """

    va_fraction: float
    te_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.va_fraction < 1.0:
            raise DataError(f"va_fraction must be in (0, 1), got {self.va_fraction}")
        if not 0.0 <= self.te_fraction < 1.0:
            raise DataError(f"te_fraction must be in [0, 1), got {self.te_fraction}")
        if self.va_fraction + self.te_fraction >= 1.0:
            raise DataError("va_fraction + te_fraction must leave room for training rows")


def parse_libsvm(source: Iterable[str] | IO[str], n_features: int | None = None) -> SparseDataset:
    """Parse svmlight/libsvm text into a SparseDataset.

    Each non-blank line is ``label idx:val idx:val ...``. Accepted label
    alphabets are {0,1} (kept as-is), {-1,+1} (mapped to {0,1}) and {1,2}
    (mapped to {0,1}); precedence is in that order, so an all-1 file reads as
    all-positive. Indices may start at 0 or 1 and are stored as given; the
    feature dimension is max index + 1 unless ``n_features`` overrides it.
    Malformed lines raise DataError with their 1-based line number.
    """
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = -1

    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataError(f"line {line_no}: bad label {tokens[0]!r}") from None
        if label != int(label):
            raise DataError(f"line {line_no}: non-integer label {tokens[0]!r}")
        labels.append(int(label))

        row_idx: list[int] = []
        row_val: list[float] = []
        for tok in tokens[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise DataError(f"line {line_no}: expected idx:val, got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"line {line_no}: bad feature {tok!r}") from None
            if idx < 0:
                raise DataError(f"line {line_no}: negative feature index {idx}")
            if not np.isfinite(val):
                raise DataError(f"line {line_no}: non-finite value in {tok!r}")
            row_idx.append(idx)
            row_val.append(val)

        if len(set(row_idx)) != len(row_idx):
            raise DataError(f"line {line_no}: duplicate feature index")
        order = np.argsort(row_idx, kind="stable")
        indices.extend(row_idx[k] for k in order)
        values.extend(row_val[k] for k in order)
        indptr.append(len(indices))
        if row_idx:
            max_index = max(max_index, max(row_idx))

    label_set = set(labels)
    if label_set <= {0, 1}:
        y = np.array(labels, dtype=np.int8)
    elif label_set <= {-1, 1}:
        y = np.array([(v + 1) // 2 for v in labels], dtype=np.int8)
    elif label_set <= {1, 2}:
        y = np.array([v - 1 for v in labels], dtype=np.int8)
    else:
        raise DataError(f"label alphabet {sorted(label_set)} is not a recognized binary coding")

    if n_features is None:
        d = max_index + 1
    else:
        if n_features < 0:
            raise DataError("n_features must be nonnegative")
        if max_index >= n_features:
            raise DataError(f"feature index {max_index} overflows dimension {n_features}")
        d = n_features

    X = sp.csr_array(
        (np.asarray(values, dtype=np.float64),
         np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), d),
    )
    return SparseDataset(X, y)


def load_libsvm(path: str, n_features: int | None = None) -> SparseDataset:
    """Read a libsvm file from disk; names ending in .gz are gunzipped."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:  # type: ignore[operator]
            return parse_libsvm(fh, n_features=n_features)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_libsvm(ds: SparseDataset, path: str, label_style: str = "01") -> None:
    """Write a dataset back out as libsvm text.

    ``label_style`` is "01" or "pm1"; indices are written exactly as stored.
    """
    if label_style not in ("01", "pm1"):
        raise DataError(f"unknown label_style {label_style!r}")

    def rows():
        for i in range(ds.n_rows):
            lab = int(ds.y[i])
            if label_style == "pm1":
                lab = 1 if lab == 1 else -1
            idx, val = ds.row(i)
            parts = [str(lab)]
            parts.extend(f"{j}:{v!r}" for j, v in zip(idx, (float(v) for v in val)))
            yield " ".join(parts)

    write_lines(path, rows())


def with_feature_dim(ds: SparseDataset, n_features: int) -> SparseDataset:
    """Widen (or confirm) the feature dimension without touching stored entries."""
    if n_features == ds.n_features:
        return ds
    if ds.X.nnz and n_features <= int(ds.X.indices.max()):
        raise DataError(f"dimension {n_features} drops populated columns")
    X = sp.csr_array((ds.X.data, ds.X.indices, ds.X.indptr), shape=(ds.n_rows, n_features))
    return SparseDataset(X, ds.y)


def split(ds: SparseDataset, spec: SplitSpec) -> tuple[SparseDataset, SparseDataset, SparseDataset]:
    """Label-stratified (train, validation, test) split.

    Rows of each class are shuffled with the spec seed and dealt to test,
    then validation, with training taking the remainder, so each split's
    class ratio matches the parent's to within one row per class. Raises
    DataError if any split that should be nonempty would miss a class
    entirely (an empty test split from te_fraction == 0 is fine).
    """
    rng = np.random.default_rng(spec.seed)
    parts: dict[str, list[np.ndarray]] = {"tr": [], "va": [], "te": []}
    for label in (0, 1):
        cls = np.flatnonzero(ds.y == label)
        perm = cls[rng.permutation(cls.size)]
        n_te = round_half_up(spec.te_fraction * cls.size)
        n_va = round_half_up(spec.va_fraction * cls.size)
        parts["te"].append(perm[:n_te])
        parts["va"].append(perm[n_te:n_te + n_va])
        parts["tr"].append(perm[n_te + n_va:])

    for name in ("tr", "va", "te"):
        if name == "te" and spec.te_fraction == 0.0:
            continue
        for label in (0, 1):
            if parts[name][label].size == 0:
                raise DataError(f"split would leave {name} with no rows of class {label}")

    out = tuple(ds.subset(np.sort(np.concatenate(parts[name]))) for name in ("tr", "va", "te"))
    return out  # type: ignore[return-value]


def flip_labels(ds: SparseDataset, fraction: float, seed: int) -> SparseDataset:
    """Toggle the labels of a seeded random subset of rows.

    Flips round_half_up(fraction * n) distinct rows. The same seed picks the
    same rows, so applying the operation twice restores the original labels.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"flip fraction must be in [0, 1], got {fraction}")
    k = round_half_up(fraction * ds.n_rows)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.n_rows, size=k, replace=False)
    y = ds.y.copy()
    y[chosen] = 1 - y[chosen]
    return SparseDataset(ds.X, y)
