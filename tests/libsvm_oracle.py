"""The token-by-token libsvm reader and writer that ``infsub.data`` once used.

Kept verbatim as oracles for the block-wise numpy versions: the differential
tests in ``test_libsvm_fuzz.py`` demand the same datasets, the same error
lines and the same bytes from both.
"""

from typing import IO, Iterable

import numpy as np
import scipy.sparse as sp

from infsub.data import DataError, SparseDataset, write_lines


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

    # Both index arrays are int32 while the entries fit in it.
    X = sp.csr_array(
        (np.asarray(values, dtype=np.float64),
         np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int32 if len(indices) < 2**31 else np.int64)),
        shape=(len(labels), d),
    )
    return SparseDataset(X, y)


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
            lo, hi = ds.X.indptr[i], ds.X.indptr[i + 1]
            idx, val = ds.X.indices[lo:hi], ds.X.data[lo:hi]
            parts = [str(lab)]
            parts.extend(f"{j}:{v!r}" for j, v in zip(idx, (float(v) for v in val)))
            yield " ".join(parts)

    write_lines(path, rows())
