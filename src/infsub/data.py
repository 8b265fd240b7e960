"""Sparse binary-classification datasets.

Covers ingestion of libsvm/svmlight text files, deterministic label-stratified
splitting, and seeded label corruption. Feature matrices are CSR throughout;
labels are canonical {0, 1}.
"""

from __future__ import annotations

import gzip
import itertools
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .parallel import map_blocks


class DataError(ValueError):
    """Malformed input data or an invalid dataset operation."""


def read_lines(path: str) -> list[tuple[int, str]]:
    """The nonblank lines of a UTF-8 text file (universal newlines), stripped,
    each with its 1-based number; OSError becomes DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return [(no, s) for no, ln in enumerate(text.split("\n"), 1) if (s := ln.strip())]


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Stream each string out as one line of UTF-8 text; OSError becomes DataError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_table(path: str, header: Sequence[str], columns: Sequence,
                comment: str | None = None) -> None:
    """Write a CSV table given column by column, under an optional ``# comment`` line.

    Each column's formatter is chosen once from its numpy dtype: floats by
    ``repr`` of the Python floats ``tolist`` gives, the shortest text that
    reads back as the same float; anything else by ``str``. Columns must be
    equally long.
    """
    cells = []
    for col in columns:
        col = np.asarray(col)
        cells.append(map(repr if col.dtype.kind == "f" else str, col.tolist()))
    head = [] if comment is None else [f"# {comment}"]
    write_lines(path, itertools.chain(
        head, [",".join(header)], map(",".join, zip(*cells, strict=True))))


def read_table(path: str) -> tuple[str | None, list[str], list[list[str]]]:
    """Read a table written by ``write_table`` as (comment, header, columns).

    Blank lines are skipped and cells stay text. Every row must be as wide
    as the header, and a leading ``index`` column must count 0..n-1 in
    order; either failure raises ValueError naming the file. An unreadable
    file raises DataError.
    """
    lines = [ln for _, ln in read_lines(path)]
    comment = lines.pop(0).lstrip("#").strip() if lines and lines[0].startswith("#") else None
    if not lines:
        raise ValueError(f"{path}: empty table, no header")
    header, body = lines[0].split(","), lines[1:]
    width = len(header)
    for ln in body:
        if ln.count(",") != width - 1:
            raise ValueError(f"{path}: bad row {ln!r}")
    cells = ",".join(body).split(",") if body else []
    columns = [cells[k::width] for k in range(width)]
    if header[0] == "index" and columns[0] != [str(i) for i in range(len(body))]:
        raise ValueError(f"{path}: rows must be indexed 0..n-1 in order")
    return comment, header, columns


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
        if self.seed < 0:
            raise DataError(f"split seed must be nonnegative, got {self.seed}")


# libsvm text is read as latin-1, which maps each byte to one character and
# back, so a block of whole lines comes back as the file's own bytes; each
# block is split, checked and converted with numpy rather than token by token,
# the blocks side by side on every CPU. A block's temporaries take several
# times its size and one block per CPU is in memory at once, so blocks stay
# small: loading a 7 MB file on 2 CPUs peaked at 84 MiB resident with
# 128 KiB blocks, and at 103 MiB with 512 KiB blocks.
BLOCK_BYTES = 1 << 17
# libsvm text is written a batch of rows at a time, about this many entries.
WRITE_ENTRIES = 1 << 12
_INDEX_MAX = np.iinfo(np.int32).max
# A decimal's digits read exactly as a double below _EXACT. _WIDE characters
# hold the repr of any float that repr writes without an exponent.
_EXACT = 1 << 53
_WIDE = 24
_POW10 = np.array([float(10**f) for f in range(23)])    # the powers of ten doubles hold exactly


# Bytes no number can hold: all but blanks, digits, signs, the point, the
# exponent and the letters of inf, infinity and nan (colons are counted
# apart). Blanks are the ASCII whitespace str.split() splits on; line ends
# are "\n" alone by the time a block is parsed, text mode having read
# "\r\n" and a bare "\r" as "\n".
_STRAY = bytes(0 if b in b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f0123456789+-.eEinfatyINFATY:" else 1
               for b in range(256))        # a bytes.translate table

# What can be wrong with one token, in the order its checks run, and what
# the error then says.
_BAD_LABEL, _NONINT_LABEL, _NO_COLON, _BAD_FEATURE, _NEGATIVE, _HUGE, _NONFINITE = range(1, 8)
_MESSAGES = {
    _BAD_LABEL: "bad label {tok!r}",
    _NONINT_LABEL: "non-integer label {tok!r}",
    _NO_COLON: "expected idx:val, got {tok!r}",
    _BAD_FEATURE: "bad feature {tok!r}",
    _NEGATIVE: "negative feature index {index}",
    _HUGE: "feature index {index} exceeds " + str(_INDEX_MAX),
    _NONFINITE: "non-finite value in {tok!r}",
}


def _token_error(fault: int, token: bytes, line_no: int) -> DataError:
    tok = token.decode("utf-8", "replace")
    # An out-of-range index is a sign and digits; written as int() would, but
    # from the text, since int() refuses more than 4300 digits.
    text = tok.partition(":")[0]
    sign = "-" if text.startswith("-") else ""
    index = sign + (text.lstrip("+-").lstrip("0") or "0")
    return DataError(f"line {line_no}: " + _MESSAGES[fault].format(tok=tok, index=index))


def _line_blocks(fh: IO[str]) -> Iterator[tuple[bytes, int]]:
    """Whole lines of a libsvm text stream (latin-1, universal newlines), read
    about BLOCK_BYTES characters and the rest of a line at a time, each block
    as the bytes it decodes from, with the count of lines before it."""
    line0 = 0
    for text in iter(lambda: fh.read(BLOCK_BYTES) + fh.readline(), ""):
        yield text.encode("latin-1"), line0
        line0 += text.count("\n")


def _parse_block(block: bytes, line0: int) -> tuple[np.ndarray, ...]:
    """Labels, per-row entry counts, indices and values of whole libsvm lines
    whose first is line ``line0 + 1``; indices come sorted within each row.

    Raises the DataError of the first faulty line; within a line, of its
    first faulty token, and a duplicate index only if every token is sound.
    """
    a = np.frombuffer(block + b"\n", dtype=np.uint8)   # every token ends at a blank
    blank = (a == ord(" ")) | (a - 9 <= 4) | (a - 28 <= 3)   # " ", "\t" to "\r", "\x1c" to "\x1f"
    edges = np.flatnonzero(np.diff(~blank, prepend=False, append=False))
    start, end = edges[0::2], edges[1::2]
    line = np.searchsorted(np.flatnonzero(a == ord("\n")), start)
    is_label = np.ones(start.size, dtype=bool)
    is_label[1:] = line[1:] != line[:-1]
    feat = ~is_label
    row = np.cumsum(is_label) - 1

    colons = np.flatnonzero(a == ord(":"))
    owner = np.searchsorted(start, colons, side="right") - 1
    n_colon = np.bincount(owner, minlength=start.size)
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    sep = end.copy()                        # a token's first colon, if it has one
    sep[owner[first]] = colons[first]
    stray = np.zeros(start.size, dtype=bool)
    stray_at = np.flatnonzero(np.frombuffer(block.translate(_STRAY), dtype=bool))
    stray[np.searchsorted(start, stray_at, side="right") - 1] = True
    num_lo = np.where(is_label, start, sep + 1)   # where a token's label or value starts

    # Each label, and the index and the value of each one-colon feature, is
    # read here one character column at a time, after at most one sign: m
    # holds its digits as a number, exact below 2**53, ``digits`` and
    # ``points`` count its digits and points, and ``frac`` the digits after
    # a point. A column reads every number, and one that has ended reads
    # the blank or colon after it, which counts as neither. Only the first
    # _WIDE columns are read.
    has_num = ~stray & np.where(is_label, n_colon == 0, (n_colon == 1) & (sep < end - 1))
    tok = np.flatnonzero(has_num)
    at_index = tok[feat[tok]]
    lo = np.concatenate((start[at_index], num_lo[tok]))
    hi = np.concatenate((sep[at_index], end[tok]))
    negative = a[lo] == ord("-")
    text_lo = lo.copy()                     # where a number's text starts, sign and all
    lo += negative | (a[lo] == ord("+"))
    width = hi - lo
    m = np.zeros(lo.size)
    digits, points, frac = (np.zeros(lo.size, dtype=np.uint8) for _ in range(3))
    for k in range(min(width.max(initial=0), _WIDE)):
        c = a[np.minimum(lo + k, hi)]
        digit = c - ord("0")
        is_digit = (digit <= 9).view(np.uint8)
        digits += is_digit
        points += c == ord(".")
        frac += is_digit & (points > 0)
        m *= is_digit * 9 + 1
        m += digit * is_digit

    # An index must be all digits. A value of digits and at most one point,
    # with m below 2**53 and at most 22 digits after the point, is exactly
    # m / 10**frac: both are exact doubles, so that one division rounds as
    # float() does (Clinger's fast path), and "-0" stays -0.0.
    n_index = at_index.size
    read = (digits > 0) & (digits + points == width)
    read[:n_index] &= points[:n_index] == 0
    read[n_index:] &= ((points[n_index:] <= 1) & (m[n_index:] < _EXACT)
                       & (frac[n_index:] < _POW10.size))
    np.negative(m, out=m, where=negative)
    found = np.where(read, m / _POW10[np.where(read, frac, 0)], np.nan)
    # Any other number is read by float() from its text, sign included; an
    # index only if it is digits alone after its sign, whose float() is exact
    # below 2**53 and past 2**31 - 1 above it, however many digits. A number
    # float() refuses stays NaN and its token not ok. The texts are sliced
    # in one comprehension, quicker than one at a time in the loop.
    unread = np.flatnonzero(~read)
    texts = [block[i:k] for i, k in zip(text_lo[unread].tolist(), hi[unread].tolist())]
    numbers, refused = [], []
    for s, text in zip(unread.tolist(), texts):
        try:
            if s < n_index and not block[lo[s]:hi[s]].isdigit():
                raise ValueError
            numbers.append(float(text))
        except ValueError:
            numbers.append(np.nan)
            refused.append(s)
    found[unread] = numbers
    index = np.zeros(start.size)
    index[at_index] = found[:n_index]
    num = np.full(start.size, np.nan)
    num[tok] = found[n_index:]
    ok = has_num.copy()
    ok[np.concatenate((at_index, tok))[refused]] = False

    fault = np.select(
        [is_label & ~ok, is_label & ~(np.isfinite(num) & (num == np.floor(num))),
         feat & (n_colon == 0), feat & ~ok, feat & (index < 0), feat & (index > _INDEX_MAX),
         feat & ~np.isfinite(num)],
        [_BAD_LABEL, _NONINT_LABEL, _NO_COLON, _BAD_FEATURE, _NEGATIVE, _HUGE, _NONFINITE], 0)

    index, value, frow = index[feat], num[feat], row[feat]
    same_row = frow[1:] == frow[:-1]
    unsorted = same_row & (index[1:] < index[:-1])
    if unsorted.any():
        # Sort only the rows that are out of order.
        at = np.flatnonzero(np.isin(frow, frow[1:][unsorted]))
        order = at[np.lexsort((index[at], frow[at]))]
        index[at], value[at] = index[order], value[order]
    dup_rows = frow[1:][same_row & (index[1:] == index[:-1])]

    faulty = np.flatnonzero(fault)
    if faulty.size or dup_rows.size:
        row_line = line[is_label]
        if faulty.size and not (dup_rows.size and row_line[dup_rows[0]] < line[faulty[0]]):
            t = faulty[0]
            raise _token_error(int(fault[t]), block[start[t]:end[t]], line0 + int(line[t]) + 1)
        raise DataError(f"line {line0 + int(row_line[dup_rows[0]]) + 1}: duplicate feature index")
    return (num[is_label], np.bincount(frow, minlength=int(is_label.sum())),
            index.astype(np.int32), value)


def _read_libsvm(fh: IO[str], n_features: int | None) -> SparseDataset:
    """Parse a libsvm text stream (latin-1, universal newlines) into one
    SparseDataset, its blocks parsed side by side on every CPU and joined in
    file order."""
    parts = [(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32),
              np.empty(0))]
    parts += map_blocks(lambda numbered: _parse_block(*numbered), _line_blocks(fh))
    labels, counts, indices, values = (np.concatenate(p) for p in zip(*parts))
    del parts

    label_set = {int(v) for v in np.unique(labels)}
    if label_set <= {0, 1}:
        y = labels
    elif label_set <= {-1, 1}:
        y = (labels + 1) / 2
    elif label_set <= {1, 2}:
        y = labels - 1
    else:
        raise DataError(f"label alphabet {sorted(label_set)} is not a recognized binary coding")

    max_index = int(indices.max()) if indices.size else -1
    if n_features is None:
        d = max_index + 1
    else:
        if max_index >= n_features:
            raise DataError(f"feature index {max_index} overflows dimension {n_features}")
        d = n_features

    # int32 row pointers, while the entries fit, keep scipy from widening
    # the int32 indices to int64 alongside them.
    ptr_type = np.int32 if indices.size <= _INDEX_MAX else np.int64
    indptr = np.zeros(labels.size + 1, dtype=ptr_type)
    np.cumsum(counts, out=indptr[1:])
    X = sp.csr_array((values, indices, indptr), shape=(labels.size, d))
    return SparseDataset(X, y.astype(np.int8))


def check_n_features(n_features: int | None) -> None:
    """Refuse a feature dimension below 0, or above 2**31 where no index reaches."""
    if n_features is not None and n_features < 0:
        raise DataError(f"n_features must be nonnegative, got {n_features}")
    if n_features is not None and n_features > _INDEX_MAX + 1:
        raise DataError(f"n_features must be at most {_INDEX_MAX + 1}, got {n_features}")


def load_libsvm(path: str, n_features: int | None = None) -> SparseDataset:
    """Read an svmlight/libsvm file into a SparseDataset.

    Names ending in .gz are gunzipped. The file is read as text, latin-1
    with universal newlines: "\\n", "\\r\\n" and a bare "\\r" end a line. A
    non-blank line is ``label idx:val idx:val ...``, split on ASCII
    whitespace. Accepted label alphabets are {0,1} (kept as-is), {-1,+1}
    (mapped to {0,1}) and {1,2} (mapped to {0,1}); precedence is in that
    order, so an all-1 file reads as all-positive. A label is any integral
    number; an index is ASCII digits with an optional sign, at most
    2**31 - 1; a value is any finite number float() reads, in ASCII and
    without underscores. Indices may start at 0 or 1, in any order within a
    row, and are stored as given; the feature dimension is max index + 1
    unless ``n_features`` overrides it. An ``n_features`` that is negative,
    or above 2**31 where no index can reach, raises DataError before the
    file is opened; an unreadable file, or a malformed line named by its
    1-based number, raises it after the path.

    Every number reads as float() reads it. A plain decimal, ``[sign] digits
    [. digits]`` whose digits form an integer below 2**53 with at most 22
    after the point, is converted exactly with numpy (Clinger's fast path);
    any other number is read by float() itself. Blocks of lines are parsed
    on every CPU, and the result does not depend on how many there are.
    """
    check_n_features(n_features)
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="latin-1") as fh:  # type: ignore[operator]
            return _read_libsvm(fh, n_features)
    except (OSError, EOFError) as exc:   # EOFError: a truncated gzip stream
        raise DataError(f"cannot read {path}: {exc}") from exc
    except DataError as exc:             # a malformed line, or an unusable label set
        raise DataError(f"{path}: {exc}") from None


def write_libsvm(ds: SparseDataset, path: str) -> None:
    """Write a dataset back out as libsvm text.

    Labels are written 0/1; indices exactly as stored, and values by
    ``repr``, the shortest text that reads back as the same float.
    """
    X = ds.X
    nnz = int(X.indptr[-1])
    # One string per index used and per distinct value; values are told
    # apart by their bits, so 0.0 and -0.0 keep their own text.
    used, idx_of = np.unique(X.indices[:nnz], return_inverse=True)
    bits, val_of = np.unique(X.data[:nnz].view(np.uint64), return_inverse=True)
    idx_s = np.array([f"{j}:" for j in used.tolist()], dtype=object)
    val_s = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    labels = np.array(["0", "1"], dtype=object)[ds.y]

    def lines() -> Iterator[str]:
        # Rows go out in batches of about WRITE_ENTRIES entries, which bounds
        # the memory their strings take.
        firsts = np.searchsorted(X.indptr, np.arange(0, nnz, WRITE_ENTRIES), side="right") - 1
        cuts = np.unique(np.concatenate(([0], firsts, [ds.n_rows]))).tolist()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            ptr = X.indptr[lo:hi + 1] - X.indptr[lo]
            span = slice(X.indptr[lo], X.indptr[hi])
            tokens = idx_s[idx_of[span]] + val_s[val_of[span]]
            # Row i of the batch is its label, placed at ptr[i] + i, then its tokens.
            words = np.insert(tokens, ptr[:-1], labels[lo:hi]).tolist()
            bounds = (ptr + np.arange(hi - lo + 1)).tolist()
            yield from (" ".join(words[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))

    write_lines(path, lines())


def load_aligned(paths: Sequence[str], n_features: int | None = None) -> list[SparseDataset]:
    """Load libsvm files read together (``load_libsvm``), in order, each
    widened to the largest feature dimension among them; the stored entries
    are shared, and a file already that wide is returned as loaded."""
    parts = [load_libsvm(path, n_features) for path in paths]
    d = max(ds.n_features for ds in parts)
    return [ds if ds.n_features == d else SparseDataset(
        sp.csr_array((ds.X.data, ds.X.indices, ds.X.indptr), shape=(ds.n_rows, d)), ds.y)
        for ds in parts]


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


def check_flip_fraction(fraction: float) -> None:
    """Refuse a fraction of labels to flip outside [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"flip_fraction must be in [0, 1], got {fraction}")


def flip_labels(ds: SparseDataset, fraction: float, seed: int) -> SparseDataset:
    """Toggle the labels of a seeded random subset of rows.

    Flips round_half_up(fraction * n) distinct rows. The same seed picks the
    same rows, so applying the operation twice restores the original labels.
    """
    check_flip_fraction(fraction)
    k = round_half_up(fraction * ds.n_rows)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.n_rows, size=k, replace=False)
    y = ds.y.copy()
    y[chosen] = 1 - y[chosen]
    return SparseDataset(ds.X, y)
