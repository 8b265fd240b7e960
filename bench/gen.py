"""Seeded click-through-shaped inputs and their canonical libsvm text.

Rows look like hashed click logs: index 1 is a constant bias feature, and
each of ``n_fields`` categorical fields is present with probability
``PRESENT``; a present field takes one category drawn with Zipf-like
popularity and hashes it into that field's own range of ``buckets`` feature
columns. Values are 1.0 and indices are 1-based (column 0 stays empty), so
the feature dimension is 2 + n_fields * buckets. Labels are Bernoulli draws
from a logistic model over the same buckets, with the bias set for a
minority positive class.

Everything here is computed from the seed with numpy alone, so the arrays
are the reference that files loaded or written by the program are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


PRESENT = 0.97       # chance that a row carries a given field
ZIPF = 1.1           # popularity exponent of the categories
POS_RATE = 0.25      # expected share of positive labels
WEIGHT_SCALE = 0.6   # standard deviation of the true per-bucket weights


@dataclass(frozen=True)
class Shape:
    """The size of one generated file."""

    n_rows: int
    n_fields: int
    buckets: int

    @property
    def n_features(self) -> int:
        return 2 + self.n_fields * self.buckets


@dataclass(frozen=True)
class Rows:
    """CSR arrays plus 0/1 labels, rows in canonical index order."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    y: np.ndarray
    n_features: int

    @property
    def n_rows(self) -> int:
        return self.y.size

    def take(self, rows: np.ndarray) -> "Rows":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        lo, hi = self.indptr[rows], self.indptr[rows + 1]
        counts = hi - lo
        indptr = np.concatenate(([0], np.cumsum(counts)))
        flat = np.repeat(lo - indptr[:-1], counts) + np.arange(indptr[-1])
        return Rows(indptr, self.indices[flat], self.data[flat], self.y[rows],
                    self.n_features)


def generate(shape: Shape, seed: int) -> Rows:
    """One file's rows, drawn from ``numpy.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n, f, b = shape.n_rows, shape.n_fields, shape.buckets
    # Per field: a vocabulary size between 2x and 40x its bucket count, and a
    # fixed hash of every category into the field's bucket range.
    vocab = np.exp(rng.uniform(np.log(2 * b), np.log(40 * b), size=f)).astype(np.int64)
    cols = np.empty((n, f), dtype=np.int64)
    for k in range(f):
        rank = np.arange(1, vocab[k] + 1, dtype=np.float64)
        pop = rank ** -ZIPF
        cat = rng.choice(vocab[k], size=n, p=pop / pop.sum())
        hashed = rng.integers(0, b, size=vocab[k])
        cols[:, k] = 2 + k * b + hashed[cat]
    present = rng.random((n, f)) < PRESENT
    weights = rng.normal(scale=WEIGHT_SCALE, size=shape.n_features)
    weights[:2] = 0.0

    counts = 1 + present.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    # Field ranges are disjoint and increasing, so row order is already sorted.
    full = np.concatenate((np.ones((n, 1), dtype=np.int64), cols), axis=1)
    mask = np.concatenate((np.ones((n, 1), dtype=bool), present), axis=1)
    indices = full[mask].astype(np.int32)

    margin = np.add.reduceat(weights[indices], indptr[:-1])
    # Bisect the bias so that the mean label probability is POS_RATE.
    lo, hi = -30.0, 30.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(-(margin + mid)))) > POS_RATE:
            hi = mid
        else:
            lo = mid
    prob = 1.0 / (1.0 + np.exp(-(margin + lo)))
    y = (rng.random(n) < prob).astype(np.int8)
    return Rows(indptr, indices, np.ones(indices.size), y, shape.n_features)


def render(rows: Rows) -> bytes:
    """libsvm text exactly as ``infsub.data.write_libsvm`` lays it out:
    ``label idx:repr(value) ...``, labels 0/1, one line per row."""
    uniq, inverse = np.unique(rows.data, return_inverse=True)
    val_s = [repr(float(v)) for v in uniq]
    idx_s = [str(j) for j in range(rows.n_features)]
    toks = [idx_s[j] + ":" + val_s[k]
            for j, k in zip(rows.indices.tolist(), inverse.tolist())]
    ptr = rows.indptr.tolist()
    lab = rows.y.tolist()
    lines = [" ".join([str(lab[i])] + toks[ptr[i]:ptr[i + 1]]) for i in range(rows.n_rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def split_rows(y: np.ndarray, va_fraction: float, te_fraction: float,
               seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of the label-stratified (tr, va, te) split the program's
    documented rule produces: per class, a seeded permutation is dealt to
    te, then va, by round-half-up counts; tr takes the rest; rows keep file
    order."""
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for label in (0, 1):
        cls = np.flatnonzero(y == label)
        perm = cls[rng.permutation(cls.size)]
        n_te = int(np.floor(te_fraction * cls.size + 0.5))
        n_va = int(np.floor(va_fraction * cls.size + 0.5))
        parts[2].append(perm[:n_te])
        parts[1].append(perm[n_te:n_te + n_va])
        parts[0].append(perm[n_te + n_va:])
    return tuple(np.sort(np.concatenate(p)) for p in parts)  # type: ignore[return-value]
