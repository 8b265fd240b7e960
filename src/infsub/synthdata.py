"""Seeded synthetic datasets.

The two benchmark generators are stand-ins shaped like the small public
tumor-grading and diabetes-screening sets (row counts, feature layout,
class balance, and full-model test logloss in the same band). They exist so
the experiment suite runs self-contained; drop real libsvm files in their
place to reproduce published numbers. ``ill_conditioned`` builds a feature
matrix with scale spread 1..1e4 for preconditioner stress tests.

Run ``python -m infsub.synthdata OUTDIR`` to regenerate the bundled files.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .data import SparseDataset, write_libsvm

# Per-feature class centers and spreads on the 1..10 grading scale, benign
# vs malignant. The population is two well-separated bulk clouds plus a thin
# borderline band near the midpoint and a few flipped labels; that structure
# is what gives label noise and influence-guided subsampling something to
# bite on.
_BC_CENTER_NEG = np.array([2.8, 1.4, 1.5, 1.4, 2.1, 1.4, 2.1, 1.3, 1.1])
_BC_CENTER_POS = np.array([8.4, 8.0, 8.0, 7.0, 6.8, 9.0, 7.4, 7.4, 4.0])
_BC_SPREAD_NEG = np.array([0.54, 0.36, 0.4, 0.4, 0.4, 0.45, 0.45, 0.36, 0.22])
_BC_SPREAD_POS = np.array([1.32, 1.43, 1.38, 1.76, 1.38, 1.7, 1.26, 1.7, 1.48])
_BC_BORDER = 32        # borderline rows per class
_BC_BORDER_SPREAD = 2.0
_BC_BORDER_OFFSET = 0.8
_BC_FLIPS_EACH = 3     # labels flipped per class, keeps class totals exact


def breast_cancer_like(seed: int = 13) -> SparseDataset:
    """683 rows, integer-grade features at columns 1..9 (dimension 10).

    444 negative and 239 positive rows. Grades 1..10 are stored scaled to
    [-0.8, 1] via (g - 5)/5, the usual feature scaling of the public libsvm
    files; without it a bias-free linear model could not split classes that
    differ only in magnitude. Most rows form two well-separated clouds; a
    small borderline band and a few label flips supply the hard cases.
    """
    rng = np.random.default_rng(seed)
    n_neg, n_pos = 444, 239
    nb = _BC_BORDER
    mid = (_BC_CENTER_NEG + _BC_CENTER_POS) / 2.0
    rows, labels = [], []
    for n_cls, center, spread, label in ((n_neg - nb, _BC_CENTER_NEG, 0.75 * _BC_SPREAD_NEG, 0),
                                         (n_pos - nb, _BC_CENTER_POS, 0.75 * _BC_SPREAD_POS, 1)):
        # One shared severity factor per sample keeps the features correlated.
        z = rng.normal(size=(n_cls, 1))
        noise = rng.normal(size=(n_cls, 9))
        grades = center + spread * (0.5 * z + 0.4 * noise)
        rows.append(np.clip(np.round(grades), 1, 10))
        labels.append(np.full(n_cls, label, dtype=np.int8))
    for label, offset in ((0, -_BC_BORDER_OFFSET), (1, _BC_BORDER_OFFSET)):
        z = rng.normal(size=(nb, 1))
        noise = rng.normal(size=(nb, 9))
        grades = mid + offset + _BC_BORDER_SPREAD * (0.5 * z + 0.6 * noise)
        rows.append(np.clip(np.round(grades), 1, 10))
        labels.append(np.full(nb, label, dtype=np.int8))
    values = (np.vstack(rows) - 5.0) / 5.0
    y = np.concatenate(labels)

    for label in (0, 1):
        idx = np.flatnonzero(y == label)
        pick = rng.choice(idx, size=_BC_FLIPS_EACH, replace=False)
        y[pick] = 1 - label

    order = rng.permutation(n_neg + n_pos)
    dense = np.zeros((n_neg + n_pos, 10))
    dense[:, 1:] = values[order]
    return SparseDataset(sp.csr_array(dense), y[order])


def pima_like(seed: int = 29) -> SparseDataset:
    """768 rows, dense features at columns 1..8 (dimension 9).

    Labels are Bernoulli draws from a moderate-slope logistic model plus a
    small batch of hard flips, so the classes genuinely overlap; about 37%
    of rows are positive and a C=0.1 fit tests near 0.51 logloss.
    """
    rng = np.random.default_rng(seed)
    n = 768
    z = rng.normal(size=(n, 1))
    x = 0.55 * z + 0.85 * rng.normal(size=(n, 8))
    w = np.array([1.1, 0.8, -0.3, 0.25, 0.5, 0.9, 0.45, 0.2])
    margin = 0.8 * (x @ w) - 0.85
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-margin))).astype(np.int8)
    flip = rng.choice(n, size=20, replace=False)
    y[flip] = 1 - y[flip]
    dense = np.zeros((n, 9))
    dense[:, 1:] = np.round(x, 6)
    return SparseDataset(sp.csr_array(dense), y)


def ill_conditioned(n: int = 400, d: int = 30, scale_span: float = 1e4,
                    seed: int = 5) -> SparseDataset:
    """Feature columns with scales spread log-uniformly over 1..scale_span.

    Labels come from a logistic model whose weights undo the scaling, so
    every column carries signal and the Hessian's diagonal spans about
    scale_span^2. Made for plain-CG vs diagonally-preconditioned-CG runs.
    """
    rng = np.random.default_rng(seed)
    scales = np.logspace(0.0, np.log10(scale_span), d)
    X = rng.normal(size=(n, d)) * scales
    w = rng.normal(size=d) / scales
    margin = 1.2 * (X @ w) / np.sqrt(d)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-margin))).astype(np.int8)
    return SparseDataset(sp.csr_array(X), y)


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Regenerate the bundled synthetic benchmark files.")
    parser.add_argument("outdir", help="directory to write the .svm files into")
    args = parser.parse_args(argv)

    import os

    os.makedirs(args.outdir, exist_ok=True)
    for name, ds in (("breast_cancer_like.svm", breast_cancer_like()),
                     ("pima_like.svm", pima_like())):
        path = os.path.join(args.outdir, name)
        write_libsvm(ds, path, label_style="pm1")
        print(f"wrote {path}: {ds.n_rows} rows, {ds.n_features} features, "
              f"{ds.y.mean():.3f} positive")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
