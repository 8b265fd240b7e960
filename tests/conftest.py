"""Shared builders and independent numeric oracles for the test suite.

Oracles here never call the code paths they are used to check: Hessians are
assembled densely from first principles, gradients come from definitional
formulas, and datasets are built directly from dense arrays.
"""

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from infsub.data import SparseDataset


def make_ds(rows, labels, n_features=None):
    """Build a SparseDataset from dense rows (list of lists or 2-d array)."""
    dense = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = dense.shape[0]
    d = dense.shape[1] if n_features is None else int(n_features)
    r, c = np.nonzero(dense)
    X = sp.coo_array((dense[r, c], (r, c)), shape=(n, d)).tocsr()
    X.sum_duplicates()
    X.sort_indices()
    return SparseDataset(X, np.asarray(labels, dtype=np.int8))


def random_ds(rng, n, d, scale=1.0, zero_frac=0.0):
    """Random dense-ish dataset with labels from a noisy linear rule.

    Both classes are guaranteed present so the result is always trainable.
    """
    X = rng.normal(size=(n, d)) * scale
    if zero_frac:
        X[rng.random(size=(n, d)) < zero_frac] = 0.0
    w = rng.normal(size=d)
    y = ((X @ w + 0.5 * rng.normal(size=n)) > 0).astype(np.int8)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[: n // 2]
    return make_ds(X, y)


def dense_hessian(params, ds):
    """Regularized Hessian assembled densely: (1/n) X^T diag(s) X + C I."""
    X = ds.X.toarray()
    p = expit(X @ params.theta)
    s = p * (1.0 - p)
    H = (X.T * s) @ X / ds.n_rows
    return H + params.reg_c * np.eye(ds.n_features)


def dense_grad_rows(params, ds, regularized=True):
    """Per-sample gradients assembled densely: (p_i - y_i) x_i [+ C theta]."""
    X = ds.X.toarray()
    p = expit(X @ params.theta)
    G = (p - ds.y)[:, None] * X
    if regularized:
        G = G + params.reg_c * params.theta
    return G


def libsvm_file(directory, lines, name="lines.svm"):
    """Write ``lines`` to a file under ``directory``, one per line as UTF-8
    text, and return its path for ``load_libsvm``."""
    path = directory / name
    path.write_bytes("\n".join(lines).encode("utf-8"))
    return str(path)


def dataset_path(name):
    """Absolute path of a bundled dataset file."""
    from importlib import resources

    return str(resources.files("infsub") / "datasets" / name)


def record_plans(monkeypatch):
    """Record the block widths of each plan (``parallel.column_blocks``) and
    the width of every ``model.fit_columns`` call, the full fit's 1
    included. A pipeline plans psi's rows first when it computes psi, then
    its cells. The widths of blocks run side by side come in any order."""
    from infsub import model, parallel

    plans, widths = [], []
    real_plan, real_fit = parallel.column_blocks, model.fit_columns

    def plan(n_columns, X):
        blocks = real_plan(n_columns, X)
        plans.append([b.stop - b.start for b in blocks])
        return blocks

    def fit(ds, reg_c, W, theta0, tol, max_iter):
        widths.append(W.shape[1])
        return real_fit(ds, reg_c, W, theta0, tol, max_iter)

    monkeypatch.setattr(parallel, "column_blocks", plan)
    monkeypatch.setattr(model, "fit_columns", fit)
    return plans, widths


def blocks_of(monkeypatch, k):
    """Make every ``parallel.column_blocks`` plan blocks of k columns, the
    last one narrower where k does not divide the count."""
    from infsub import parallel

    monkeypatch.setattr(parallel, "column_blocks",
                        lambda n, X: [slice(lo, min(lo + k, n)) for lo in range(0, n, k)])
