"""Independent references the workload outputs are checked against.

Nothing here imports the program: files are parsed with plain string
handling, the full-set fit is ``scipy.optimize``'s, the psi reference is a
dense Cholesky solve, and the worst-case curve is an exact sorted sweep of
the chi-square dual.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import expit

from gen import Rows

PROB_CLIP = 1e-12


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def decode(text: bytes, n_features: int) -> Rows:
    """Parse libsvm text without the program's parser."""
    labels, counts, idx, val = [], [], [], []
    for line in text.decode("utf-8").splitlines():
        toks = line.split()
        labels.append(int(toks[0]))
        counts.append(len(toks) - 1)
        for tok in toks[1:]:
            j, _, v = tok.partition(":")
            idx.append(int(j))
            val.append(float(v))
    return Rows(np.concatenate(([0], np.cumsum(counts))), np.asarray(idx, dtype=np.int32),
                np.asarray(val), np.asarray(labels, dtype=np.int8), n_features)


def same_rows(a: Rows, b: Rows) -> bool:
    return (a.n_features == b.n_features and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data)
            and np.array_equal(a.y, b.y))


def csr(rows: Rows) -> sp.csr_array:
    return sp.csr_array((rows.data, rows.indices, rows.indptr),
                        shape=(rows.n_rows, rows.n_features))


def fit_reference(rows: Rows, reg_c: float) -> np.ndarray:
    """Minimize mean log loss + (C/2)||theta||^2 with scipy's trust-region
    Newton-CG. It stops near gradient norm 1e-9, where double precision no
    longer resolves the objective; anything above the program's own 1e-8
    tolerance is refused."""
    X, y = csr(rows), rows.y.astype(np.float64)
    n = rows.n_rows

    def fun(theta):
        z = X @ theta
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * reg_c * float(theta @ theta)
        return loss, X.T @ (expit(z) - y) / n + reg_c * theta

    def hessp(theta, v):
        p = expit(X @ theta)
        return X.T @ (p * (1.0 - p) * (X @ v)) / n + reg_c * v

    res = minimize(fun, np.zeros(rows.n_features), jac=True, hessp=hessp,
                   method="trust-ncg", options={"gtol": 1e-11, "maxiter": 200})
    require(bool(np.linalg.norm(fun(res.x)[1]) <= 1e-8),
            f"scipy reference fit did not converge: {res.message}")
    return res.x


def losses(theta: np.ndarray, rows: Rows) -> np.ndarray:
    """Per-row log loss with predictions clipped to [1e-12, 1 - 1e-12]."""
    p = np.clip(expit(csr(rows) @ theta), PROB_CLIP, 1.0 - PROB_CLIP)
    return -(rows.y * np.log(p) + (1 - rows.y) * np.log1p(-p))


def read_model(path: str) -> tuple[np.ndarray, float]:
    with open(path, encoding="utf-8") as fh:
        head, *body = [ln.split() for ln in fh if ln.strip()]
    theta = np.zeros(int(head[0]))
    for k, v in body:
        theta[int(k)] = float(v)
    return theta, float(head[1])


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def plan_selected(path: str) -> np.ndarray:
    return np.asarray([int(r["index"]) for r in read_csv(path) if r["selected"] == "1"],
                      dtype=np.int64)


def quota(ratio: float, size: int) -> int:
    """Round-half-up share of a class."""
    return int(np.floor(ratio * size + 0.5))


def worst_case_exact(loss: np.ndarray, delta: float) -> float:
    """min over eta of sqrt(2 delta + 1) sqrt(mean(relu(l - eta)^2)) + eta.

    Between consecutive sorted losses the active set is the top k, and the
    objective is c sqrt(q((m - eta)^2 + v)) + eta with q = k/n and m, v the
    mean and variance of the top k, so each segment's minimizer has a
    closed form; the answer is the least segment minimum. At delta = 0 the
    infimum is the mean, reached as eta goes to minus infinity.
    """
    l = np.sort(loss)[::-1]
    n = l.size
    k = np.arange(1, n + 1)
    c = float(np.sqrt(2.0 * delta + 1.0))
    m = np.cumsum(l) / k
    v = np.maximum(np.cumsum(l * l) / k - m * m, 0.0)
    q = k / n
    a = c * c * q - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(a > 0.0, np.sqrt(v / a), np.inf)
    lo = np.append(l[1:], -np.inf)
    eta = np.clip(m - u, lo, l)
    with np.errstate(invalid="ignore"):
        val = c * np.sqrt(q * ((m - eta) ** 2 + v)) + eta
    if a[-1] <= 0.0:
        val[-1] = float(np.mean(loss))
    return float(np.min(val))


def psi_dense(theta: np.ndarray, rows: Rows, reg_c: float, sample: np.ndarray) -> np.ndarray:
    """||H^-1 g_i|| for the sampled rows, with H = X^T diag(s) X / n + C I
    built densely and factored once."""
    X = csr(rows).toarray()
    p = expit(X @ theta)
    H = (X.T * (p * (1.0 - p))) @ X / rows.n_rows + reg_c * np.eye(rows.n_features)
    G = (p[sample] - rows.y[sample])[:, None] * X[sample] + reg_c * theta
    return np.linalg.norm(cho_solve(cho_factor(H), G.T), axis=0)
