"""The bundled benchmark files and a seeded solver test bed.

Two libsvm files ship in the package's ``datasets/`` directory,
``breast_cancer_like.svm`` and ``pima_like.svm``. They are stand-ins shaped
like the small public tumor-grading and diabetes-screening sets (row counts,
feature layout, class balance, and full-model test logloss in the same band),
so the experiment suite runs offline; drop real libsvm files in their place
to reproduce published numbers. ``ill_conditioned`` builds a feature matrix
with scale spread 1..1e4 for preconditioner stress tests.

Run ``python -m infsub.synthdata OUTDIR`` to copy the bundled files, byte for
byte, into OUTDIR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .data import DataError, SparseDataset, load_libsvm, write_lines

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
    import os
    import sys
    from importlib import resources

    parser = argparse.ArgumentParser(
        description="Copy the bundled synthetic benchmark files.")
    parser.add_argument("outdir", help="directory to write the .svm files into")
    args = parser.parse_args(argv)

    try:
        os.makedirs(args.outdir, exist_ok=True)
        for name in ("breast_cancer_like.svm", "pima_like.svm"):
            path = os.path.join(args.outdir, name)
            resource = resources.files(__package__) / "datasets" / name
            write_lines(path, resource.read_text(encoding="utf-8").splitlines())
            ds = load_libsvm(path)
            print(f"wrote {path}: {ds.n_rows} rows, {ds.n_features} features, "
                  f"{ds.y.mean():.3f} positive")
    except (OSError, DataError) as exc:   # OSError: an outdir makedirs cannot make
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
