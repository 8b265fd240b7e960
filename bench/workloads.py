"""The three workloads: their inputs, and the program steps each one runs.

``ctr-grid`` and ``optlr-psi`` are one ``infsub pipeline`` call each.
``split-eval`` is the README's piecemeal flow: split and write tr/va/te, then
``train`` and ``influence``, then per (method, ratio) cell ``sample``,
materialize the subset, ``train`` and ``evaluate``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from gen import Shape

# The program's own split and sampling settings, the same in every workload.
VA_FRACTION = 0.2
SPLIT_SEED = 7
GRID_SEED = 11      # split-eval samples cell k with GRID_SEED + k


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "pipeline" or "split-eval"
    shape: Shape
    reg_c: float
    te_fraction: float = 0.2
    methods: tuple[str, ...] = ()
    alphas: tuple[float, ...] = ()
    ratios: tuple[float, ...] = ()
    repeats: int = 1
    # split-eval cells: (method, ratio, alpha or None)
    cells: tuple[tuple[str, float, float | None], ...] = ()
    n_deltas: int = 0

    def labels(self) -> list[str]:
        """Pipeline method labels in report order (sigmoid fans out by alpha)."""
        out = []
        for m in self.methods:
            if m == "sigmoid":
                out.extend(f"sigmoid@{a:g}" for a in self.alphas)
            else:
                out.append(m)
        return out

    def n_cells(self) -> int:
        if self.kind == "pipeline":
            return len(self.labels()) * len(self.ratios) * self.repeats
        return len(self.cells)

    def deltas(self) -> list[float]:
        return [i / 100 for i in range(self.n_deltas)]


WORKLOADS = {w.name: w for w in (
    Workload("ctr-grid", "pipeline", Shape(n_rows=20000, n_fields=40, buckets=125),
             reg_c=1e-3, methods=("random", "dropout", "linear", "sigmoid"),
             alphas=(1.0, 5.0), ratios=(0.9, 0.7), repeats=2),
    Workload("optlr-psi", "pipeline", Shape(n_rows=1400, n_fields=40, buckets=25),
             reg_c=0.1, methods=("optlr", "random"), ratios=(0.9, 0.7, 0.5), repeats=64),
    Workload("split-eval", "split-eval", Shape(n_rows=6000, n_fields=40, buckets=125),
             reg_c=1e-2, te_fraction=0.4,
             cells=(("sigmoid", 0.8, 5.0), ("linear", 0.8, None), ("random", 0.8, None)),
             n_deltas=201),
)}


def pipeline_argv(w: Workload, data: str, out_dir: str) -> list[str]:
    return ["pipeline", "--dataset", data, "--n-features", str(w.shape.n_features),
            "--va-fraction", repr(VA_FRACTION), "--te-fraction", repr(w.te_fraction),
            "--split-seed", str(SPLIT_SEED), "--reg-c", repr(w.reg_c),
            "--method", ",".join(w.methods), "--ratio", ",".join(map(repr, w.ratios)),
            *(["--alpha", ",".join(map(repr, w.alphas))] if w.alphas else []),
            "--repeats", str(w.repeats), "--seed", str(GRID_SEED),
            "--out", os.path.join(out_dir, "report.csv")]


def split_eval_files(out_dir: str) -> dict[str, str]:
    return {name: os.path.join(out_dir, name) for name in
            ("tr.svm", "va.svm", "te.svm", "model.txt", "influence.csv")}


def cell_files(out_dir: str, k: int) -> dict[str, str]:
    return {name: os.path.join(out_dir, f"{name}{k}.{ext}") for name, ext in
            (("plan", "csv"), ("subset", "svm"), ("model", "txt"), ("curve", "csv"))}
