"""Seeded end-to-end and per-layer benchmark for infsub.

Usage (from the repository root):

    python3 bench/run.py --workload ctr-grid --seed 1 --seconds 30 --trace 0

Generates the workload's input from the seed, then runs the workload as a
user would, through ``infsub.cli.main``, in a fresh process per repetition:
one traced repetition first (spans around every layer call; it also warms
the page cache), then untraced repetitions until ``--seconds`` have passed,
and with ``--trace 1`` one more traced repetition. Outputs are checked
against references computed apart from the program. The last stdout line is
one JSON object: end-to-end metrics (medians over the untraced repetitions)
with ``--trace 0``, per-layer metrics from the last traced repetition with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import gen
import tracer
import workloads
from workloads import WORKLOADS, cell_files, split_eval_files

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 60
# Both full-set fits stop at gradient norm 1e-8 or below.
LOGLOSS_TOL = 1e-6
# worst_case_risk stops its search at an eta bracket of 1e-9, and at
# delta = 0 within 1e-7 of the mean-loss bound.
CURVE_TOL = 1e-7
SEARCH_TOL = 1e-9
PSI_REL_TOL = 1e-6
PSI_SAMPLE = 40
# Artifacts of the harness itself, left out of the byte-identity check.
OWN_FILES = {"spec.json", "result.json", "spans.json", "arrays.npz"}


def thread_caps() -> dict[str, str]:
    n = str(len(os.sched_getaffinity(0)))
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS")}


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "infsub", "__init__.py")):
        print(f"error: no infsub sources under {SRC}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description="Seeded end-to-end and per-layer benchmark.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        report = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(report))
    return 0


class Bench:
    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.work = os.path.join(WORK, f"{workload.name}-s{seed}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.rows = gen.generate(workload.shape, seed)
        self.data = os.path.join(self.work, "data.svm")
        with open(self.data, "wb") as fh:
            fh.write(gen.render(self.rows))
        self.n_reps = 0

    # -- running -----------------------------------------------------------

    def rep(self, traced: bool) -> dict:
        """One repetition of the workload in a fresh process."""
        out = os.path.join(self.work, f"rep{self.n_reps}")
        self.n_reps += 1
        os.makedirs(out)
        spec = os.path.join(out, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.w.name, "data": self.data, "out": out,
                       "src": SRC, "traced": traced}, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec],
                              env={**os.environ, **thread_caps()}, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"repetition exited {proc.returncode}:\n{proc.stderr}")
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        res["dir"] = out
        res["hashes"] = {}
        for name in sorted(os.listdir(out)):
            if name not in OWN_FILES:
                with open(os.path.join(out, name), "rb") as fh:
                    res["hashes"][name] = hashlib.sha256(fh.read()).hexdigest()
        res["failed"] = self.failed_cells(res)
        return res

    def run(self, seconds: float, trace: bool) -> dict:
        problems: list[str] = []

        def check(fn, *args) -> None:
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                problems.append(str(exc))

        setup = time.perf_counter()
        ref = self.references()
        traced = self.rep(traced=True)
        check(self.check_outputs, traced, ref)
        bench_setup_s = time.perf_counter() - setup
        timed = []
        start = time.monotonic()
        while not timed or time.monotonic() - start < seconds:
            timed.append(self.rep(traced=False))
        # The first run is cold. The per-layer figures and the tracing
        # overhead come from a second traced run, made as warm as the timed ones.
        last = self.rep(traced=True) if trace else None
        later = timed + ([last] if last else [])
        for r in later:
            check(checks.require, r["hashes"] == traced["hashes"],
                  f"{os.path.basename(r['dir'])}: outputs differ from the first run's")
        for r in timed:
            check(checks.require, r["setup_s"] is not None, "no subset was drawn")
        for msg in problems:
            print(f"check failed: {msg}", file=sys.stderr)

        reps = [traced] + later
        n_cells = self.w.n_cells()
        run_s = [r["run_s"] for r in timed]
        summary = (f"{self.w.name} seed {self.seed}: {len(timed)} timed runs, run_s "
                   f"{', '.join(f'{x:.3f}' for x in run_s)}; traced run_s "
                   f"{', '.join(format(r['run_s'], '.3f') for r in (traced, last) if r)}; "
                   f"harness set-up {bench_setup_s:.1f}s")
        print(summary, file=sys.stderr)
        if trace:
            with open(os.path.join(last["dir"], "spans.json"), encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            os.makedirs(WORK, exist_ok=True)
            shutil.copy(os.path.join(last["dir"], "spans.json"),
                        os.path.join(WORK, f"{self.w.name}-s{self.seed}.spans.json"))
            layer = tracer.layer_metrics(spans)
            layer["trace.spans"] = len(spans)
            layer["trace.overhead_s"] = last["run_s"] - statistics.median(run_s)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
        else:
            values = {
                "run_s": statistics.median(run_s),
                "setup_s": statistics.median(r["setup_s"] for r in timed),
                "cells_per_s": statistics.median(n_cells / (r["run_s"] - r["setup_s"])
                                                 for r in timed),
                "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
            }
            units = {"run_s": "s", "setup_s": "s", "cells_per_s": "1/s", "peak_rss_mib": "MiB"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        return {"correct": not problems, "attempted": n_cells * len(reps),
                "failed": sum(r["failed"] for r in reps), "metrics": metrics}

    # -- checks --------------------------------------------------------------

    def references(self) -> dict:
        """The input decoded without the program's parser, the split, and a
        scipy fit of the full-set objective on tr."""
        with open(self.data, "rb") as fh:
            checks.require(checks.same_rows(checks.decode(fh.read(), self.rows.n_features),
                                            self.rows),
                           "input file does not encode the generated arrays")
        parts = gen.split_rows(self.rows.y, workloads.VA_FRACTION, self.w.te_fraction,
                               workloads.SPLIT_SEED)
        tr, va, te = (self.rows.take(p) for p in parts)
        theta = checks.fit_reference(tr, self.w.reg_c)
        return {"tr": tr, "va": va, "te": te,
                "va_logloss": float(checks.losses(theta, va).mean()),
                "te_logloss": float(checks.losses(theta, te).mean())}

    def failed_cells(self, res: dict) -> int:
        if self.w.kind == "pipeline":
            return len(re.findall(r"^FAILED cell ", res["steps"][0]["stderr"], re.M))
        # A split-eval cell is its sample, train and evaluate steps.
        cell_steps = res["steps"][2:]
        return sum(any(s["code"] != 0 for s in cell_steps[3 * k:3 * k + 3])
                   for k in range(len(self.w.cells)))

    def check_outputs(self, res: dict, ref: dict) -> None:
        with np.load(os.path.join(res["dir"], "arrays.npz")) as z:
            arrays = dict(z)
        with open(os.path.join(res["dir"], "spans.json"), encoding="utf-8") as fh:
            draws = [s[4] for s in json.load(fh)["spans"] if s[0] == "sampling.draw_subset"]
        checks.require(len(draws) == self.w.n_cells(),
                       f"{len(draws)} subsets drawn for {self.w.n_cells()} cells")
        for d in draws:
            want = [checks.quota(d["ratio"], n) for n in d["class_sizes"]]
            checks.require(d["class_picks"] == want,
                           f"draw at ratio {d['ratio']} picked {d['class_picks']}, quota {want}")
        if self.w.kind == "pipeline":
            self.check_pipeline(res, ref, arrays)
        else:
            self.check_split_eval(res, ref)

    def check_full_fit(self, va_logloss: float, te_logloss: float, ref: dict) -> None:
        for name, got in (("va", va_logloss), ("te", te_logloss)):
            want = ref[f"{name}_logloss"]
            checks.require(abs(got - want) <= LOGLOSS_TOL,
                           f"full-set {name} logloss {got!r}, scipy reference {want!r}")

    def check_pipeline(self, res: dict, ref: dict, arrays: dict) -> None:
        step = res["steps"][0]
        checks.require(step["code"] == 0 and res["failed"] == 0,
                       f"pipeline exited {step['code']}: {step['stderr']}")
        rows = checks.read_csv(os.path.join(res["dir"], "report.csv"))
        got = {(r["method"], float(r["ratio"]), int(r["repeat"])) for r in rows}
        want = {(label, ratio, k) for ratio in self.w.ratios for label in self.w.labels()
                for k in range(self.w.repeats)}
        checks.require(len(rows) == len(want) and got == want,
                       f"report holds {len(got)} distinct cells of {len(want)}")
        checks.require(all(np.isfinite(float(r[c])) for r in rows
                           for c in ("va_logloss", "te_logloss")), "non-finite logloss")
        full = checks.read_csv(os.path.join(res["dir"], "report_aggregate.csv"))[0]
        checks.require(full["method"] == "full", "aggregate lacks the full-set row")
        self.check_full_fit(float(full["va_logloss_mean"]), float(full["te_logloss_mean"]), ref)
        if "optlr" in self.w.methods:
            tr = ref["tr"]
            sample = np.random.default_rng(self.seed).choice(tr.n_rows, PSI_SAMPLE, replace=False)
            want_psi = checks.psi_dense(arrays["first_theta"], tr, self.w.reg_c, sample)
            err = np.abs(arrays["psi"][sample] - want_psi) / want_psi
            checks.require(float(err.max()) <= PSI_REL_TOL,
                           f"psi norms off a dense solve by up to {err.max():.3e} relative")

    def check_split_eval(self, res: dict, ref: dict) -> None:
        def same_bytes(path: str, rows) -> None:
            with open(path, "rb") as fh:
                checks.require(fh.read() == gen.render(rows),
                               f"{os.path.basename(path)} does not hold the expected rows")

        for i, s in enumerate(res["steps"]):
            checks.require(s["code"] == 0, f"step {i} exited {s['code']}: {s['stderr']}")
        f = split_eval_files(res["dir"])
        tr, te = ref["tr"], ref["te"]
        for name in ("tr", "va", "te"):
            same_bytes(f[f"{name}.svm"], ref[name])
        full, _ = checks.read_model(f["model.txt"])
        self.check_full_fit(float(checks.losses(full, ref["va"]).mean()),
                            float(checks.losses(full, te).mean()), ref)
        deltas = self.w.deltas()
        evaluates = res["steps"][4::3]
        for k, (_, ratio, _) in enumerate(self.w.cells):
            c = cell_files(res["dir"], k)
            picked = checks.plan_selected(c["plan"])
            for label in (0, 1):
                size = int((tr.y == label).sum())
                n = int((tr.y[picked] == label).sum())
                checks.require(n == checks.quota(ratio, size),
                               f"cell {k}: {n} of {size} rows of class {label} at ratio {ratio}")
            same_bytes(c["subset"], tr.take(picked))
            theta, _ = checks.read_model(c["model"])
            loss = checks.losses(theta, te)
            out = evaluates[k]["stdout"]
            printed = float(re.search(r"mean logloss (\S+),", out).group(1))
            checks.require(abs(printed - loss.mean()) <= 5e-7,
                           f"cell {k}: printed mean logloss {printed}, recomputed {loss.mean()}")
            shift = float(re.search(r"squared parameter shift vs baseline: (\S+)", out).group(1))
            want = float((theta - full) @ (theta - full))
            checks.require(abs(shift - want) <= 1e-6 * want,
                           f"cell {k}: printed parameter shift {shift}, from model files {want}")
            curve = checks.read_csv(c["curve"])
            got_d = [float(r["delta"]) for r in curve]
            values = np.array([float(r["worst_case"]) for r in curve])
            checks.require(got_d == deltas, f"cell {k}: curve radii differ from --deltas")
            mean, top = float(loss.mean()), float(loss.max())
            checks.require(abs(values[0] - mean) <= CURVE_TOL,
                           f"cell {k}: curve at delta 0 is {values[0]}, mean loss {mean}")
            checks.require(bool(np.all(np.diff(values) >= 0)), f"cell {k}: curve decreases")
            checks.require(bool(np.all((values >= mean - SEARCH_TOL)
                                       & (values <= top + SEARCH_TOL))),
                           f"cell {k}: curve leaves [mean, max]")
            exact = np.array([checks.worst_case_exact(loss, d) for d in deltas])
            err = np.abs(values - exact).max()
            checks.require(err <= CURVE_TOL,
                           f"cell {k}: curve off the exact dual minimum by {err:.3e}")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
