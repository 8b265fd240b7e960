"""Run one repetition of a workload in this fresh process and record it.

Usage: python3 child.py SPEC.json

The spec names the workload, the input file, the output directory and
whether to trace. Untraced, the only probe is the time of the first call
into ``sampling.draw_subset``. Results go to ``result.json`` in the output
directory; a traced run also writes ``spans.json`` and ``arrays.npz``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def peak_rss_mib() -> float:
    """This process's peak resident set, from VmHWM.

    ``getrusage(RUSAGE_SELF).ru_maxrss`` would not do: exec folds the
    parent's high-water mark into it, so it reads at least the harness's own
    peak. VmHWM belongs to the address space, which exec starts afresh.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    import numpy as np
    from infsub import cli, data, sampling

    import tracer
    import workloads

    w = workloads.WORKLOADS[spec["workload"]]
    out = spec["out"]
    steps: list[dict] = []
    trace = probe = None
    if spec["traced"]:
        trace = tracer.Tracer()
        trace.install()
    else:
        probe = tracer.FirstCall(sampling.draw_subset)
        tracer.replace_everywhere(sampling.draw_subset, probe.wrapper)

    def run_cli(argv: list[str]) -> None:
        o, e = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
            code = cli.main(argv)
        steps.append({"argv": argv, "code": code, "stdout": o.getvalue(),
                      "stderr": e.getvalue()})

    d = str(w.shape.n_features)
    t0 = time.perf_counter()
    if w.kind == "pipeline":
        run_cli(workloads.pipeline_argv(w, spec["data"], out))
        setup_at = None
    else:
        f = workloads.split_eval_files(out)
        ds = data.load_libsvm(spec["data"], w.shape.n_features)
        parts = data.split(ds, data.SplitSpec(workloads.VA_FRACTION, w.te_fraction,
                                               seed=workloads.SPLIT_SEED))
        for name, part in zip(("tr.svm", "va.svm", "te.svm"), parts):
            data.write_libsvm(part, f[name])
        run_cli(["train", "--tr", f["tr.svm"], "--reg-c", repr(w.reg_c), "--n-features", d,
                 "--out", f["model.txt"]])
        run_cli(["influence", "--model", f["model.txt"], "--tr", f["tr.svm"],
                 "--va", f["va.svm"], "--n-features", d, "--out", f["influence.csv"]])
        setup_at = time.perf_counter()
        deltas = ",".join(map(repr, w.deltas()))
        for k, (method, ratio, alpha) in enumerate(w.cells):
            c = workloads.cell_files(out, k)
            run_cli(["sample", "--influence", f["influence.csv"], "--tr", f["tr.svm"],
                     "--n-features", d, "--method", method, "--ratio", repr(ratio),
                     *(["--alpha", repr(alpha)] if alpha is not None else []),
                     "--seed", str(workloads.GRID_SEED + k), "--out", c["plan"]])
            tr = data.load_libsvm(f["tr.svm"], w.shape.n_features)
            plan = sampling.read_plan_csv(c["plan"])
            data.write_libsvm(tr.subset(plan.selected), c["subset"])
            run_cli(["train", "--tr", c["subset"], "--reg-c", repr(w.reg_c), "--n-features", d,
                     "--out", c["model"]])
            run_cli(["evaluate", "--model", c["model"], "--data", f["te.svm"],
                     "--n-features", d, "--deltas", deltas, "--baseline-model", f["model.txt"],
                     "--influence", f["influence.csv"], "--plan", c["plan"],
                     "--out", c["curve"]])
    t1 = time.perf_counter()

    if trace is not None:
        spans, arrays = tracer.dump_spans(trace.spans)
        with open(os.path.join(out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"t0": t0, "spans": spans}, fh)
        np.savez(os.path.join(out, "arrays.npz"), **arrays)
        if setup_at is None:
            setup_at = next((s[1] for s in spans if s[0] == "sampling.draw_subset"), None)
    elif setup_at is None:
        setup_at = probe.at
    result = {
        "run_s": t1 - t0,
        "setup_s": None if setup_at is None else setup_at - t0,
        "peak_rss_mib": peak_rss_mib(),
        "steps": steps,
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
