"""Spans around every call into the program's layers, and the per-layer
metrics computed from them.

``Tracer.install`` wraps each public function of the layer modules and puts
the wrapper at every module attribute that held the original, so a call made
through ``cli.load_libsvm`` or ``experiment.load_libsvm`` is caught as well as
one through ``data.load_libsvm``, and calls between functions of one module
go through the wrapper too. Spans (name, start, end, parent, attributes) are
kept in a list and written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("data", "model", "influence", "sampling", "risk", "experiment", "cli")


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "infsub" or name.startswith("infsub."))]


def replace_everywhere(original, wrapper) -> None:
    """Point every infsub module attribute that holds ``original`` at ``wrapper``."""
    for mod in _loaded_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def public_functions(layer: str):
    mod = sys.modules[f"infsub.{layer}"]
    for attr, value in vars(mod).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == mod.__name__):
            yield attr, value


# Counts read off a call at its boundary: name -> (args, result) -> dict.
# Values are scalars, or array references turned into counts at dump time.
_ATTRS = {
    "data.load_libsvm": lambda a, r: {"rows": r.n_rows, "nnz": int(r.X.nnz)},
    "data.write_libsvm": lambda a, r: {"rows": a[0].n_rows},
    "model.train": lambda a, r: {"n_iter": r.n_iter, "converged": bool(r.converged),
                                 "theta": r.theta},
    "influence.inverse_hvp_pcg": lambda a, r: {"iters": r[1].iters,
                                               "restarted": bool(r[1].restarted)},
    "influence.compute_phi": lambda a, r: {"cg_iters": r.cg_iters},
    "influence.compute_psi_norms": lambda a, r: {"rows": a[1].n_rows, "psi": r},
    "sampling.draw_subset": lambda a, r: {"labels": a[2], "selected": r.selected,
                                          "ratio": float(a[1])},
    "risk.worst_case_curve": lambda a, r: {"deltas": len(r)},
    "experiment.run_pipeline": lambda a, r: {"cells": len(r.cells)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, result)
            return result
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            for attr, fn in list(public_functions(layer)):
                replace_everywhere(fn, self.wrap(f"{layer}.{attr}", fn))


class FirstCall:
    """The one probe allowed in an untraced run: when a function is first called."""

    def __init__(self, fn) -> None:
        self.at: float | None = None
        clock = time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if self.at is None:
                self.at = clock()
            return fn(*args, **kwargs)
        self.wrapper = probe


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, counts and rates from one traced run's spans.

    Times are inclusive span durations unless named ``self_s``; a layer's
    self time is the sum over its spans of duration minus direct children.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + dur[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0].split(".", 1)[0]] += dur[i] - child[i]

    def attr_sum(name: str, key: str) -> float:
        return sum(float(s[4][key]) for s in spans if s[0] == name and s[4])

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    load_s = t("data.load_libsvm")
    write_s = t("data.write_libsvm")
    psi_s = t("influence.compute_psi_norms")
    curve_s = t("risk.worst_case_curve")
    probs = [n for n in total if n.startswith("sampling.") and n.endswith("_probs")]
    m = {
        "data.load_s": load_s,
        "data.load_calls": calls.get("data.load_libsvm", 0),
        "data.parse_rows_per_s": rate(attr_sum("data.load_libsvm", "rows"), load_s),
        "data.parse_nnz_per_s": rate(attr_sum("data.load_libsvm", "nnz"), load_s),
        "data.split_s": t("data.split"),
        "data.write_s": write_s,
        "data.write_rows_per_s": rate(attr_sum("data.write_libsvm", "rows"), write_s),
        "model.train_s": t("model.train"),
        "model.train_calls": calls.get("model.train", 0),
        "model.newton_steps": attr_sum("model.train", "n_iter"),
        "model.unconverged_fits": sum(1 for s in spans if s[0] == "model.train"
                                      and s[4] and not s[4]["converged"]),
        "model.hvp_s": t("model.hvp"),
        "model.hvp_calls": calls.get("model.hvp", 0),
        "model.hessian_diag_s": t("model.hessian_diag"),
        "model.hessian_diag_calls": calls.get("model.hessian_diag", 0),
        "model.params_io_s": t("model.save_params", "model.load_params"),
        "influence.phi_s": t("influence.compute_phi"),
        "influence.phi_cg_iters": attr_sum("influence.compute_phi", "cg_iters"),
        "influence.psi_s": psi_s,
        "influence.psi_rows_per_s": rate(attr_sum("influence.compute_psi_norms", "rows"), psi_s),
        "influence.pcg_solves": calls.get("influence.inverse_hvp_pcg", 0),
        "influence.pcg_iters": attr_sum("influence.inverse_hvp_pcg", "iters"),
        "influence.pcg_restarts": attr_sum("influence.inverse_hvp_pcg", "restarted"),
        "influence.csv_s": t("influence.write_influence_csv", "influence.read_influence_csv"),
        "sampling.probs_s": t(*probs),
        "sampling.draw_s": t("sampling.draw_subset"),
        "sampling.draw_calls": calls.get("sampling.draw_subset", 0),
        "sampling.plan_csv_s": t("sampling.write_plan_csv", "sampling.read_plan_csv"),
        "risk.curve_s": curve_s,
        "risk.curve_deltas": attr_sum("risk.worst_case_curve", "deltas"),
        "risk.deltas_per_s": rate(attr_sum("risk.worst_case_curve", "deltas"), curve_s),
        "experiment.pipeline_s": t("experiment.run_pipeline"),
        "experiment.cells": attr_sum("experiment.run_pipeline", "cells"),
        "experiment.emit_s": t("experiment.emit_report", "experiment.emit_gamma_csv"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def dump_spans(spans: list[list]) -> tuple[list[list], dict]:
    """JSON-ready spans, plus the arrays the checks need: the first fit's
    theta, the psi norms, and per-class sizes and picks of every draw."""
    arrays: dict = {}
    out = []
    for name, start, end, parent, attrs in spans:
        if attrs:
            attrs = dict(attrs)
            if "theta" in attrs:
                arrays.setdefault("first_theta", attrs.pop("theta"))
            if "psi" in attrs:
                arrays["psi"] = attrs.pop("psi")
            if "selected" in attrs:
                labels, picked = attrs.pop("labels"), attrs.pop("selected")
                attrs["class_sizes"] = [int((labels == c).sum()) for c in (0, 1)]
                attrs["class_picks"] = [int((labels[picked] == c).sum()) for c in (0, 1)]
        out.append([name, start, end, parent, attrs])
    return out, arrays
