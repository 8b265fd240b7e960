"""Command-line front end.

Subcommands mirror the library layers: ``train``, ``influence``, ``sample``,
``evaluate``, and the experiment drivers ``pipeline`` and ``noise``. All
outputs are plain CSV or the two-line-header model format, and identical
invocations write identical bytes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiment, influence, model, risk, sampling
from .data import load_libsvm, with_feature_dim
from .experiment import ConfigError, ExperimentConfig, config_from_mapping, read_config
from .influence import PcgConfig

_C_HELP = ("regularization strength C; the objective is mean log loss "
           "plus (C/2)*||theta||^2")

# The pipeline/noise flags, the ExperimentConfig field each one sets, and its
# argparse settings. Values stay raw strings and are written over the config
# file's mapping, so config_from_mapping coerces and validates both at once.
_CONFIG_FLAGS = (
    ("--dataset", "dataset_path", {"help": "single libsvm file, split internally"}),
    ("--tr", "tr_path", {}),
    ("--va", "va_path", {}),
    ("--te", "te_path", {}),
    ("--n-features", "n_features", {}),
    ("--va-fraction", "va_fraction", {}),
    ("--te-fraction", "te_fraction", {}),
    ("--split-seed", "split_seed", {}),
    ("--reg-c", "reg_c", {"help": _C_HELP}),
    ("--method", "methods",
     {"help": "comma-separated subset of " + ",".join(sampling.METHODS)}),
    ("--ratio", "ratios", {"help": "comma-separated sampling ratios"}),
    ("--alpha", "sigmoid_alphas", {"help": "comma-separated sigmoid alphas"}),
    ("--repeats", "repeats", {}),
    ("--seed", "seed", {}),
    ("--gamma", "compute_gamma", {"action": "store_const", "const": "true",
                                  "help": "also write mean parameter shift per method/ratio"}),
    ("--flip", "flip_fraction", {"required": True,
                                 "help": "fraction of training labels to flip"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infsub",
        description="Influence-driven subsampling for sparse logistic regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on a libsvm file")
    p.add_argument("--tr", required=True, help="training data (libsvm text, .gz ok)")
    p.add_argument("--reg-c", type=float, default=ExperimentConfig.reg_c, help=_C_HELP)
    p.add_argument("--tol", type=float, default=ExperimentConfig.train_tol,
                   help="gradient-norm stopping tolerance")
    p.add_argument("--max-iter", type=int, default=ExperimentConfig.train_max_iter,
                   help="Newton iteration cap")
    p.add_argument("--n-features", type=int, default=None,
                   help="fixed feature dimension (default: max index + 1)")
    p.add_argument("--out", required=True, help="where to write the model file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("influence", help="score training rows against a validation set")
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--tr", required=True, help="training data the model was fitted on")
    p.add_argument("--va", required=True, help="validation data to score against")
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument("--psi", action="store_true",
                   help="also compute per-row parameter-influence norms "
                        "(one solve per row, run in blocks of rows)")
    p.add_argument("--pcg-tol", type=float, default=PcgConfig.tol,
                   help="relative residual tolerance for the Jacobi-preconditioned solves")
    p.add_argument("--pcg-max-iter", type=int, default=PcgConfig.max_iter,
                   help="iteration cap for the linear solves")
    p.add_argument("--out", required=True, help="where to write index,phi[,psi_norm] CSV")
    p.set_defaults(func=_cmd_influence)

    p = sub.add_parser("sample", help="draw a stratified subset from influence scores")
    p.add_argument("--influence", required=True, help="CSV from `influence`")
    p.add_argument("--tr", required=True, help="training data (for labels)")
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument("--method", required=True, choices=sampling.METHODS)
    p.add_argument("--ratio", type=float, required=True, help="target |subset|/|Tr|")
    p.add_argument("--alpha", type=float, default=None,
                   help="scale of the linear or sigmoid map; other methods read none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="where to write the sampling plan CSV")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evaluate", help="held-out metrics and robustness diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="evaluation data (libsvm text)")
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument("--deltas", default=None,
                   help="comma-separated chi-square radii for the worst-case curve")
    p.add_argument("--baseline-model", default=None,
                   help="second model file; prints the squared parameter shift")
    p.add_argument("--influence", default=None, help="influence CSV for the covariance check")
    p.add_argument("--plan", default=None, help="sampling plan CSV for the covariance check")
    p.add_argument("--out", default=None, help="where to write delta,worst_case,eta_star CSV")
    p.set_defaults(func=_cmd_evaluate)

    for name, help_text in (("pipeline", "run the full sampling-method grid"),
                            ("noise", "pipeline with flipped training labels")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value config file")
        for flag, _, settings in _CONFIG_FLAGS:
            if flag != "--flip" or name == "noise":
                p.add_argument(flag, **settings)
        p.add_argument("--out", required=True, help="where to write the report CSV")
        p.set_defaults(func=_cmd_pipeline, noise=(name == "noise"))

    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    model.check_train_settings(args.reg_c, args.tol, args.max_iter)
    ds = load_libsvm(args.tr, args.n_features)
    params = model.train(ds, args.reg_c, tol=args.tol, max_iter=args.max_iter)
    model.save_params(params, args.out)
    status = "converged" if params.converged else "NOT converged"
    print(f"trained on {ds.n_rows} rows: grad norm {params.grad_norm:.3e} "
          f"after {params.n_iter} steps ({status}); model -> {args.out}")
    return 0 if params.converged else 1


def _load_model_for(path: str, ds_dim: int) -> model.ModelParams:
    params = model.load_params(path)
    if params.dim != ds_dim:
        raise model.ModelError(
            f"model dimension {params.dim} does not match data dimension {ds_dim}; "
            "pass the same --n-features to train, influence, sample and evaluate")
    return params


def _cmd_influence(args: argparse.Namespace) -> int:
    cfg = PcgConfig(tol=args.pcg_tol, max_iter=args.pcg_max_iter)
    tr = load_libsvm(args.tr, args.n_features)
    va = load_libsvm(args.va, args.n_features)
    d = max(tr.n_features, va.n_features)
    tr = with_feature_dim(tr, d)
    va = with_feature_dim(va, d)
    params = _load_model_for(args.model, tr.n_features)
    report = influence.compute_phi(params, tr, va, cfg)
    psi = influence.compute_psi_norms(params, tr, cfg) if args.psi else None
    influence.write_influence_csv(args.out, report.phi, psi)
    print(f"scored {tr.n_rows} rows against {va.n_rows} validation rows "
          f"({report.cg_iters} CG iterations, residual {report.residual:.3e}); "
          f"influence -> {args.out}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.alpha is not None:
        sampling.check_alpha(args.alpha)
    tr = load_libsvm(args.tr, args.n_features)
    phi, psi = influence.read_influence_csv(args.influence)
    if phi.size != tr.n_rows:
        raise sampling.SamplingError(
            f"{phi.size} influence rows for {tr.n_rows} training rows")
    probs = sampling.probs_for(args.method, args.ratio, phi, psi, args.alpha)
    plan = sampling.draw_subset(
        probs, args.ratio, tr.y, args.method, args.seed, phi=phi,
        alpha=float("nan") if args.alpha is None else args.alpha)
    sampling.write_plan_csv(plan, args.out)
    print(f"selected {plan.selected.size}/{tr.n_rows} rows "
          f"({args.method}, ratio {args.ratio}); plan -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    deltas = [float(tok) for tok in (args.deltas or "").split(",") if tok.strip()]
    if args.deltas is not None and not deltas:
        raise ConfigError(f"--deltas {args.deltas!r} names no radius")
    if args.out and not deltas:
        raise ConfigError("--out writes the worst-case curve; it needs --deltas")
    if bool(args.influence) != bool(args.plan):
        raise ConfigError("--influence and --plan go together: the covariance check needs both")
    ds = load_libsvm(args.data, args.n_features)
    params = _load_model_for(args.model, ds.n_features)
    losses = model.per_sample_loss(params, ds, regularized=False)
    print(f"mean logloss {np.mean(losses):.6f}, accuracy {model.accuracy(params, ds):.4f} "
          f"on {ds.n_rows} rows")
    if deltas:
        curve = risk.worst_case_curve(losses, deltas)
        for delta, value, eta in curve:
            print(f"  delta={delta:g}: worst-case {value:.6f} (eta* {eta:.6f})")
        if args.out:
            risk.write_worst_case_curve_csv(curve, args.out)
            print(f"worst-case curve -> {args.out}")
    if args.baseline_model:
        base = _load_model_for(args.baseline_model, ds.n_features)
        print(f"squared parameter shift vs baseline: {risk.gamma_shift(base, params):.6e}")
    if args.influence:
        phi, _ = influence.read_influence_csv(args.influence)
        plan = sampling.read_plan_csv(args.plan)
        cov = risk.cov_phi_eps(phi, plan.probs)
        print(f"cov(influence, weight shift): {cov:.6e} "
              f"({'aimed' if cov <= 0 else 'NOT aimed'} at lowering validation risk)")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    mapping = read_config(args.config) if args.config else {}
    for flag, key, _ in _CONFIG_FLAGS:
        raw = getattr(args, flag[2:].replace("-", "_"), None)
        if raw is not None:
            mapping[key] = raw
    config = config_from_mapping(mapping)
    if args.noise and not config.flip_fraction:
        raise ConfigError("noise experiment needs flip_fraction > 0")
    report = experiment.run_pipeline(config)
    written = experiment.emit_report(report, args.out)
    if report.with_gamma:
        print(f"parameter shifts -> {written[-1]}")
    print(f"full-set model: va logloss {report.full_va_logloss:.6f}, "
          f"te logloss {report.full_te_logloss:.6f}")
    for agg in report.aggregates():
        line = (f"{agg.method} @ ratio {agg.ratio:g}: va {agg.va_mean:.6f}, "
                f"te {agg.te_mean:.6f} (+-{agg.te_std:.6f}, n={agg.n})")
        if report.with_accuracy:
            line += f", acc {agg.accuracy_mean:.4f}"
        print(line)
    failures = report.failures()
    for c in failures:
        print(f"FAILED cell {c.method} ratio {c.ratio:g} repeat {c.repeat}: {c.error}",
              file=sys.stderr)
    print(f"influence {report.influence_seconds:.2f}s, total {report.total_seconds:.2f}s; "
          f"report -> {args.out}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except influence.ConvergenceError as exc:
        # A fit or solve missed its tolerance: exit 1, as `train` does.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
