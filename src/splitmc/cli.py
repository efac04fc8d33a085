"""Command-line interface: plan | sample | bias | experiment.

Exit codes: 0 success; a library error exits with its class's exit_code,
2 for a ValidityError and 3 for a NumericalFailure (see errors).
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
from pathlib import Path

import numpy as np

from . import zoo
from .engine import SamplerConfig, run_chain
from .errors import InvalidParameter, SplitMCError
from .experiments import (EXPERIMENT_NAMES, ExperimentSpec, _bias_toy_grid, _write_csv,
                          run_experiment)
from .model import center_model, find_minimizer
from .planner import plan_tv_multi, plan_tv_nonstrongly, plan_tv_single, plan_w1_single


def _model_kwargs(args) -> dict:
    if args.model == "aniso-gaussian":
        if not (args.kappa > 0 and math.isfinite(args.kappa)):
            raise InvalidParameter(f"kappa must be positive and finite, got {args.kappa}")
        return {"d": args.d, "m": args.big_m / args.kappa, "M": args.big_m}
    table = {
        "toy-gaussian-1": {"sigma": args.sigma, "b": args.b, "mu": args.mu},
        "toy-gaussian-2": {"sigma": args.sigma, "b": args.b, "mu": args.mu},
        "gaussian-mixture": {"d": args.d, "a_norm": args.a_norm},
        "logistic-split1": {"d": args.d, "n": args.n, "seed": args.data_seed},
        "logistic-split2": {"d": args.d, "n": args.n, "b": args.b, "seed": args.data_seed},
    }
    return table[args.model]


def _add_model_flags(parser, default_model=None):
    """The zoo model flags; --model is required unless a default is given."""
    parser.add_argument("--model", required=default_model is None, default=default_model,
                        choices=zoo.model_names())
    parser.add_argument("--sigma", type=float, default=3.0)
    parser.add_argument("--b", type=int, default=10)
    parser.add_argument("--mu", type=float, default=0.0)
    parser.add_argument("--d", type=int, default=10)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--kappa", type=float, default=4.0)
    parser.add_argument("--big-m", type=float, default=1.0, dest="big_m",
                        help="smoothness constant M (anisotropic Gaussian or plan theorem)")
    parser.add_argument("--a-norm", type=float, default=1.0 / math.sqrt(2.0))
    parser.add_argument("--data-seed", type=int, default=0)


def _check_file_out(path) -> None:
    """plan and bias write one CSV file to --out; a directory is refused."""
    if path is not None and Path(path).is_dir():
        raise InvalidParameter(f"--out names the CSV file to write, but {path} is a directory")


def _cmd_plan(args) -> int:
    _check_file_out(args.out)
    if args.theorem == "w1":
        plan = plan_w1_single(args.m, args.big_m, args.eps)
    elif args.theorem == "tv-single":
        plan = plan_tv_single(args.m, args.big_m, args.d, args.eps)
    elif args.theorem == "tv-ns":
        plan = plan_tv_nonstrongly(args.big_m, args.eps, args.R, args.d)
    else:  # tv-multi needs a concrete model
        model = zoo.build_model(args.model, **_model_kwargs(args))
        theta_star = find_minimizer(model).theta_star
        model = center_model(model, theta_star)
        plan = plan_tv_multi(model, args.eps, theta_star=theta_star)
    row = {
        "theorem": plan.theorem,
        "epsilon": plan.epsilon,
        "rho2": plan.rho2,
        "k_sgs": plan.k_sgs,
        "C": "" if plan.C is None else plan.C,
        "t_mix": plan.t_mix,
        "lambda": "" if plan.regularizer_lambda is None else plan.regularizer_lambda,
        "branch": plan.metadata.get("active_branch", ""),
    }
    _write_csv(args.out, {"command": "plan", "theorem": args.theorem, "seed": args.seed},
               list(row), [row])
    return 0


def _cmd_sample(args) -> int:
    if args.trace and args.out is None:
        raise InvalidParameter("--trace writes chain.sgs1 into the --out directory; give --out")
    model = zoo.build_model(args.model, **_model_kwargs(args))
    config = SamplerConfig(rho=args.rho, sweeps=args.sweeps, burn_in=args.burn_in,
                           record_every=args.record_every)
    theta0 = np.zeros(model.d)
    trace = None
    if args.out is not None:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.trace:
            trace = Path(args.out) / "chain.sgs1"
    report = run_chain(model, config, seed=args.seed, theta0=theta0, trace_path=trace)
    rows = []
    base = args.burn_in + 1
    for k, theta in enumerate(report.thetas):
        row = {"sweep": base + k * args.record_every}
        for j in range(min(model.d, 8)):
            row[f"theta_{j}"] = theta[j]
        row["theta_norm"] = float(np.linalg.norm(theta))
        rows.append(row)
    config_echo = {"command": "sample", "model": args.model, "rho": args.rho,
                   "sweeps": args.sweeps, "seed": args.seed,
                   "max_avg_proposals": report.max_avg_proposals,
                   "wall_time_s": report.wall_time_s}
    out = None if args.out is None else Path(args.out) / "samples.csv"
    _write_csv(out, config_echo, list(rows[0]) if rows else ["sweep"], rows)
    return 0


def _cmd_bias(args) -> int:
    """Bound-vs-exact distance rows over a log rho grid for the scalar Gaussian pair."""
    _check_file_out(args.out)
    sigma, b, mu = args.sigma, args.b, args.mu
    if args.grid_points < 1:
        raise InvalidParameter(f"--grid-points must be at least 1, got {args.grid_points}")
    rows = []
    any_invalid = False
    for rho, tv_exact, tv_b, w1_exact, w1_b in _bias_toy_grid(
            sigma, b, mu, args.log10_rho_min, args.log10_rho_max, args.grid_points):
        any_invalid |= not tv_b.valid
        for name, bound, exact in (("TV", tv_b, tv_exact), ("W1", w1_b, w1_exact)):
            rows.append({"rho": rho, "distance": name, "proposition": bound.rule,
                         "bound": bound.value, "valid": bound.valid,
                         "exact_if_available": exact})
    _write_csv(args.out, {"command": "bias", "sigma": sigma, "b": b, "mu": mu,
                          "seed": args.seed}, list(rows[0]), rows)
    return 2 if any_invalid and args.strict_validity else 0


def _parse_set(values):
    params = {}
    for item in values or ():
        key, _, raw = item.partition("=")
        if not raw:
            raise InvalidParameter(f"--set wants key=value, got {item!r}")
        try:
            params[key.replace("-", "_")] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            params[key.replace("-", "_")] = raw
    return params


def _cmd_experiment(args) -> int:
    spec = ExperimentSpec(name=args.name, params=_parse_set(args.set),
                          seed=args.seed, out_dir=Path(args.out or "."))
    result = run_experiment(spec)
    for key, value in sorted(result.items()):
        if key != "rows":
            print(f"{key}: {value}")
    flags = [v for k, v in result.items() if k in ("bounds_dominate", "envelopes_hold")]
    return 0 if all(flags) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitmc",
                                     description="split Gibbs sampling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="tolerance and mixing-time prescriptions")
    p_plan.add_argument("--theorem", required=True,
                        choices=["w1", "tv-single", "tv-multi", "tv-ns"])
    p_plan.add_argument("--eps", type=float, required=True)
    p_plan.add_argument("--m", type=float, default=0.25)
    p_plan.add_argument("--R", type=float, default=1.0)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--out", default=None)
    _add_model_flags(p_plan, default_model="aniso-gaussian")

    p_sample = sub.add_parser("sample", help="run one chain on a zoo model")
    _add_model_flags(p_sample)
    p_sample.add_argument("--rho", type=float, required=True)
    p_sample.add_argument("--sweeps", type=int, default=1000)
    p_sample.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p_sample.add_argument("--record-every", type=int, default=1, dest="record_every")
    p_sample.add_argument("--trace", action="store_true")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default=None)

    p_bias = sub.add_parser("bias", help="bias bounds vs exact distances (scalar Gaussian)")
    p_bias.add_argument("--sigma", type=float, default=3.0)
    p_bias.add_argument("--b", type=int, default=10)
    p_bias.add_argument("--mu", type=float, default=0.0)
    p_bias.add_argument("--grid-points", type=int, default=30, dest="grid_points")
    p_bias.add_argument("--log10-rho-min", type=float, default=-2.0, dest="log10_rho_min")
    p_bias.add_argument("--log10-rho-max", type=float, default=0.5, dest="log10_rho_max")
    p_bias.add_argument("--strict-validity", action="store_true", dest="strict_validity")
    p_bias.add_argument("--seed", type=int, default=0)
    p_bias.add_argument("--out", default=None)

    p_exp = sub.add_parser("experiment", help="batch experiment harness")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES)
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override an experiment parameter (repeatable)")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "plan": _cmd_plan,
    "sample": _cmd_sample,
    "bias": _cmd_bias,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SplitMCError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
