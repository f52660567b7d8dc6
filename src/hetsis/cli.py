"""Command-line front end.

Subcommands: steady, dynamics, threshold, sensitivity, kn, oracle.
Output is JSON (CSV for dynamics) with floats fixed at 17 significant
digits and keys emitted in a fixed order, so identical invocations
produce byte-identical documents.  Exit codes: 0 success, 2 input
error, 3 numerical failure; failures emit {"error": code, "detail": msg}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import dynamics, markov, sensitivity, steady_state, threshold
from .errors import HetsisError, InputError
from .graphs import Graph, RateConfig, _integer, parse_edge_list

__all__ = ["main"]


def _fmt(value) -> str:
    """Serialize to JSON text with deterministic float formatting."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return json.dumps(value)  # Infinity, -Infinity, NaN
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}", code="file-not-found") from None
    return parse_edge_list(text)


def _float_list(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise InputError(f"{flag} must be a comma-separated list of numbers, got {text!r}", code="parse-error") from None


def _resolve_rates(g: Graph, args, allow_bare_tau: bool) -> RateConfig:
    scalars = [name for name in ("beta", "delta", "tau") if getattr(args, name, None) is not None]
    if args.rates is not None:
        if scalars:
            raise InputError("--rates conflicts with --beta/--delta/--tau", code="conflicting-rates")
        try:
            with open(args.rates, encoding="utf-8") as handle:
                return RateConfig.from_json(g, handle.read())
        except OSError as exc:
            raise InputError(f"cannot read rates file: {exc}", code="file-not-found") from None
    if args.tau is not None:
        if args.beta is not None or args.delta is not None:
            raise InputError("--tau conflicts with --beta/--delta", code="conflicting-rates")
        if not allow_bare_tau:
            raise InputError(
                "this command needs true time scales: give --beta and --delta, not bare --tau",
                code="bare-tau-not-allowed",
            )
        return RateConfig.from_tau(g, args.tau)
    if args.beta is None or args.delta is None:
        raise InputError("provide --rates, --tau, or both --beta and --delta", code="missing-rates")
    return RateConfig.for_graph(g, args.beta, args.delta)


def _add_rate_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", required=True, help="edge-list file, one 'u v' pair per line")
    sub.add_argument("--beta", type=float, help="scalar infection rate, broadcast to all nodes")
    sub.add_argument("--delta", type=float, help="scalar curing rate, broadcast to all nodes")
    sub.add_argument("--tau", type=float, help="scalar effective rate (beta=tau, delta=1)")
    sub.add_argument("--rates", help='JSON file {"beta": [...], "delta": [...]}')


def _cmd_steady(args) -> str:
    g = _load_graph(args.graph)
    rates = _resolve_rates(g, args, allow_bare_tau=True)
    ss = steady_state.solve(g, rates, tol=args.tol, max_iter=args.max_iter)
    doc = {
        "regime": ss.regime,
        "v_inf": ss.v_inf,
        "y_inf": ss.y_inf,
        "iterations": ss.iterations,
        "residual": ss.residual,
        "bounds": dataclasses.asdict(steady_state.bounds(g, rates, ss)),
    }
    return _fmt(doc)


def _cmd_dynamics(args) -> str:
    g = _load_graph(args.graph)
    rates = _resolve_rates(g, args, allow_bare_tau=False)
    if args.v0_list is not None:
        v0 = _float_list(args.v0_list, "--v0-list")
    else:
        v0 = np.full(g.n, args.v0)
    traj = dynamics.integrate(
        g,
        rates,
        v0,
        args.t_end,
        dt_hint=args.dt_hint,
        max_points=None if args.full_resolution else args.max_points,
    )
    lines = ["t," + ",".join(f"v{i}" for i in range(g.n))]
    for t, state in zip(traj.times, traj.states):
        lines.append(format(t, ".17g") + "," + ",".join(format(x, ".17g") for x in state))
    return "\n".join(lines)


def _cmd_threshold(args) -> str:
    g = _load_graph(args.graph)
    rates = _resolve_rates(g, args, allow_bare_tau=True)
    report = threshold.classify(g, rates)
    doc = {
        "lambda_max_R": report.lambda_max_R,
        "regime": report.regime,
        "tau_min": report.tau_min,
        "tau_max": report.tau_max,
    }
    if args.direction is not None:
        doc["s_star"] = threshold.critical_scaling(g, _float_list(args.direction, "--direction"))
    doc["bound_ledger"] = report.bound_ledger
    return _fmt(doc)


def _cmd_sensitivity(args) -> str:
    g = _load_graph(args.graph)
    rates = _resolve_rates(g, args, allow_bare_tau=True)
    ss = steady_state.solve(g, rates, tol=sensitivity._SOLVE_TOL)
    report = sensitivity.full_report(g, rates, ss)
    doc = {
        "d1": report.d1,
        "d2": report.d2,
        "d1_tied": report.d1_tied,
        "d2_tied": report.d2_tied,
        "m_matrix": report.m_matrix,
        "convexity": report.convexity,
        "inverse_ledger": sensitivity._ledger(g, rates, ss.v_inf, report.s_inverse),
    }
    return _fmt(doc)


def _cmd_kn(args) -> str:
    tau = _float_list(args.tau_list, "--tau-list")
    if args.n is not None:
        _integer(args.n, "--n", 2)
        if tau.size == 1:
            tau = np.full(args.n, tau[0])
        elif tau.size != args.n:
            raise InputError(f"--tau-list has {tau.size} entries but --n is {args.n}", code="length-mismatch")
    total, on_surface = threshold.complete_graph_critical_sum(tau)
    doc = {
        "n": int(tau.size),
        "tau": tau,
        "lambda_max": threshold.complete_graph_lambda_max(tau),
        "critical_sum": total,
        "on_surface": on_surface,
    }
    return _fmt(doc)


def _cmd_oracle(args) -> str:
    g = _load_graph(args.graph)
    rates = _resolve_rates(g, args, allow_bare_tau=False)
    estimate = markov.simulate(
        g,
        rates,
        horizon=args.horizon,
        burn_in=args.burn_in,
        replicas=args.replicas,
        seed=args.seed,
    )
    ss = steady_state.solve(g, rates)
    doc = {
        "prevalence_mean": estimate.prevalence_mean,
        "y_mean": estimate.y_mean,
        "stderr": estimate.stderr,
        "replicas": estimate.replicas,
        "seed": estimate.seed,
        "survival_fraction": estimate.survival_fraction,
        "mean_field_prevalence": ss.v_inf,
        "mean_field_y": ss.y_inf,
    }
    return _fmt(doc)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsis",
        description="Heterogeneous SIS epidemics on networks: mean-field analysis and Markov oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("steady", help="metastable steady state")
    _add_rate_options(p)
    p.add_argument("--tol", type=float, default=steady_state._TOL)
    p.add_argument("--max-iter", type=int, default=steady_state._MAX_ITER)
    p.set_defaults(func=_cmd_steady)

    p = sub.add_parser("dynamics", help="transient trajectory as CSV")
    _add_rate_options(p)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt-hint", type=float, help="first trial step (positive, finite); the error control picks the rest")
    p.add_argument("--v0", type=float, default=0.9, help="scalar initial infection probability")
    p.add_argument("--v0-list", help="comma-separated initial probabilities")
    p.add_argument("--max-points", type=int, default=2000, help="keep at most this many rows (every stride-th step plus the last)")
    p.add_argument("--full-resolution", action="store_true", help="one row per accepted step, ignoring --max-points")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("threshold", help="critical-surface classification and bounds")
    _add_rate_options(p)
    p.add_argument("--direction", help="comma-separated tau ray for critical scaling")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("sensitivity", help="curing-rate derivatives and ledger")
    _add_rate_options(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("kn", help="complete-graph analytics from the secular equation")
    p.add_argument("--n", type=int)
    p.add_argument("--tau-list", required=True, help="comma-separated taus (one value broadcasts)")
    p.set_defaults(func=_cmd_kn)

    p = sub.add_parser("oracle", help="stochastic simulation vs mean-field prevalence")
    _add_rate_options(p)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--horizon", type=float, default=100.0)
    p.add_argument("--burn-in", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(args.func(args) + "\n")
    except (HetsisError, ValueError, ArithmeticError) as exc:
        code = exc.code if isinstance(exc, HetsisError) else "unexpected-failure"
        sys.stdout.write(_fmt({"error": code, "detail": str(exc)}) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
