"""Command-line driver.

Subcommands: run, simulate, equilibrium, reproduce, validate. Exit codes:
0 success, 2 usage error (argparse), 3 scenario parse error / missing
file, 4 validation error, 5 runtime failure. Machine-readable output
(--format records) is a JSON document with stable key order and no
timestamps, so identical inputs and seed reproduce identical bytes; every
report carries the engine version, scenario digest, and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from dataclasses import replace

from . import __version__, reproduce
from .batch import SEED_LIMIT
from .equilibrium import ValueDistribution, solve_symmetric_equilibrium
from .mechanism import run_auction, transcript_dict
from .model import ConfigurationError
from .pricing import RULES
from .scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    builtin_scenario,
    load_scenario,
)
from .sim import simulate
from .units import fmt_bps, to_bps

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_RUNTIME = 5


def _load(ref: str):
    try:
        return load_scenario(ref)
    except FileNotFoundError:
        try:
            return builtin_scenario(ref)
        except FileNotFoundError:
            raise ScenarioParseError(f"no scenario file or builtin named {ref!r}")
    except OSError as e:
        raise ScenarioParseError(f"cannot read scenario file {ref!r}: {e.strerror or e}")


def _emit(text: str, out_path):
    data = text if text.endswith("\n") else text + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _seed(args, scenario):
    """--seed, or the scenario's seed; a seed is a Philox key."""
    if args.seed is None:
        return scenario.seed
    if not 0 <= args.seed < SEED_LIMIT:
        raise ScenarioParseError(f"--seed must be an integer in [0, 2**128), got {args.seed}")
    return args.seed


def _records(command, scenario, seed, result, **envelope) -> str:
    doc = {
        "command": command,
        "engine_version": __version__,
        "scenario_digest": scenario.digest if scenario is not None else None,
        "seed": seed,
        "result": result,
        **envelope,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_run(args) -> int:
    scenario = _load(args.scenario)
    seed = _seed(args, scenario)
    k = args.replication
    if k < 0:
        raise ScenarioParseError(f"--replication must be a non-negative integer, got {k}")
    if args.rule is not None:
        scenario = replace(scenario, rule=args.rule)
    t = run_auction(scenario, seed=seed, replication=k)
    if args.format == "records":
        _emit(_records("run", scenario, seed, transcript_dict(t), replication=k),
              args.out)
        return EXIT_OK
    o = t.outcome
    lines = [
        f"engine: portauction {__version__}",
        f"scenario: {scenario.name or args.scenario} (digest {scenario.digest})",
        f"seed: {seed}   rule: {t.rule}",
        *([f"replication: {k}"] if k else []),
        f"qualified locals: {', '.join(t.qualification.qualified_locals)}",
        f"qualified global: {t.qualification.qualified_global}",
        f"winner: {o.winner}",
    ]
    if o.winner == "coalition":
        fees = ", ".join(
            f"{b}={fmt_bps(to_bps(f))}"
            for b, f in zip(t.qualification.qualified_locals, o.fees)
        )
        lines.append(f"fees (bps): {fees}")
        lines.append(f"delta (bps): {fmt_bps(to_bps(o.delta))}")
    else:
        lines.append(f"global payment (bps): {fmt_bps(to_bps(o.global_payment))}")
    if o.diagnostics.get("core_violations"):
        lines.append("core violations: " + "; ".join(o.diagnostics["core_violations"]))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = _load(args.scenario)
    seed = _seed(args, scenario)
    n = args.replications if args.replications is not None else scenario.replications
    if n < 1:
        raise ScenarioParseError(f"--replications must be a positive integer, got {n}")
    if args.rule is not None:
        scenario = replace(scenario, rule=args.rule)
    metrics = simulate(scenario, n=n, seed=seed)
    # The metrics in CSV column order; records nest the payoffs by broker.
    columns = {
        "rule": scenario.rule,
        "replications": metrics.replications,
        "coalition_win_rate": metrics.coalition_win_rate,
        "mean_seller_cost_bps": metrics.mean_seller_cost * 10_000,
        "core_violation_count": metrics.core_violation_count,
        "frontier_gap_max": metrics.frontier_gap_max,
        "clamped_round2_count": metrics.clamped_round2_count,
    }
    payoffs = {b: metrics.mean_broker_payoff[b] for b in sorted(metrics.mean_broker_payoff)}
    if args.format == "records":
        _emit(_records("simulate", scenario, seed, {**columns, "mean_broker_payoff": payoffs}),
              args.out)
        return EXIT_OK
    header = ["engine_version", "scenario_digest", "seed", *columns,
              *(f"mean_payoff[{b}]" for b in payoffs)]
    row = [__version__, scenario.digest, seed, *columns.values(), *payoffs.values()]
    _emit(_csv(header, [row]), args.out)
    return EXIT_OK


# Sweep parameters: what each value must be, besides a finite number. q is
# capped because each best-response round of the solver costs O(q^2).
_SWEEP_DOMAINS = {
    "shape": (lambda v: v > 1, "above 1"),
    "q": (lambda v: 1 <= v <= 1000 and v.is_integer(),
          "a whole number of packages from 1 to 1000"),
    "alpha_bps": (lambda v: True, "finite"),
    "upper_bps": (lambda v: v > 0, "positive"),
}


def _parse_sweep(expr: str) -> dict:
    grid = {}
    for part in expr.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ScenarioParseError(f"bad sweep term {part!r}; expected key=v1,v2,...")
        key, values = part.split("=", 1)
        key = key.strip()
        if key not in _SWEEP_DOMAINS:
            raise ScenarioParseError(f"unknown sweep parameter {key!r}")
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioParseError(f"bad numeric value in sweep term {part!r}")
        if not parsed:
            raise ScenarioParseError(f"empty value list in sweep term {part!r}")
        in_domain, wanted = _SWEEP_DOMAINS[key]
        for v in parsed:
            if not (math.isfinite(v) and in_domain(v)):
                raise ScenarioParseError(
                    f"bad value {v!r} in sweep term {part!r}: {key} must be {wanted}")
        grid[key] = [int(v) for v in parsed] if key == "q" else parsed
    if not grid:
        raise ScenarioParseError("sweep grid is empty")
    return grid


def _solve(where, dist, alpha_bps, weights, rule):
    """The symmetric equilibrium, or a validation error naming where it was
    sought when the solve leaves the float range: the solver raises values
    to the power of the shape, which no bound on the inputs keeps finite."""
    try:
        sol = solve_symmetric_equilibrium(dist, alpha_bps, weights, rule=rule)
    except ArithmeticError as e:
        failure = f"{type(e).__name__}: {e}"
    else:
        if math.isfinite(sol.bid) and math.isfinite(sol.residual):
            return sol
        failure = f"bid {sol.bid!r}, residual {sol.residual!r}"
    raise ScenarioValidationError(
        [f"{where}: the equilibrium solve leaves the float range ({failure})"])


def _cmd_equilibrium(args) -> int:
    scenario = _load(args.scenario)
    rule = args.rule or scenario.rule
    if rule == "vcg":
        rule = "nvcg"
    dist = scenario.distributions.get("global")
    if dist is None:
        raise ScenarioValidationError(
            ["equilibrium analysis needs a global value distribution"]
        )

    rows = []
    if args.sweep:
        grid = _parse_sweep(args.sweep)
        base_upper = to_bps(dist.upper) if dist.kind == "power-law" else None
        base_shape = dist.shape if dist.kind == "power-law" else None
        alphas = [float(to_bps(b.valuation)) for b in scenario.brokers if b.role == "local"]
        default_alpha = alphas[0] if alphas else 0.0
        for shape, q, alpha_bps, upper_bps in itertools.product(
            grid.get("shape", [base_shape]),
            grid.get("q", [scenario.portfolio.q]),
            grid.get("alpha_bps", [default_alpha]),
            grid.get("upper_bps", [base_upper]),
        ):
            if shape is None or upper_bps is None:
                raise ScenarioValidationError(
                    ["sweep needs a power-law global distribution or explicit "
                     "shape=/upper_bps= terms"]
                )
            d = ValueDistribution.power_law(upper=upper_bps, shape=shape)
            sol = _solve(f"sweep point shape={shape}, q={q}, alpha_bps={alpha_bps}, "
                         f"upper_bps={upper_bps}", d, alpha_bps, [1.0 / q] * q, rule)
            rows.append([rule, shape, q, alpha_bps, sol.bid, sol.residual,
                         sol.converged, sol.iterations])
    else:
        alphas = {float(to_bps(b.valuation)) for b in scenario.brokers if b.role == "local"}
        if len(alphas) != 1:
            raise ScenarioValidationError(
                ["scenario-level equilibrium needs identical local valuations; "
                 "use --sweep for grids"]
            )
        alpha_bps = alphas.pop()
        d = dist.scaled(10_000)  # solve in bps space to match alpha_bps
        sol = _solve("the scenario", d, alpha_bps, [float(w) for w in scenario.weights], rule)
        rows.append([rule, dist.shape, scenario.portfolio.q, alpha_bps,
                     sol.bid, sol.residual, sol.converged, sol.iterations])

    header = ["rule", "shape", "q", "alpha_bps", "bid_bps", "residual", "converged",
              "iterations"]
    if args.format == "records":
        result = {
            "rows": [dict(zip(header, r)) for r in rows],
            "rule": rule,
        }
        _emit(_records("equilibrium", scenario, scenario.seed, result), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    report = reproduce.build(args.target)
    if args.format == "records":
        _emit(
            _records("reproduce", None, None, report.records),
            args.out,
        )
    else:
        _emit(report.text(), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    lines = [
        f"scenario: {scenario.name or args.scenario}",
        f"digest: {scenario.digest}",
        f"portfolio: {scenario.portfolio.m} securities, {scenario.portfolio.q} packages",
        f"brokers: {len(scenario.brokers)}",
        f"rule: {scenario.rule}",
        "valid",
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later main call in the process: parse_args writes each call's values
    into a fresh namespace and leaves the parser unchanged, and help text
    reads the terminal width when it is formatted."""
    parser = argparse.ArgumentParser(
        prog="portauction",
        description="Two-round core-selecting portfolio auction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"portauction {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True):
        p.add_argument("scenario", help="scenario file path or builtin name")
        if formats:
            p.add_argument("--format", choices=("table", "records"), default="table")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("run", help="run one auction and report the transcript")
    common(p)
    p.add_argument("--rule", choices=RULES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replication", type=int, default=0,
                   help="settle row k of the seed's stream, replication k of simulate")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("simulate", help="run replicated auctions and aggregate metrics")
    common(p)
    p.add_argument("--replications", "-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rule", choices=RULES, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("equilibrium", help="solve symmetric equilibrium bids")
    common(p)
    p.add_argument(
        "--sweep",
        default=None,
        help="parameter grid, e.g. 'shape=1.5,2,3;q=2,3,5;alpha_bps=40'",
    )
    p.add_argument("--rule", choices=("nvcg", "dnvcg"), default=None)
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("reproduce", help="recompute a bundled worked example")
    p.add_argument("target", choices=reproduce.TARGETS)
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("validate", help="check a scenario file and report findings")
    common(p, formats=False)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as e:
        print("validation error:", file=sys.stderr)
        for msg in e.errors:
            print(f"  - {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigurationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # runtime failures get their own exit code
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
