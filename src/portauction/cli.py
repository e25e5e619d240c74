"""Command-line driver.

Subcommands: run, simulate, equilibrium, reproduce, validate. Exit codes:
0 success, 2 usage error (argparse), 3 scenario parse error / missing
file, 4 validation error, 5 runtime failure. Machine-readable output
(--format records) is a JSON document with stable key order and no
timestamps, so identical inputs and seed reproduce identical bytes. Every
records document has one envelope: command, engine_version,
scenario_digest, seed and result. run, simulate and equilibrium fill all
of them, and run adds replication; reproduce names the scenario digest of
the two worked examples, null for the figures, and its seed is null.
--out PATH writes the output to PATH instead of stdout: it overwrites an
existing file in place and trims it to the new length. The write is not
atomic; for atomic replacement write to a new path and rename it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import replace

from . import __version__, reproduce
from .batch import check_count, check_row, check_seed, row_width
from .equilibrium import ValueDistribution, solve_symmetric_equilibrium
from .mechanism import run_auction, transcript_dict
from .model import ConfigurationError, is_number
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
    """Write the output, newline-terminated, to stdout or to out_path. A
    file is overwritten in place and then trimmed to the new length, which
    leaves what open(out_path, "w") leaves (links followed; inode, mode and
    hard links kept; a new file at 0o666 less the umask), but a rewrite
    does not wait, as a truncate to zero on open does, for the filesystem
    to flush the old contents."""
    data = text if text.endswith("\n") else text + "\n"
    if not out_path:
        sys.stdout.write(data)
        return
    buf = data.encode("utf-8")
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        while written < len(buf):
            written += os.write(fd, buf[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):  # devices and pipes take no trim
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _records(command, scenario, seed, result, **envelope) -> str:
    doc = {
        "command": command,
        "engine_version": __version__,
        "scenario_digest": scenario.digest if scenario is not None else None,
        "seed": seed,
        "result": result,
        **envelope,
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _flag(name, check, *args):
    """check(*args), batch's one check of the value a flag gives, with its
    ConfigurationError re-raised as a parse error naming the flag."""
    try:
        return check(*args)
    except ConfigurationError as e:
        raise ScenarioParseError(f"{name}: {e}") from None


def _cmd_run(args, scenario, seed):
    k = _flag("--replication", check_row, args.replication, 1, row_width(scenario))
    t = run_auction(scenario, seed=seed, replication=k)
    if args.format == "records":
        return {"result": transcript_dict(t), "replication": k}
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
    return "\n".join(lines)


def _cmd_simulate(args, scenario, seed):
    if args.replications is not None:
        _flag("--replications", check_count, args.replications)
    metrics = simulate(scenario, n=args.replications, seed=seed)
    # The metrics in CSV column order; records nest the payoffs by broker.
    columns = {
        "rule": scenario.rule,
        "replications": metrics.replications,
        "coalition_win_rate": metrics.coalition_win_rate,
        "mean_seller_cost_bps": to_bps(metrics.mean_seller_cost),
        "core_violation_count": metrics.core_violation_count,
        "frontier_gap_max": metrics.frontier_gap_max,
        "clamped_round2_count": metrics.clamped_round2_count,
    }
    payoffs = {b: metrics.mean_broker_payoff[b] for b in sorted(metrics.mean_broker_payoff)}
    if args.format == "records":
        return {"result": {**columns, "mean_broker_payoff": payoffs}}
    header = ["engine_version", "scenario_digest", "seed", *columns,
              *(f"mean_payoff[{b}]" for b in payoffs)]
    row = [__version__, scenario.digest, seed, *columns.values(), *payoffs.values()]
    return _csv(header, [row])


# Sweep parameters: what each finite value must be, and the message for any
# value that is not. q is capped: each point builds a list of q weights.
_SWEEP_DOMAINS = {
    "shape": (lambda v: v > 1, "a finite number above 1"),
    "q": (lambda v: 1 <= v <= 1000 and v.is_integer(),
          "a finite whole number of packages from 1 to 1000"),
    "alpha_bps": (lambda v: True, "a finite number"),
    "upper_bps": (lambda v: v > 0, "a finite number above 0"),
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
        if key in grid:
            raise ScenarioParseError(f"sweep parameter {key!r} repeated in term {part!r}")
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioParseError(f"bad numeric value in sweep term {part!r}")
        if not parsed:
            raise ScenarioParseError(f"empty value list in sweep term {part!r}")
        in_domain, wanted = _SWEEP_DOMAINS[key]
        for v in parsed:
            if not (is_number(v) and in_domain(v)):
                raise ScenarioParseError(
                    f"bad value {v!r} in sweep term {part!r}: {key} must be {wanted}")
        grid[key] = [int(v) for v in parsed] if key == "q" else parsed
    if not grid:
        raise ScenarioParseError("sweep grid is empty")
    return grid


def _solve(where, dist, alpha_bps, weights):
    """The symmetric equilibrium, or a validation error naming where it was
    sought when the solve leaves the float range: the solver raises values
    to the power of the shape, which no bound on the inputs keeps finite."""
    try:
        sol = solve_symmetric_equilibrium(dist, alpha_bps, weights)
    except ArithmeticError as e:
        failure = f"{type(e).__name__}: {e}"
    else:
        if math.isfinite(sol.bid) and math.isfinite(sol.residual):
            return sol
        failure = f"bid {sol.bid!r}, residual {sol.residual!r}"
    raise ScenarioValidationError(
        [f"{where}: the equilibrium solve leaves the float range ({failure})"])


def _cmd_equilibrium(args, scenario, seed):
    rule = "nvcg" if scenario.rule == "vcg" else scenario.rule  # as equilibrium bids read it
    dist = scenario.distributions.get("global")
    if dist is None:
        raise ScenarioValidationError(["equilibrium analysis needs a global value distribution"])
    grid = _parse_sweep(args.sweep) if args.sweep else {}
    # Every solve starts from alpha_bps: swept, or the locals' common valuation,
    # which they do not use when they draw their values.
    valuations = sorted({float(to_bps(b.valuation)) for b in scenario.brokers
                         if b.role == "local"})
    if scenario.distributions.get("local") is not None and "alpha_bps" not in grid:
        raise ScenarioValidationError(["the locals draw their values from distributions.local: "
                                       "equilibrium needs a swept alpha_bps="])
    if len(valuations) != 1 and "alpha_bps" not in grid:
        raise ScenarioValidationError([f"the locals' valuations {valuations} bps differ: "
                                       "equilibrium needs one, or a swept alpha_bps="])
    alphas = grid.get("alpha_bps", valuations)

    # (where, distribution in bps, weights, shape, q, alpha_bps) of each solve
    if not args.sweep:
        points = [("the scenario", dist.scaled(to_bps(1)), [float(w) for w in scenario.weights],
                   dist.shape, scenario.portfolio.q, alphas[0])]
    elif dist.kind != "power-law" and not {"shape", "upper_bps"} <= grid.keys():
        raise ScenarioValidationError(["sweep needs a power-law global distribution or "
                                       "explicit shape=/upper_bps= terms"])
    else:
        points = [
            (f"sweep point shape={shape}, q={q}, alpha_bps={alpha_bps}, upper_bps={upper_bps}",
             ValueDistribution.power_law(upper=upper_bps, shape=shape), [1.0 / q] * q,
             shape, q, alpha_bps)
            for shape, q, alpha_bps, upper_bps in itertools.product(
                grid.get("shape") or [dist.shape], grid.get("q") or [scenario.portfolio.q],
                alphas, grid.get("upper_bps") or [to_bps(dist.upper)])
        ]
    rows = []
    for where, d, weights, shape, q, alpha_bps in points:
        sol = _solve(where, d, alpha_bps, weights)
        rows.append([rule, shape, q, alpha_bps, sol.bid, sol.residual, sol.converged,
                     sol.iterations])

    header = ["rule", "shape", "q", "alpha_bps", "bid_bps", "residual", "converged",
              "iterations"]
    if args.format == "records":
        return {"result": {"rows": [dict(zip(header, r)) for r in rows], "rule": rule}}
    return _csv(header, rows)


def _cmd_reproduce(args, scenario, seed):
    report = reproduce.build(args.target)
    if args.format == "records":
        result = dict(report.records)
        digest = result.pop("scenario_digest", None)  # only the worked examples name one
        return {"result": result, "scenario_digest": digest}
    return report.text()


def _cmd_validate(args, scenario, seed):
    return "\n".join([
        f"scenario: {scenario.name or args.scenario}",
        f"digest: {scenario.digest}",
        f"portfolio: {scenario.portfolio.m} securities, {scenario.portfolio.q} packages",
        f"brokers: {len(scenario.brokers)}",
        f"rule: {scenario.rule}",
        "valid",
    ])


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

    def common(p, scenario=True, formats=True):
        if scenario:
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
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("reproduce", help="recompute a bundled worked example")
    p.add_argument("target", choices=reproduce.TARGETS)
    common(p, scenario=False)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("validate", help="check a scenario file and report findings")
    common(p, formats=False)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one command. main loads the scenario, settles the seed and the
    rule, and writes the output; the command only computes it from (args,
    scenario, seed): the table text, or a dict of the records' result and
    any envelope keys of its own."""
    args = build_parser().parse_args(argv)
    try:
        scenario = seed = None
        if hasattr(args, "scenario"):
            scenario = _load(args.scenario)
            seed = scenario.seed
        if getattr(args, "seed", None) is not None:
            seed = _flag("--seed", check_seed, args.seed)
        if getattr(args, "rule", None) is not None:
            scenario = replace(scenario, rule=args.rule)
        out = args.fn(args, scenario, seed)
        if not isinstance(out, str):
            out = _records(args.command, scenario, seed, **out)
        _emit(out, args.out)
        return EXIT_OK
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
