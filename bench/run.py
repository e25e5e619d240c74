"""Closed-loop benchmark of portauction.

    python3 bench/run.py --workload powerlaw-rules --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory. One client in one process issues each call into the
public API only after the previous one returned; there are no threads or
pools. Workloads (see workloads.py): powerlaw-rules, crowded-market,
cli-exact. Inputs are a pure function of --seed.

--trace 0 measures for --seconds and reports the end-to-end metrics:
  setup_s            import, input generation and one warm-up call; median
                     of this process's set-up and SETUP_PROBES fresh ones
  sim_reps_per_s     replications/s through simulate
  paired_reps_per_s  pairs/s through compare_strategies
  run_best_ms        fastest of the run's in-process `run` CLI calls
                     (at least 1,000 a run)
  sweep_s            fastest `equilibrium --sweep` of the run
  peak_rss_mb        peak resident memory of this process
Throughputs are summed work over summed best call times per input, so the
mix of inputs does not depend on where a run's deadline falls. The timed
metrics are best-of-k because this benchmark has to hold its bounds on
shared machines whose speed drifts by up to 2x within minutes: every
median and percentile moved with that drift, the fastest call much less.
The latency percentiles run_p50_ms and run_p99_ms and failed_share are
measured all the same and printed to stderr and the report, not gated.

--trace 1 runs one cycle of the workload's operations untraced, then again
with every layer's public functions wrapped (tracer.py), and reports per
layer calls, self time, self share and errors, plus
pricing.vcg_fees.calls_per_win and trace.overhead.

Every operation is checked; a call that raises, exits non-zero or fails
its check counts as failed. Progress goes to stderr, a full report to
bench/results/, and the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

WORKLOAD_NAMES = ("powerlaw-rules", "crowded-market", "cli-exact")
SETUP_PROBES = 4
MIN_RUN_CALLS = 1000
MAX_ERRORS_SHOWN = 10
GIVE_UP_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def set_up(workload, seed, workdir):
    """Import the library, generate the workload's inputs and make one
    untimed warm-up call. Returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import portauction
    import workloads

    if not Path(portauction.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"portauction imported from {portauction.__file__}, not {SRC}")
    warnings.simplefilter("ignore", portauction.ModelWarning)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warmup()
    return wl, time.perf_counter() - t0


def setup_probe(workload, seed):
    """Set-up time of a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Ledger:
    """Attempted and failed operations, and per-op timings of the ones
    that succeeded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.samples = defaultdict(list)   # (kind, group, work) -> [seconds]
        self.counts = defaultdict(int)     # kind -> successful calls

    def execute(self, op, span=None):
        """Issue one call, time it, check it. Returns (ok, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call() if span is None else span(f"op.{op.kind}", op.call)
        except Exception as e:  # a failing call is counted, never dropped
            dt, result, error = time.perf_counter() - t0, None, f"{type(e).__name__}: {e}"
        else:
            dt = time.perf_counter() - t0
            try:
                error = op.check(result)
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"
        if error:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{op.kind} {op.group}: {error}")
                log(f"FAILED {op.kind} {op.group}: {error}")
            return False, result
        self.samples[(op.kind, op.group, op.work)].append(dt)
        self.counts[op.kind] += 1
        return True, result

    def throughput(self, kind):
        """Summed work over summed per-input best call times."""
        groups = [(work, min(ts)) for (k, _, work), ts in self.samples.items() if k == kind]
        seconds = sum(t for _, t in groups)
        return sum(w for w, _ in groups) / seconds if seconds else 0.0

    def total_s(self):
        return sum(sum(ts) for ts in self.samples.values())

    def times(self, kind):
        return [t for (k, _, _), ts in self.samples.items() if k == kind for t in ts]


def measure(wl, seconds):
    """Issue cycles of operations until `seconds` have passed and every
    kind of operation reached its minimum count."""
    ledger = Ledger()
    kinds = {op.kind for op in wl.cycle(0)}
    minimum = {kind: MIN_RUN_CALLS if kind == "run" else 1 for kind in kinds}

    def short(kind):
        return ledger.counts[kind] < minimum[kind]

    deadline = time.perf_counter() + seconds
    c = 0
    previous = None
    while True:
        for op in wl.cycle(c):
            now = time.perf_counter()
            if now >= deadline:
                # Stop once every minimum is met; give up on a minimum that
                # failing calls keep out of reach.
                if not any(short(k) for k in kinds) or now >= deadline + GIVE_UP_S:
                    return ledger, c
                if not short(op.kind):
                    continue
            if op.kind != previous:
                # Untimed: garbage left by one kind of call is not charged
                # to the next kind.
                gc.collect()
                previous = op.kind
            ledger.execute(op)
        c += 1


def end_to_end(ledger, setups):
    """The gated metrics, and the latency percentiles that are not gated."""
    runs_ms = sorted(t * 1e3 for t in ledger.times("run")) or [0.0, 0.0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sim_reps_per_s": (ledger.throughput("sim"), "1/s"),
        "paired_reps_per_s": (ledger.throughput("paired"), "1/s"),
        "run_best_ms": (runs_ms[0], "ms"),
        "sweep_s": (min(ledger.times("sweep"), default=0.0), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    percentiles = statistics.quantiles(runs_ms, n=100, method="inclusive")
    ungated = {
        "run_p50_ms": (percentiles[49], "ms"),
        "run_p99_ms": (percentiles[98], "ms"),
        "run_calls": (len(ledger.times("run")), "count"),
    }
    return _named(metrics), _named(ungated)


def _named(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced(wl):
    """One cycle untraced, then the same cycle traced."""
    from tracer import TARGETS, Tracer

    ops = wl.cycle(0)
    untraced = Ledger()
    for op in ops:
        untraced.execute(op)

    tracer = Tracer()
    ledger = Ledger()
    wins = 0
    with tracer.installed():
        for op in ops:
            ok, result = ledger.execute(op, span=tracer.span)
            if ok and op.wins is not None:
                wins += op.wins(result)
    untraced_s, traced_s = untraced.total_s(), ledger.total_s()
    ledger.attempted += untraced.attempted
    ledger.failed += untraced.failed
    ledger.errors = untraced.errors + ledger.errors

    self_ns = tracer.self_ns()
    calls = tracer.totals("calls")
    errors = tracer.totals("errors")
    root_ns = tracer.root_wall_ns()
    wall_ns = sum(ns for name, ns in root_ns.items() if name.startswith("op."))
    metrics = {}
    for label in TARGETS:
        metrics[f"{label}.calls"] = (calls.get(label, 0), "count")
        metrics[f"{label}.self_s"] = (self_ns.get(label, 0) / 1e9, "s")
        metrics[f"{label}.self_share"] = (self_ns.get(label, 0) / max(wall_ns, 1), "ratio")
        metrics[f"{label}.errors"] = (errors.get(label, 0), "count")
    vcg_calls = tracer.calls_under("pricing.vcg_fees", ("op.sim", "op.run"))
    metrics["pricing.vcg_fees.calls_per_win"] = (vcg_calls / wins if wins else 0.0, "calls/win")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")

    # Self times telescope: within each operation kind they sum to its wall time.
    by_root = tracer.self_ns_by_root()
    residual = {root: by_root[root] - root_ns.get(root, 0) for root in by_root}
    report = {
        "absent": tracer.absent,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "coalition_wins": wins,
        "self_time_residual_ns": residual,
        "spans": tracer.dump(),
    }
    if tracer.absent:
        log(f"absent from the program (reported as 0): {', '.join(tracer.absent)}")
    if any(residual.values()):
        ledger.failed += 1
        ledger.errors.append(f"self times do not add up to operation wall time: {residual}")
    return ledger, _named(metrics), report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (internal)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "portauction" / "__init__.py").is_file():
        log(f"error: no portauction sources under {SRC}; run from a full checkout")
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl, setup0 = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup0))
            return 0

        from machine import stamp

        info = stamp(ROOT)
        log(f"machine: {json.dumps(info)}")
        log(f"input digests: {json.dumps(wl.digests, sort_keys=True)}")
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "machine": info, "digests": wl.digests}

        if args.trace:
            ledger, metrics, report["trace"] = traced(wl)
        else:
            setups = [setup0] + [setup_probe(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
            ledger, cycles = measure(wl, args.seconds)
            metrics, report["latency"] = end_to_end(ledger, setups)
            report["setup_samples_s"] = setups
            report["cycles"] = cycles
            report["calls_by_input"] = {
                f"{kind}:{group}": {"calls": len(ts), "median_s": statistics.median(ts),
                                    "min_s": min(ts), "max_s": max(ts)}
                for (kind, group, _), ts in sorted(ledger.samples.items())}

        ref = wl.references()
        for op in ref:
            ledger.execute(op)
        failed_share = ledger.failed / ledger.attempted
        report.update(run_outcomes=wl.outcomes, reference_checks=len(ref),
                      attempted=ledger.attempted, failed=ledger.failed,
                      failed_share=failed_share, errors=ledger.errors, metrics=metrics)
        for name, m in {**metrics, **report.get("latency", {})}.items():
            log(f"{name} = {m['value']:.6g} {m['unit']}")
        log(f"failed_share = {failed_share:.6g} ({ledger.failed} of {ledger.attempted})")
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        log(f"report: {out}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
