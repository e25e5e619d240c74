"""Per-layer tracing from outside the program.

The tracer replaces a public function, at the name each caller looks up at
call time, with a wrapper that times the call. Hot leaves such as
ValueDistribution.quantile run many times per replication, so calls are
aggregated in memory per (name, parent, root) instead of being kept as one
span each: root is the benchmark operation that caused the call, parent
the nearest wrapped caller. A span's self time is its duration minus the
time of its wrapped children, so within one operation the self times add
up to the operation's traced wall time.

Wrappers exist only inside `Tracer.installed()`; leaving the block, by
return or by exception, puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# label -> bindings (module, attribute path) where callers look the name up
TARGETS = {
    "scenario.loads_scenario": [("portauction.scenario", "loads_scenario")],
    "scenario.scenario_from_dict": [("portauction.scenario", "scenario_from_dict")],
    "equilibrium.ValueDistribution.quantile": [
        ("portauction.equilibrium", "ValueDistribution.quantile")],
    "equilibrium.equilibrium_bid": [("portauction.sim", "equilibrium_bid")],
    "equilibrium.solve_symmetric_equilibrium": [
        ("portauction.cli", "solve_symmetric_equilibrium")],
    "equilibrium.optimality_residual": [("portauction.equilibrium", "optimality_residual")],
    "pricing.vcg_fees": [("portauction.pricing", "vcg_fees"),
                         ("portauction.reproduce", "vcg_fees")],
    "pricing.nvcg_fees": [("portauction.pricing", "nvcg_fees"),
                          ("portauction.reproduce", "nvcg_fees")],
    "pricing.dnvcg_fees": [("portauction.pricing", "dnvcg_fees"),
                           ("portauction.reproduce", "dnvcg_fees")],
    "pricing.validate_core_point": [("portauction.pricing", "validate_core_point")],
    "mechanism.run_auction": [("portauction.cli", "run_auction"),
                              ("portauction.reproduce", "run_auction")],
    "mechanism.run_round1": [("portauction.mechanism", "run_round1")],
    "mechanism.run_round2": [("portauction.mechanism", "run_round2")],
    "sim.resolve_bids": [("portauction.sim", "resolve_bids")],
    "sim.simulate": [("portauction.sim", "simulate"), ("portauction.cli", "simulate")],
    "sim.compare_strategies": [("portauction.sim", "compare_strategies")],
    "cli.main": [("portauction.cli", "main")],
}

MARK = "__bench_traced__"


def _resolve(module_name, attr_path):
    """(owner, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def is_traced(fn) -> bool:
    return getattr(fn, MARK, False)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        # (name, parent, root) -> [calls, total_ns, child_ns, errors]
        self.records = {}
        self.absent = []
        self._stack = []   # [name, root, child_ns] per open span

    def _record(self, name, fn, args, kwargs):
        stack = self._stack
        if stack:
            parent, root = stack[-1][0], stack[-1][1]
        else:
            parent, root = None, name
        frame = [name, root, 0]
        stack.append(frame)
        failed = 0
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = 1
            raise
        finally:
            dt = self.clock() - t0
            stack.pop()
            if stack:
                stack[-1][2] += dt
            rec = self.records.get((name, parent, root))
            if rec is None:
                rec = self.records[(name, parent, root)] = [0, 0, 0, 0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += frame[2]
            rec[3] += failed

    def wrap(self, name, fn):
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs)

        setattr(traced, MARK, True)
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own (the benchmark's operation)."""
        return self._record(name, fn, args, kwargs)

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Install a wrapper at every binding of every target; a target
        with no binding left in the program is recorded as absent."""
        restore = []
        self.absent = []
        try:
            for label, bindings in targets.items():
                found = False
                for module_name, attr_path in bindings:
                    hit = _resolve(module_name, attr_path)
                    if hit is None:
                        continue
                    owner, attr, original = hit
                    restore.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(label, original))
                    found = True
                if not found:
                    self.absent.append(label)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def self_ns(self) -> dict:
        """name -> self time in ns, summed over parents and roots."""
        out = {}
        for (name, _, _), (_, total, child, _) in self.records.items():
            out[name] = out.get(name, 0) + total - child
        return out

    def totals(self, field) -> dict:
        index = {"calls": 0, "total_ns": 1, "errors": 3}[field]
        out = {}
        for (name, _, _), rec in self.records.items():
            out[name] = out.get(name, 0) + rec[index]
        return out

    def root_wall_ns(self) -> dict:
        """root span name -> its traced wall time."""
        out = {}
        for (name, parent, _), rec in self.records.items():
            if parent is None:
                out[name] = out.get(name, 0) + rec[1]
        return out

    def self_ns_by_root(self) -> dict:
        out = {}
        for (_, _, root), (_, total, child, _) in self.records.items():
            out[root] = out.get(root, 0) + total - child
        return out

    def calls_under(self, name, roots) -> int:
        return sum(rec[0] for (n, _, root), rec in self.records.items()
                   if n == name and root in roots)

    def dump(self) -> list:
        return [
            {"name": name, "parent": parent, "root": root, "calls": c,
             "total_s": total / 1e9, "self_s": (total - child) / 1e9, "errors": e}
            for (name, parent, root), (c, total, child, e) in sorted(
                self.records.items(), key=lambda kv: (str(kv[0][2]), str(kv[0][1]), kv[0][0]))
        ]
