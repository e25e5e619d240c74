"""The benchmark's three workloads: generated inputs, closed-loop operations
and the correctness check of every operation.

A workload is built from its seed alone. `Workload.cycle(c)` returns the
operations of cycle c; the runner issues them one after another and times
each call. Every operation carries a check; a check that needs library
calls caches its verdict per input, so a repeated input (and the traced
pass of a trace run) adds no library calls.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from portauction import cli, mechanism, pricing, reproduce, scenario, sim
from portauction.mechanism import transcript_dict

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH.parent / "tests" / "golden"
REFERENCE = BENCH / "reference.json"

RULES = ("vcg", "nvcg", "dnvcg")

# Relative agreement required between a summary and its recorded value;
# ABS_FLOOR absorbs round-off on means that cancel to (nearly) zero.
REL_TOL = 1e-9
ABS_FLOOR = 1e-15


@dataclass
class Op:
    """One closed-loop call into the public API.

    kind    metric family: sim, paired, run, sweep or reproduce
    group   identity of the inputs; timings are summarised per group
    work    replications (sim), pairs (paired) or 1
    call    performs the call and returns its result
    check   returns None when the result is correct, else a message
    wins    optional: coalition wins in the result, for calls_per_win
    """

    kind: str
    group: str
    work: int
    call: Callable
    check: Callable
    wins: Optional[Callable] = None


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a, b) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def sim_summary(m) -> dict:
    """What a simulate call is compared on. core_violation_count is left
    out on purpose: its definition is due to change."""
    return {
        "replications": m.replications,
        "win_count": round(m.coalition_win_rate * m.replications),
        "clamped_round2_count": m.clamped_round2_count,
        "mean_seller_cost": m.mean_seller_cost,
        "mean_broker_payoff": dict(sorted(m.mean_broker_payoff.items())),
    }


def paired_summary(r) -> dict:
    return {
        "broker_id": r.broker_id,
        "replications": r.replications,
        "mean_baseline": r.mean_baseline,
        "mean_deviation": r.mean_deviation,
        "mean_difference": r.mean_difference,
        "paired_se": r.paired_se,
    }


def compare_summary(got: dict, want: dict) -> Optional[str]:
    """Counts must match exactly and means within REL_TOL."""
    for key, w in want.items():
        g = got.get(key)
        if isinstance(w, dict):
            if set(g) != set(w):
                return f"{key}: brokers {sorted(g)} != {sorted(w)}"
            for b in w:
                if not _close(g[b], w[b]):
                    return f"{key}[{b}] = {g[b]!r}, recorded {w[b]!r}"
        elif isinstance(w, float):
            if not _close(g, w):
                return f"{key} = {g!r}, recorded {w!r}"
        elif g != w:
            return f"{key} = {g!r}, recorded {w!r}"
    return None


def _sim_invariants(m, rule) -> Optional[str]:
    if not 0.0 <= m.coalition_win_rate <= 1.0:
        return f"win rate {m.coalition_win_rate} outside [0, 1]"
    if rule in ("nvcg", "dnvcg") and not m.frontier_gap_max <= pricing.FRONTIER_TOL:
        return f"frontier_gap_max {m.frontier_gap_max} > FRONTIER_TOL under {rule}"
    if not all(math.isfinite(v) for v in m.mean_broker_payoff.values()):
        return "non-finite mean payoff"
    return None


def _sim_wins(m):
    return round(m.coalition_win_rate * m.replications)


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

# The scenario of tests/test_acceptance.py::test_dominance_checks_100k.
DOMINANCE_SCENARIO = {
    "schema_version": 1,
    "name": "dominance",
    "portfolio": {
        "securities": ["A", "B", "C"],
        "quantities": [6, 3, 1],
        "agreed_prices": [1, 1, 1],
        "anticipated_prices": [1, 1, 1],
        "packages": [[6, 0, 0], [0, 3, 1]],
    },
    "brokers": [
        {"id": "L1", "role": "local", "package_index": 0, "valuation_bps": 20},
        {"id": "L2", "role": "local", "package_index": 1, "valuation_bps": 20},
        {"id": "G", "role": "global", "valuation_bps": 0},
    ],
    "distributions": {"global": {"kind": "power-law", "upper_bps": 40, "shape": 2.0}},
    "rule": "dnvcg",
    "strategies": {
        "L1": {"round1": {"kind": "constant", "value_bps": 31},
               "round2": {"kind": "truthful"}},
        "L2": {"round1": {"kind": "constant", "value_bps": 32},
               "round2": {"kind": "truthful"}},
        "G": {"round1": {"kind": "constant", "value_bps": 40},
              "round2": {"kind": "capped-value"}},
    },
    "seed": 0,
    "replications": 100000,
}


def dominance_deviations(base):
    """The two unilateral deviations of the dominance acceptance test."""
    return {
        "round1-overbid": base.with_strategy(
            "L1", round1=sim.Strategy(kind="constant", value=Fraction(38, 10_000))),
        "round2-underbid": base.with_strategy(
            "L1", round2=sim.Strategy(kind="offset", offset=Fraction(-6, 10_000))),
    }


# One 25-point grid (5 shapes x 5 package counts) for every workload, short
# enough that a run holds many sweeps. It does not vary with the seed: the
# solver's cost depends on every grid value.
SWEEP_GRID = "shape=1.5,2,3,4,5;q=2,3,4,6,8;alpha_bps=17"


CROWDED_PACKAGES = 5
CROWDED_LOCALS_PER_PACKAGE = 3


# The crowded market's strategies: the seed deals them out to the brokers,
# so every seed has the same mix and roughly the same work per replication.
CROWDED_OFFSETS_BPS = (0, 0, 1, 1, 1, 2, 2)
CROWDED_EQUILIBRIA = tuple(
    {"kind": "equilibrium", "sigma": sigma, "in_qdown": in_qdown, "ell": ell,
     "sum_w_qdown": 0.8}
    for sigma, in_qdown, ell in ((0.0001, True, 0), (0.0002, True, 1), (0.0003, True, 2),
                                 (0.0001, False, 0), (0.0002, False, 1), (0.0003, False, 0),
                                 (0.0002, True, 2))
)
CROWDED_GLOBAL_OFFSETS_BPS = (2, 4, 6)
CROWDED_SAMPLE_BPS = tuple(range(10, 34, 2))


def crowded_scenario(seed: int) -> dict:
    """18 brokers: 5 equal packages with 3 locals each, 3 globals.

    Local values are independent draws from an empirical sample on a
    2-bps grid, so round-1 ties are common. Seven locals bid an offset
    above value (then truthfully), seven the closed-form equilibrium bid
    in both rounds; the seed decides who plays what. Local P0L0 raises its
    round-2 offset above its round-1 offset, so its round-2 bid is clamped
    whenever it qualifies.
    """
    rng = random.Random(f"crowded-market/{seed}")
    q = CROWDED_PACKAGES
    ids = [f"P{j}L{k}" for j in range(q) for k in range(CROWDED_LOCALS_PER_PACKAGE)]
    deal = [{"round1": {"kind": "offset", "offset_bps": o}, "round2": {"kind": "truthful"}}
            for o in CROWDED_OFFSETS_BPS]
    deal += [{"round1": eq, "round2": dict(eq)} for eq in CROWDED_EQUILIBRIA]
    rng.shuffle(deal)
    strategies = {ids[0]: {"round1": {"kind": "offset", "offset_bps": 1},
                           "round2": {"kind": "offset", "offset_bps": 3}}}
    strategies.update(zip(ids[1:], deal))
    brokers = [{"id": bid, "role": "local", "package_index": j // CROWDED_LOCALS_PER_PACKAGE}
               for j, bid in enumerate(ids)]
    offsets = list(CROWDED_GLOBAL_OFFSETS_BPS)
    rng.shuffle(offsets)
    for k, offset in enumerate(offsets):
        brokers.append({"id": f"G{k}", "role": "global"})
        strategies[f"G{k}"] = {"round1": {"kind": "offset", "offset_bps": offset},
                               "round2": {"kind": "capped-value"}}
    return {
        "schema_version": 1,
        "name": f"crowded-market-{seed}",
        "portfolio": {
            "securities": [f"S{j}" for j in range(q)],
            "quantities": [10] * q,
            "agreed_prices": [1] * q,
            "anticipated_prices": [1] * q,
            "packages": [[10 if i == j else 0 for i in range(q)] for j in range(q)],
        },
        "brokers": brokers,
        "distributions": {
            "local": {"kind": "empirical", "sample_bps": list(CROWDED_SAMPLE_BPS)},
            "global": {"kind": "power-law", "upper_bps": 40, "shape": 2.0},
        },
        "rule": "nvcg",
        "strategies": strategies,
        "seed": seed,
        "replications": 10000,
        "correlated_locals": False,
    }


EXACT_KINDS = ("plain", "tie", "fallback")


def exact_scenarios(seed: int) -> list:
    """Exact files for q = 2..8 under each rule, with fixed valuations.

    Prices are integers summing to 100, so every weight and every weighted
    total is a short decimal and a file can set the global's value to the
    coalition total exactly. Kind "tie" does that (an exact allocation tie);
    kind "fallback" makes every local overbid its VCG fee in round 1 (the
    D-NVCG fallback); "plain" leaves a strict coalition win with some
    prudent locals. Locals of a package share one strategy, so equal values
    tie in round 1 and the tie coin picks between identical bids.
    """
    out = []
    for q in range(2, 9):
        for r, rule in enumerate(RULES):
            kind = EXACT_KINDS[(q + r) % len(EXACT_KINDS)]
            rng = random.Random(f"cli-exact/{seed}/{q}/{rule}")
            cuts = sorted(rng.sample(range(1, 20), q - 1))
            prices = [5 * (b - a) for a, b in zip([0] + cuts, cuts + [20])]
            brokers, strategies, total = [], {}, Fraction(0)
            for j in range(q):
                offset = 40 if kind == "fallback" else rng.choice([0, 0, 1, 6])
                values = [rng.randrange(10, 30, 2) for _ in range(1 + j % 3)]
                for k, v in enumerate(values):
                    bid = f"P{j}L{k}"
                    brokers.append({"id": bid, "role": "local", "package_index": j,
                                    "valuation_bps": v})
                    strategies[bid] = {
                        "round1": {"kind": "offset", "offset_bps": offset},
                        "round2": {"kind": "truthful"},
                    }
                total += Fraction(prices[j], 100) * min(values)
            margin = {"plain": rng.choice([5, 8, 12]), "tie": 0, "fallback": 1}[kind]
            g_value = total + margin
            for k in range(2):
                bid = f"G{k}"
                value = g_value + 3 * k
                brokers.append({"id": bid, "role": "global", "valuation_bps": _decimal(value)})
                strategies[bid] = {
                    "round1": {"kind": "constant", "value_bps": _decimal(value + 10)},
                    "round2": {"kind": "capped-value"},
                }
            doc = {
                "schema_version": 1,
                "name": f"exact-q{q}-{rule}-{kind}",
                "portfolio": {
                    "securities": [f"S{j}" for j in range(q)],
                    "quantities": [1] * q,
                    "agreed_prices": prices,
                    "anticipated_prices": prices,
                    "packages": [[1 if i == j else 0 for i in range(q)] for j in range(q)],
                },
                "brokers": brokers,
                "rule": rule,
                "strategies": strategies,
                "seed": seed,
                "replications": 1000,
            }
            out.append((f"exact-q{q}-{rule}.json", doc))
    return out


def _decimal(x: Fraction):
    """An exact Fraction with a finite decimal expansion, as a JSON number."""
    if x.denominator == 1:
        return int(x)
    text = f"{float(x):.12f}".rstrip("0")
    if Fraction(text) != x:
        raise ValueError(f"{x} has no short decimal form")
    return float(text)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs written under `workdir`; ops issued by the runner."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.digests = {}
        # keyed by (path, seed, format)
        self._run_cache = {}      # verdict
        self._run_bytes = {}      # output bytes
        self._winners = {}        # "coalition" or "global"
        self._configs = {}
        self.outcomes = {"coalition": 0, "global": 0, "tie": 0, "fallback": 0}

    # -- inputs ------------------------------------------------------------

    def write(self, filename: str, doc: dict) -> Path:
        data = canonical_bytes(doc)
        path = self.workdir / filename
        path.write_bytes(data)
        self.digests[filename] = sha256(data)
        return path

    def _config(self, path):
        if path not in self._configs:
            self._configs[path] = scenario.load_scenario(path)
        return self._configs[path]

    # -- operations shared by all workloads ---------------------------------

    def run_op(self, path: Path, k: int, fmt: str = "records") -> Op:
        out = self.workdir / "run-out.txt"
        argv = ["run", str(path), "--seed", str(k), "--format", fmt, "--out", str(out)]
        key = (str(path), k, fmt)
        return Op("run", path.name, 1, lambda: cli.main(argv),
                  lambda code: self._check_run(key, code, out),
                  lambda code: int(self._winners.get(key) == "coalition"))

    def _check_run(self, key, code, out) -> Optional[str]:
        path, k, fmt = key
        if code != 0:
            return f"run {Path(path).name} --seed {k} exited {code}"
        data = out.read_bytes()
        if key in self._run_bytes:
            if data != self._run_bytes[key]:
                return f"run {Path(path).name} --seed {k}: output differs between calls"
            return self._run_cache[key]
        self._run_bytes[key] = data
        self._run_cache[key] = verdict = self._verify_run(key, data)
        return verdict

    def _verify_run(self, key, data) -> Optional[str]:
        """Replay the call through run_auction: the output must show its
        transcript, and a strict coalition win under nvcg or dnvcg must put
        the weighted fee total on the global bid, exactly when the inputs
        are exact."""
        path, k, fmt = key
        name = Path(path).name
        config = self._config(path)
        t = mechanism.run_auction(config, seed=k)
        o = t.outcome
        self._winners[key] = o.winner
        if fmt == "records":
            expected = json.loads(json.dumps(transcript_dict(t), sort_keys=True))
            if json.loads(data)["result"] != expected:
                return f"run {name} --seed {k}: records differ from the transcript"
        elif f"winner: {o.winner}\n" not in data.decode():
            return f"run {name} --seed {k}: table does not report winner {o.winner}"
        self.outcomes[o.winner] += 1
        self.outcomes["tie"] += bool(o.diagnostics["tie"])
        self.outcomes["fallback"] += bool(o.diagnostics["dnvcg_fallback_empty_qdown"])
        if o.winner == "coalition" and not o.diagnostics["tie"] and t.rule in ("nvcg", "dnvcg"):
            g = t.ledger.round2[t.qualification.qualified_global]
            paid = sum(w * f for w, f in zip(config.weights.weights, o.fees))
            # Exact inputs must hit the frontier exactly; drawn (float)
            # values within FRONTIER_TOL.
            exact = all(isinstance(x, (int, Fraction)) for x in (g, *o.fees))
            if (paid != g) if exact else abs(paid - g) > pricing.FRONTIER_TOL:
                return f"run {name} --seed {k}: weighted fees {paid} != global bid {g}"
        return None

    def sweep_op(self, ref: str, grid: str) -> Op:
        out = self.workdir / "sweep-out.csv"
        argv = ["equilibrium", ref, "--sweep", grid, "--out", str(out)]

        return Op("sweep", f"{Path(ref).name}:{grid}", 1, lambda: cli.main(argv),
                  lambda code: self._check_sweep(grid, code, out))

    @staticmethod
    def _check_sweep(grid, code, out) -> Optional[str]:
        if code != 0:
            return f"equilibrium --sweep exited {code}"
        text = out.read_text()
        size = math.prod(len(term.split("=")[1].split(",")) for term in grid.split(";"))
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != size:
            return f"sweep gave {len(rows)} rows for a {size}-point grid"
        for row in rows:
            # Under a power-law global value the symmetric equilibrium is truthful.
            if row["converged"] != "True" or abs(float(row["bid_bps"]) - float(row["alpha_bps"])) > 1e-6:
                return f"sweep row {row} is not the truthful fixed point"
        return None

    def sim_op(self, config, rule, n, seed, check) -> Op:
        cfg = replace(config, rule=rule)

        def call():
            return sim.simulate(cfg, n=n, seed=seed)

        return Op("sim", f"{config.name}:{rule}", n, call,
                  lambda m: _sim_invariants(m, rule) or check(m), _sim_wins)

    def paired_op(self, config, label, deviation, n, seed, check) -> Op:
        def call():
            return sim.compare_strategies(config, config.strategies, deviation, n, seed)

        return Op("paired", f"{config.name}:{label}", n, call, check)

    # -- hooks -------------------------------------------------------------

    def warmup(self):
        raise NotImplementedError

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def references(self) -> list:
        """Fixed-input operations whose summaries were recorded on the
        seed commit (reference.json); run once per benchmark run."""
        return []


def _recorded(key):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[key]


def _interleave(big_ops, small_ops_per_slot):
    """big op, its share of small ops, next big op, ..."""
    out = []
    for op, smalls in zip(big_ops, small_ops_per_slot):
        out.append(op)
        out.extend(smalls)
    return out


class PowerlawRules(Workload):
    """Bundled powerlaw scenario under each rule on one seed, then the two
    unilateral deviations of the dominance acceptance test."""

    name = "powerlaw-rules"
    # Replications and pairs per call, about 40 ms each. A shared machine's
    # speed drifts; a call this short often runs in a quiet moment, so the
    # best of a run's many calls holds steady. On a shared 2-vCPU virtual
    # machine, calls of 0.2 s or more did not: over ten runs their best
    # spread by 0.12-0.29 of the median.
    N = 2_000
    PAIRS = 1_000
    RUNS_PER_SLOT = 12
    WIN_RATE = 1 - (20 / 40) ** 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        raw = resources.files("portauction").joinpath("scenarios/powerlaw.json").read_bytes()
        self.scenario_path = self.workdir / "powerlaw.json"
        self.scenario_path.write_bytes(raw)
        self.digests["powerlaw.json"] = sha256(raw)
        self.config = scenario.load_scenario(self.scenario_path)
        self.dominance = scenario.scenario_from_dict(json.loads(
            json.dumps(DOMINANCE_SCENARIO), parse_float=Fraction))
        self.deviations = dominance_deviations(self.dominance.strategies)

    def _win_rate_check(self, m) -> Optional[str]:
        se = math.sqrt(self.WIN_RATE * (1 - self.WIN_RATE) / m.replications)
        if abs(m.coalition_win_rate - self.WIN_RATE) > 4 * se:
            return f"win rate {m.coalition_win_rate} is more than 4 SE from {self.WIN_RATE}"
        return None

    @staticmethod
    def _dominance_check(r) -> Optional[str]:
        if not r.mean_difference <= 3 * r.paired_se or r.improves_significantly:
            return f"deviation helps: {r.mean_difference} > 3 x {r.paired_se}"
        return None

    def warmup(self):
        self.sim_op(self.config, "dnvcg", 1000, 0, lambda m: None).call()

    def cycle(self, c):
        s = self.seed * 1000 + c
        big = [self.sim_op(self.config, rule, self.N, s, self._win_rate_check) for rule in RULES]
        big += [self.paired_op(self.dominance, label, dev, self.PAIRS, 2 * s + i,
                               self._dominance_check)
                for i, (label, dev) in enumerate(self.deviations.items())]
        slots = [[self.run_op(self.scenario_path, self.seed * 1000 + slot * self.RUNS_PER_SLOT + i)
                  for i in range(self.RUNS_PER_SLOT)] for slot in range(len(big))]
        slots[0].append(self.sweep_op("powerlaw", SWEEP_GRID))
        return _interleave(big, slots)

    def references(self):
        ops = []
        for rule in RULES:
            want = _recorded(f"powerlaw:{rule}")
            ops.append(self.sim_op(self.config, rule, want["replications"], want["seed"],
                                   lambda m, w=want: compare_summary(sim_summary(m), w["summary"])))
        for label, dev in self.deviations.items():
            want = _recorded(f"dominance:{label}")
            ops.append(self.paired_op(
                self.dominance, label, dev, want["replications"], want["seed"],
                lambda r, w=want: compare_summary(paired_summary(r), w["summary"])))
        return ops


class CrowdedMarket(Workload):
    """A generated 18-broker market, simulated over successive seeds,
    alternating nvcg and dnvcg."""

    name = "crowded-market"
    # Replications and pairs per call, about 50 ms each (see PowerlawRules).
    N = 500
    PAIRS = 250
    PAIRED_PER_CYCLE = 4
    RUNS_PER_SLOT = 10
    CLAMPED_BROKER = "P0L0"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.scenario_path = self.write("crowded.json", crowded_scenario(seed))
        self.config = self._config(self.scenario_path)
        self.deviation = self.config.strategies.with_strategy(
            self.CLAMPED_BROKER, round2=sim.Strategy(kind="truthful"))

    def warmup(self):
        self.sim_op(self.config, "dnvcg", 1000, 0, lambda m: None).call()

    def cycle(self, c):
        s = self.seed * 1000 + 4 * c
        big = [self.sim_op(self.config, ("nvcg", "dnvcg")[i % 2], self.N, s + i, lambda m: None)
               for i in range(4)]
        big += [self.paired_op(self.config, "truthful-round2", self.deviation, self.PAIRS, s,
                               lambda r: None if math.isfinite(r.paired_se) else "bad SE")
                for _ in range(self.PAIRED_PER_CYCLE)]
        # Table format: `run --format records` exits 5 on this scenario
        # (a numpy bool in the outcome diagnostics is not JSON-serialisable).
        slots = [[self.run_op(self.scenario_path, self.seed * 1000 + slot * self.RUNS_PER_SLOT + i,
                              fmt="table")
                  for i in range(self.RUNS_PER_SLOT)] for slot in range(len(big))]
        slots[0].append(self.sweep_op(str(self.scenario_path), SWEEP_GRID))
        return _interleave(big, slots)

    def references(self):
        ops = []
        for key in ("crowded:0:nvcg", "crowded:0:dnvcg", "crowded:1:nvcg", "crowded:1:dnvcg"):
            want = _recorded(key)
            doc = crowded_scenario(want["workload_seed"])
            if sha256(canonical_bytes(doc)) != want["digest"]:
                ops.append(Op("sim", key, 0, lambda: None,
                              lambda _: "generated crowded scenario differs from the recorded one"))
                continue
            config = scenario.scenario_from_dict(
                json.loads(canonical_bytes(doc), parse_float=Fraction))
            ops.append(self.sim_op(config, want["rule"], want["replications"], want["seed"],
                                   lambda m, w=want: compare_summary(sim_summary(m), w["summary"])))
        return ops


class CliExact(Workload):
    """In-process CLI calls on exact files: run (q = 2..8, all rules, with
    forced allocation ties and D-NVCG fallbacks), every reproduce target
    and an equilibrium sweep. Small simulate and compare_strategies calls
    on the same files give the simulation metrics of this workload."""

    name = "cli-exact"
    RUN_SEEDS_PER_CYCLE = 16
    SIM_N = 200
    PAIRED_N = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = [self.write(filename, doc) for filename, doc in exact_scenarios(seed)]
        self._golden = {t: (GOLDEN / f"{t}.txt").read_bytes() for t in reproduce.TARGETS}

    def reproduce_op(self, target) -> Op:
        out = self.workdir / "reproduce-out.txt"

        argv = ["reproduce", target, "--out", str(out)]

        def check(code):
            if code != 0:
                return f"reproduce {target} exited {code}"
            if out.read_bytes() != self._golden[target]:
                return f"reproduce {target} differs from tests/golden/{target}.txt"
            return None

        return Op("reproduce", target, 1, lambda: cli.main(argv), check)

    def warmup(self):
        self.run_op(self.files[0], 0).call()

    def cycle(self, c):
        runs = [self.run_op(path, self.seed * 1000 + i)
                for i in range(self.RUN_SEEDS_PER_CYCLE) for path in self.files]
        others = [self.reproduce_op(t) for t in reproduce.TARGETS]
        others += [self.sim_op(config, config.rule, self.SIM_N, self.seed + c, lambda m: None)
                   for config in map(self._config, self.files)]
        config = self._config(self.files[len(self.files) // 2])
        first_local = next(b.id for b in config.brokers if b.role == "local")
        dev = config.strategies.with_strategy(
            first_local, round1=sim.Strategy(kind="constant", value=Fraction(45, 10_000)))
        others.append(self.paired_op(config, "round1-overbid", dev, self.PAIRED_N, self.seed + c,
                                     lambda r: None if r.paired_se >= 0 else "bad SE"))
        # Spread the run calls over the cycle in blocks, with a sweep per block.
        blocks = 4
        ops = []
        for b in range(blocks):
            ops += runs[b::blocks]
            ops += others[b::blocks]
            ops.append(self.sweep_op("powerlaw", SWEEP_GRID))
        return ops


WORKLOADS = {w.name: w for w in (PowerlawRules, CrowdedMarket, CliExact)}
