"""Record the reference summaries that the benchmark's correctness gates
compare against (reference.json).

    python3 bench/record_reference.py

Recorded once, on the commit the benchmark was introduced on. Re-record
only in a change whose purpose is to change these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import portauction  # noqa: E402
from portauction import scenario, sim  # noqa: E402

import workloads as w  # noqa: E402

N = 20_000
CROWDED = [(0, "nvcg", 11), (0, "dnvcg", 12), (1, "nvcg", 13), (1, "dnvcg", 14)]


def main():
    warnings.simplefilter("ignore", portauction.ModelWarning)
    out = {}
    powerlaw = scenario.builtin_scenario("powerlaw")
    for rule in w.RULES:
        m = sim.simulate(replace(powerlaw, rule=rule), n=N, seed=2026)
        out[f"powerlaw:{rule}"] = {"replications": N, "seed": 2026, "summary": w.sim_summary(m)}
    dominance = scenario.scenario_from_dict(
        json.loads(json.dumps(w.DOMINANCE_SCENARIO), parse_float=Fraction))
    for seed, (label, dev) in enumerate(
            w.dominance_deviations(dominance.strategies).items(), start=2021):
        r = sim.compare_strategies(dominance, dominance.strategies, dev, N, seed)
        out[f"dominance:{label}"] = {"replications": N, "seed": seed,
                                     "summary": w.paired_summary(r)}
    for ws, rule, seed in CROWDED:
        data = w.canonical_bytes(w.crowded_scenario(ws))
        config = scenario.scenario_from_dict(json.loads(data, parse_float=Fraction))
        m = sim.simulate(replace(config, rule=rule), n=10_000, seed=seed)
        out[f"crowded:{ws}:{rule}"] = {
            "workload_seed": ws, "digest": w.sha256(data), "rule": rule,
            "replications": 10_000, "seed": seed, "summary": w.sim_summary(m)}
    w.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE}")


if __name__ == "__main__":
    main()
