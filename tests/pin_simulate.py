"""Pinned outputs of `simulate` and `compare_strategies`.

Every field of every result on a fixed matrix of cases, floats written
with float.hex so a comparison is exact to the bit. The matrix covers the
bundled scenarios under each rule, drawn local values (uniform, empirical
and power-law, correlated and independent), a market with several locals
per package and several globals (round-1 ties), equilibrium strategies
(prudent and not), a clamped round-2 bid, an exact allocation tie and the
D-NVCG fallback.

    PYTHONPATH=src python tests/pin_simulate.py      # rewrite the pins

tests/test_sim.py::test_outputs_match_pins recomputes every case and
requires tests/golden/simulate_pins.json to be, byte for byte, the render()
that main writes.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from portauction.batch import CHUNK, Kernel, rows
from portauction.model import ModelWarning
from portauction.scenario import builtin_scenario, scenario_from_dict
from portauction.sim import Strategy, compare_strategies, simulate

PINS = Path(__file__).parent / "golden" / "simulate_pins.json"
RULES = ("vcg", "nvcg", "dnvcg")


def _doc(**overrides):
    """Two locals on weights (0.6, 0.4) against one power-law global."""
    doc = {
        "schema_version": 1,
        "name": "pins",
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
        "replications": 1,
    }
    doc.update(overrides)
    return doc


LOCAL_DISTRIBUTIONS = {
    "uniform": {"kind": "uniform", "lower_bps": 5, "upper_bps": 30},
    "empirical": {"kind": "empirical", "sample_bps": [8, 12, 12, 18, 20, 24, 30]},
    "power-law": {"kind": "power-law", "upper_bps": 30, "shape": 1.5},
}


def _local_values(kind, correlated):
    dist = LOCAL_DISTRIBUTIONS[kind]
    return _doc(
        distributions={"local": dist,
                       "global": {"kind": "power-law", "upper_bps": 40, "shape": 3.0}},
        strategies={
            "L1": {"round1": {"kind": "offset", "offset_bps": 4},
                   "round2": {"kind": "truthful"}},
            "L2": {"round1": {"kind": "truthful"},
                   "round2": {"kind": "offset", "offset_bps": -1}},
            "G": {"round1": {"kind": "constant", "value_bps": 40},
                  "round2": {"kind": "capped-value"}},
        },
        correlated_locals=correlated,
    )


def _equilibrium():
    eq = {"kind": "equilibrium", "sigma": 0.0004, "ell": 1, "sum_w_qdown": 0.6}
    return _doc(
        distributions={"local": {"kind": "uniform", "lower_bps": 0, "upper_bps": 30},
                       "global": {"kind": "power-law", "upper_bps": 40, "shape": 2.0}},
        strategies={
            "L1": {"round1": {"kind": "constant", "value_bps": 25},
                   "round2": {**eq, "in_qdown": True}},
            "L2": {"round1": {**eq, "in_qdown": False},
                   "round2": {**eq, "in_qdown": False}},
            "G": {"round1": {"kind": "constant", "value_bps": 40},
                  "round2": {"kind": "capped-value"}},
        },
    )


def _market():
    """Three packages with three locals each and three globals. Local
    values come from a coarse empirical sample, so round-1 ties are
    common; two globals bid the same constant, so they always tie."""
    brokers, strategies = [], {}
    local_kinds = (
        {"round1": {"kind": "offset", "offset_bps": 1}, "round2": {"kind": "truthful"}},
        {"round1": {"kind": "truthful"}, "round2": {"kind": "truthful"}},
        {"round1": {"kind": "equilibrium", "sigma": 0.0002, "in_qdown": True, "ell": 1,
                    "sum_w_qdown": 0.5},
         "round2": {"kind": "equilibrium", "sigma": 0.0001, "in_qdown": False}},
    )
    for j in range(3):
        for k in range(3):
            bid = f"P{j}L{k}"
            brokers.append({"id": bid, "role": "local", "package_index": j})
            strategies[bid] = local_kinds[(j + k) % 3]
    for k, r1 in enumerate(({"kind": "constant", "value_bps": 36},
                            {"kind": "constant", "value_bps": 36},
                            {"kind": "offset", "offset_bps": 8})):
        brokers.append({"id": f"G{k}", "role": "global"})
        strategies[f"G{k}"] = {"round1": r1, "round2": {"kind": "capped-value"}}
    return _doc(
        portfolio={
            "securities": ["S0", "S1", "S2"],
            "quantities": [5, 3, 2],
            "agreed_prices": [1, 1, 1],
            "anticipated_prices": [1, 1, 1],
            "packages": [[5, 0, 0], [0, 3, 0], [0, 0, 2]],
        },
        brokers=brokers,
        distributions={"local": {"kind": "empirical", "sample_bps": [10, 14, 14, 18, 22, 26]},
                       "global": {"kind": "power-law", "upper_bps": 40, "shape": 2.0}},
        strategies=strategies,
        correlated_locals=False,
    )


def _tie():
    """Equal weights and fixed values: every replication is an exact
    allocation tie, settled by the row's coin."""
    doc = _doc(
        portfolio={
            "securities": ["A", "B", "C"],
            "quantities": [1, 1, 2],
            "agreed_prices": [1, 1, 1],
            "anticipated_prices": [1, 1, 1],
            "packages": [[1, 1, 0], [0, 0, 2]],
        },
        distributions={},
    )
    doc["brokers"][2]["valuation_bps"] = 20
    return doc


def _fallback():
    """Both locals bid far above any VCG fee in round 1: D-NVCG falls back."""
    doc = _doc()
    for bid in ("L1", "L2"):
        doc["strategies"][bid]["round1"] = {"kind": "constant", "value_bps": 100}
    return doc


def _clamped():
    doc = _doc()
    doc["strategies"]["L1"]["round2"] = {"kind": "constant", "value_bps": 50}
    return doc


def _load(doc):
    return scenario_from_dict(json.loads(json.dumps(doc), parse_float=Fraction))


def _simulate_cases():
    cases = []
    for rule in RULES:
        for seed in (0, 1):
            cases.append((f"powerlaw/{rule}/{seed}", builtin_scenario("powerlaw"), rule, 3000, seed))
        for name in ("example1", "table1"):
            cases.append((f"{name}/{rule}", builtin_scenario(name), rule, 5, 0))
        cases.append((f"market/{rule}", _load(_market()), rule, 3000, 4))
        cases.append((f"equilibrium/{rule}", _load(_equilibrium()), rule, 2000, 5))
        cases.append((f"tie/{rule}", _load(_tie()), rule, 200, 6))
        cases.append((f"clamped/{rule}", _load(_clamped()), rule, 500, 7))
    for kind in ("uniform", "empirical"):
        for correlated in (True, False):
            for rule in ("nvcg", "dnvcg"):
                label = "correlated" if correlated else "independent"
                cases.append((f"locals-{kind}-{label}/{rule}",
                              _load(_local_values(kind, correlated)), rule, 2000, 8))
    # Power-law locals: the kernel's local value slice through its quantiles.
    for correlated, label in ((True, "correlated"), (False, "independent")):
        cases.append((f"locals-power-law-{label}/dnvcg",
                      _load(_local_values("power-law", correlated)), "dnvcg", 2000, 12))
    cases.append(("fallback/dnvcg", _load(_fallback()), "dnvcg", 1000, 9))
    # Long enough to span several of the simulation's row chunks.
    cases.append(("powerlaw/dnvcg/long", builtin_scenario("powerlaw"), "dnvcg", 20_005, 10))
    # One full chunk, then a 5-row one: sums over chunks of both widths.
    cases.append(("powerlaw/dnvcg/mixed", builtin_scenario("powerlaw"), "dnvcg", CHUNK + 5, 11))
    return cases


def _paired_cases():
    base = _load(_doc())
    market = _load(_market())
    return [
        ("dominance/round1-overbid", base, base.strategies.with_strategy(
            "L1", round1=Strategy(kind="constant", value=Fraction(38, 10_000))), 3000, 21),
        ("dominance/round2-underbid", base, base.strategies.with_strategy(
            "L1", round2=Strategy(kind="offset", offset=Fraction(-6, 10_000))), 3000, 22),
        ("dominance/round1-overbid/long", base, base.strategies.with_strategy(
            "L1", round1=Strategy(kind="constant", value=Fraction(38, 10_000))), 20_005, 25),
        ("dominance/round2-underbid/mixed", base, base.strategies.with_strategy(
            "L1", round2=Strategy(kind="offset", offset=Fraction(-6, 10_000))), CHUNK + 5, 26),
        ("market/truthful-round1", market, market.strategies.with_strategy(
            "P0L2", round1=Strategy(kind="truthful")), 2000, 23),
        ("equilibrium/identical", _load(_equilibrium()),
         _load(_equilibrium()).strategies, 500, 24),
    ]


def _hex(x):
    if isinstance(x, bool) or isinstance(x, int):
        return x
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    raise TypeError(f"unexpected {type(x).__name__} in a result")


def replications(config, n, seed) -> dict:
    """Per-replication columns of simulate(config, n=n, seed=seed), read
    from Kernel.chunks: won, seller_cost, fees (a tuple of local fees in
    package order), payoffs (broker id -> list), global_bid2 and
    local_values (the first local's valuation, from Kernel.values on the
    same rows)."""
    kernel = Kernel(config)
    cols = {"won": [], "seller_cost": [], "fees": [],
            "payoffs": {bid: [] for bid in kernel.ids}, "global_bid2": [], "local_values": []}
    for start, (b,) in zip(range(0, n, CHUNK),
                           kernel.chunks([config.strategies], n, seed, config.rule)):
        u = rows(seed, start, min(CHUNK, n - start), kernel.width)
        cols["won"] += b.won.tolist()
        cols["seller_cost"] += b.seller_cost.tolist()
        cols["fees"] += map(tuple, b.fees.T.tolist())
        cols["global_bid2"] += b.g2.tolist()
        cols["local_values"] += kernel.values(u)[0].tolist()
        for bid, p in zip(kernel.ids, b.payoffs.tolist()):
            cols["payoffs"][bid] += p
    return cols


def compute_pins() -> dict:
    pins = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelWarning)
        for name, config, rule, n, seed in _simulate_cases():
            config = replace(config, rule=rule)
            m = simulate(config, n=n, seed=seed)
            cols = json.dumps(_hex(replications(config, n, seed)), sort_keys=True)
            pins[f"simulate:{name}"] = {
                "replications": m.replications,
                "coalition_win_rate": _hex(m.coalition_win_rate),
                "mean_seller_cost": _hex(m.mean_seller_cost),
                "mean_broker_payoff": _hex(m.mean_broker_payoff),
                "core_violation_count": m.core_violation_count,
                "frontier_gap_max": _hex(m.frontier_gap_max),
                "clamped_round2_count": m.clamped_round2_count,
                "seed": m.seed,
                "details_sha256": hashlib.sha256(cols.encode()).hexdigest(),
            }
        for name, config, deviation, n, seed in _paired_cases():
            r = compare_strategies(config, config.strategies, deviation, n, seed)
            pins[f"paired:{name}"] = {
                "broker_id": r.broker_id,
                "replications": r.replications,
                "mean_baseline": _hex(r.mean_baseline),
                "mean_deviation": _hex(r.mean_deviation),
                "mean_difference": _hex(r.mean_difference),
                "paired_se": _hex(r.paired_se),
            }
    return pins


def render() -> str:
    """The golden file's text: the pins as sorted, indented JSON."""
    return json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n"


def main():
    PINS.write_text(render())
    print(f"wrote {PINS}")


if __name__ == "__main__":
    main()
