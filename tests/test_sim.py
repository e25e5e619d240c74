import decimal
import json
import math
from dataclasses import fields, replace
from fractions import Fraction as F
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portauction import batch
from portauction.batch import (
    CHUNK,
    EXTRACT_MIN,
    KERNELS,
    ExactSum,
    Kernel,
    kernel,
    row_width,
    rows,
)
from portauction.equilibrium import ValueDistribution
from portauction.mechanism import run_auction, settle_row, transcript_dict
from portauction.model import ConfigurationError
from portauction.pricing import RULES, vcg_fees
from portauction.scenario import (
    ScenarioValidationError,
    builtin_scenario,
    loads_scenario,
    scenario_from_dict,
)
from portauction.sim import (
    ROUND2_KINDS,
    BrokerStrategy,
    Strategy,
    StrategyProfile,
    compare_strategies,
    simulate,
    strategy_bid,
)

import pin_simulate


def _scenario(rule="dnvcg", alpha_bps=20, upper_bps=40, shape=2.0, l1_r1=32, l2_r1=32,
              correlated=True, local_dist=None):
    data = {
        "schema_version": 1,
        "name": "sim-test",
        "portfolio": {
            "securities": ["A", "B", "C"],
            "quantities": [6, 3, 1],
            "agreed_prices": [1, 1, 1],
            "anticipated_prices": [1, 1, 1],
            "packages": [[6, 0, 0], [0, 3, 1]],
        },
        "brokers": [
            {"id": "L1", "role": "local", "package_index": 0, "valuation_bps": alpha_bps},
            {"id": "L2", "role": "local", "package_index": 1, "valuation_bps": alpha_bps},
            {"id": "G", "role": "global", "valuation_bps": 0},
        ],
        "distributions": {
            "global": {"kind": "power-law", "upper_bps": upper_bps, "shape": shape},
            "local": local_dist,
        },
        "rule": rule,
        "strategies": {
            "L1": {"round1": {"kind": "constant", "value_bps": l1_r1},
                   "round2": {"kind": "truthful"}},
            "L2": {"round1": {"kind": "constant", "value_bps": l2_r1},
                   "round2": {"kind": "truthful"}},
            "G": {"round1": {"kind": "constant", "value_bps": upper_bps},
                  "round2": {"kind": "capped-value"}},
        },
        "seed": 100,
        "replications": 50,
        "correlated_locals": correlated,
    }
    return scenario_from_dict(data)


def test_strategy_validation():
    with pytest.raises(ConfigurationError):
        Strategy(kind="martingale")
    with pytest.raises(ConfigurationError):
        Strategy(kind="constant")  # needs a value
    with pytest.raises(ConfigurationError, match="a constant bid is a fee"):
        Strategy(kind="constant", value=F(-5, 10_000))
    with pytest.raises(ConfigurationError):
        BrokerStrategy(round1=Strategy(kind="capped-value"),
                       round2=Strategy(kind="truthful"))
    data = json.loads(resources.files("portauction").joinpath("scenarios/example1.json")
                      .read_text())
    data["strategies"]["L1"]["round1"] = {"kind": "constant", "value_bps": 10}
    assert loads_scenario(json.dumps(data)).strategies["L1"].round1.value == F(10, 10_000)
    data["strategies"]["L1"]["round1"] = {"kind": "constant", "bid": 3}
    with pytest.raises(ScenarioValidationError):
        loads_scenario(json.dumps(data))


def test_simulate_single_replication_matches_transcript():
    sc = builtin_scenario("example1")
    metrics = simulate(sc, n=1, seed=0)
    t = run_auction(sc, seed=0)
    assert metrics.replications == 1
    assert metrics.coalition_win_rate == 1.0
    # seller cost equals the weighted fee total of the single transcript (22 bps)
    want = float(sum(w * f for w, f in zip(sc.weights, t.outcome.fees)))
    assert metrics.mean_seller_cost == pytest.approx(want, abs=1e-15)
    assert metrics.mean_seller_cost == pytest.approx(22e-4, abs=1e-12)
    # the seller pays the same 22 bps under the dynamic rule too
    m2 = simulate(replace(sc, rule="dnvcg"), n=1, seed=0)
    assert m2.mean_seller_cost == pytest.approx(22e-4, abs=1e-12)
    # and the broker payoffs match the payoff identity value * (fee - alpha)
    for j, bid in enumerate(("L1", "L2")):
        v = float(sc.portfolio.package_values[j])
        assert metrics.mean_broker_payoff[bid] == pytest.approx(
            v * float(t.outcome.fees[j]), abs=1e-15
        )


def test_simulate_rejects_bad_replications():
    """Both callers of Kernel.chunks reject n < 1 there, before any row."""
    sc = builtin_scenario("example1")
    dev = sc.strategies.with_strategy("L1", round2=Strategy(kind="truthful"))
    for n in (0, -2):
        with pytest.raises(ConfigurationError, match="at least 1"):
            simulate(sc, n=n, seed=0)
        with pytest.raises(ConfigurationError, match="at least 1"):
            compare_strategies(sc, sc.strategies, dev, n=n, seed=0)


def test_kernel_rejects_an_unknown_rule():
    """Both engines name a rule outside RULES in bid_rule, before any bid,
    instead of settling it as NVCG or failing inside an equilibrium bid's
    shading."""
    powerlaw = replace(builtin_scenario("powerlaw"), rule="second-price")
    shaded = powerlaw.strategies.with_strategy(
        "L1", round2=Strategy(kind="equilibrium", sigma=1e-4))
    for sc in (powerlaw, replace(powerlaw, strategies=shaded)):
        dev = sc.strategies.with_strategy("L1", round2=Strategy(kind="truthful"))
        for call in (lambda: simulate(sc, n=2000, seed=1),
                     lambda: compare_strategies(sc, sc.strategies, dev, n=2000, seed=1),
                     lambda: run_auction(sc),
                     lambda: settle_row(sc, rows(1, 0, 1, row_width(sc))[0])):
            with pytest.raises(ConfigurationError, match="unknown pricing rule 'second-price'"):
                call()


def test_simulate_deterministic():
    sc = _scenario()
    a = simulate(sc, n=400, seed=9)
    b = simulate(sc, n=400, seed=9)
    assert a == b
    c = simulate(sc, n=400, seed=10)
    assert c != a


def test_replication_prefix_stability():
    # replication k's draws do not depend on n: a longer run starts with
    # exactly the shorter run's replications
    sc = _scenario()
    short = pin_simulate.replications(sc, 50, 3)
    long = pin_simulate.replications(sc, 120, 3)
    assert long["seller_cost"][:50] == short["seller_cost"]
    assert long["won"][:50] == short["won"]


def test_win_rate_matches_closed_form():
    # truthful correlated locals at fixed alpha against a power-law global:
    # the coalition wins when the global's value exceeds alpha
    sc = _scenario(alpha_bps=20, upper_bps=40, shape=2.0)
    n = 100_000
    metrics = simulate(sc, n=n, seed=42)
    p = 1.0 - (20.0 / 40.0) ** 2.0
    se = math.sqrt(p * (1 - p) / n)
    assert abs(metrics.coalition_win_rate - p) <= 3 * se


def test_zero_sum_on_frontier():
    sc = _scenario(rule="nvcg")
    metrics = simulate(sc, n=2000, seed=8)
    cols = pin_simulate.replications(sc, 2000, 8)
    assert metrics.frontier_gap_max < 1e-9
    # conditional on a coalition win the seller pays the global's bid
    for won, cost, g2 in zip(cols["won"], cols["seller_cost"], cols["global_bid2"]):
        if won:
            assert cost == pytest.approx(g2, abs=1e-9)


def test_rule_equivalence_for_seller():
    """The three rules on the same rows, with fixed and with uniform
    correlated locals, and on the contested market with its equilibrium
    bids (which differ by rule) made truthful: the same winners, the same
    seller cost under NVCG and D-NVCG, and at least that under VCG on a
    coalition win."""
    market = pin_simulate._market()
    market["strategies"] = {
        broker: {r: {"kind": "truthful"} if s["kind"] == "equilibrium" else s
                 for r, s in rounds.items()}
        for broker, rounds in market["strategies"].items()}
    cases = [(_scenario(rule="nvcg", local_dist=local_dist), 1500)
             for local_dist in (None, {"kind": "uniform", "lower_bps": 5, "upper_bps": 30})]
    cases.append((pin_simulate._load(market), 20_000))
    for sc_n, n in cases:
        dn, dd, dv = (pin_simulate.replications(replace(sc_n, rule=rule), n, 77)
                      for rule in ("nvcg", "dnvcg", "vcg"))
        assert dn["won"] == dd["won"] == dv["won"]
        for cn, cd in zip(dn["seller_cost"], dd["seller_cost"]):
            assert cn == pytest.approx(cd, abs=1e-12)
        # VCG fees sit on or above the frontier that the NVCG fees sit on;
        # on a loss every rule pays the global the coalition's total
        for won, cv, cn in zip(dv["won"], dv["seller_cost"], dn["seller_cost"]):
            assert cv >= cn if won else cv == cn
        # the rules differ only in the split: per-replication weighted fee
        # adjustments cancel, and prudent brokers all move by the same bonus
        w = [float(x) for x in sc_n.weights]
        for won, fn, fd in zip(dn["won"], dn["fees"], dd["fees"]):
            if not won:
                continue
            shift = sum(wi * (a - b) for wi, a, b in zip(w, fd, fn))
            assert abs(shift) < 1e-12
            diffs = [a - b for a, b in zip(fd, fn)]
            bonuses = {round(x, 15) for x in diffs if x > 0}
            assert len(bonuses) <= 1


def _doubled(doc):
    """The scenario document with every bps amount doubled."""
    if isinstance(doc, list):
        return [_doubled(x) for x in doc]
    if not isinstance(doc, dict):
        return doc
    return {k: ([2 * x for x in v] if isinstance(v, list) else 2 * v) if k.endswith("_bps")
            else _doubled(v) for k, v in doc.items()}


@pytest.mark.parametrize("rule", RULES)
def test_doubling_every_amount_doubles_every_price(rule):
    """Power-of-two scaling commutes with float rounding. Doubling every bps
    amount of powerlaw (valuations, the global's upper_bps, constant and
    offset bids) keeps every verdict and doubles every price to the bit,
    in simulate and in run. In the offset variant L1 shades its round-2
    bid and G overbids, clamped at its round-1 bid on some rows."""
    doc = json.loads(resources.files("portauction").joinpath(
        "scenarios/powerlaw.json").read_text())
    offsets = json.loads(json.dumps(doc))
    offsets["strategies"]["L1"]["round2"] = {"kind": "offset", "offset_bps": -1}
    offsets["strategies"]["G"]["round2"] = {"kind": "offset", "offset_bps": 8}
    for base in (doc, offsets):
        a, b = (replace(scenario_from_dict(d), rule=rule) for d in (base, _doubled(base)))
        ma, mb = simulate(a, n=5000, seed=5), simulate(b, n=5000, seed=5)
        counts = (ma.coalition_win_rate, ma.core_violation_count, ma.clamped_round2_count)
        assert (mb.coalition_win_rate, mb.core_violation_count, mb.clamped_round2_count) == counts
        assert (ma.clamped_round2_count > 0) is (base is offsets)
        assert mb.mean_seller_cost == 2 * ma.mean_seller_cost
        assert mb.mean_broker_payoff == {i: 2 * p for i, p in ma.mean_broker_payoff.items()}
        assert mb.frontier_gap_max == 2 * ma.frontier_gap_max
        for k in range(100):
            ta, tb = (run_auction(sc, seed=5, replication=k) for sc in (a, b))
            assert tb.outcome.fees == tuple(2 * f for f in ta.outcome.fees), k
            assert tb.outcome.global_payment == 2 * ta.outcome.global_payment, k
            assert tb.payoffs == {i: 2 * p for i, p in ta.payoffs.items()}, k


def _renamed(value, names):
    """A JSON value with every broker id in it, as a key or a string,
    renamed by names."""
    if isinstance(value, dict):
        return {names.get(k, k): _renamed(v, names) for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, names) for v in value]
    return names.get(value, value) if isinstance(value, str) else value


@pytest.mark.parametrize("rule", RULES)
def test_renaming_brokers_in_id_order_renames_every_record(rule):
    """Round-1 ties go to the tied brokers in id order, so names that keep
    that order ("z" before each id) change nothing but the names: simulate's
    metrics and run's transcripts agree up to the rename. On the contested
    market, whose round-1 ties are common, names that reverse the order
    change the mean seller cost, so the relation is not vacuous."""
    powerlaw = json.loads(resources.files("portauction").joinpath(
        "scenarios/powerlaw.json").read_text())
    market = pin_simulate._market()
    for doc in (powerlaw, market):
        names = {b["id"]: "z" + b["id"] for b in doc["brokers"]}
        a, b = (replace(pin_simulate._load(d), rule=rule) for d in (doc, _renamed(doc, names)))
        ma, mb = simulate(a, n=3000, seed=4), simulate(b, n=3000, seed=4)
        assert mb == replace(ma, mean_broker_payoff={
            names[i]: p for i, p in ma.mean_broker_payoff.items()})
        for k in range(20):
            ta, tb = (run_auction(sc, seed=4, replication=k) for sc in (a, b))
            assert transcript_dict(tb) == _renamed(transcript_dict(ta), names), k
    order = sorted(b["id"] for b in market["brokers"])
    reverse = {i: f"B{len(order) - r:02d}" for r, i in enumerate(order)}
    reversed_market = replace(pin_simulate._load(_renamed(market, reverse)), rule=rule)
    # ma is the market's, the loop's last scenario
    assert simulate(reversed_market, n=3000, seed=4).mean_seller_cost != ma.mean_seller_cost


def _relation_scenario(name):
    if name in ("market", "equilibrium"):
        return pin_simulate._load(getattr(pin_simulate, f"_{name}")())
    return builtin_scenario(name)


@pytest.mark.parametrize("name", ["powerlaw", "market", "equilibrium", "table1"])
def test_raising_the_global_round2_bid_moves_outcomes_one_way(name):
    """Every global bids 2 bps over its value in round 2 against 0 bps over
    it, on common rows (offsets in both: a swap from capped-value or a
    constant could lower a bid). Under every rule no coalition win becomes
    a loss, and under vcg no fee falls on a row the coalition wins in both."""
    config = _relation_scenario(name)
    base, dev = config.strategies, config.strategies
    for broker in (b.id for b in config.brokers if b.role == "global"):
        base = base.with_strategy(broker, round2=Strategy(kind="offset", offset=F(0)))
        dev = dev.with_strategy(broker, round2=Strategy(kind="offset", offset=F(2, 10_000)))
    kernel = Kernel(config)
    for rule in RULES:
        gained = raised = 0
        for b, d in kernel.chunks([base, dev], 20_000, 5, rule):
            assert not (b.won & ~d.won).any(), rule
            gained += (d.won & ~b.won).sum()
            both = b.won & d.won
            if rule == "vcg":
                assert (d.fees[:, both] >= b.fees[:, both]).all()
                raised += (d.fees[:, both] > b.fees[:, both]).sum()
        if name != "table1":  # its global bids 0 or 2 bps and wins every row
            assert gained > 0, rule
            assert bool(raised) is (rule == "vcg")


@pytest.mark.parametrize("name", ["powerlaw", "table1", "example1", "equilibrium"])
def test_raising_a_local_round2_bid_never_lowers_its_own_fee(name):
    """Whether overbidding in round 2 can lower a local's own fee, asked per
    row. Each package here has one local, so its fee is the package's fee.
    A local bidding 3 bps over its value in round 2 instead of truthfully
    pays no less under nvcg or dnvcg on any row the coalition wins in both."""
    config = _relation_scenario(name)
    kernel = Kernel(config)
    for broker in (b for b in config.brokers if b.role == "local"):
        j = broker.package_index
        base = config.strategies.with_strategy(broker.id, round2=Strategy(kind="truthful"))
        dev = config.strategies.with_strategy(
            broker.id, round2=Strategy(kind="offset", offset=F(3, 10_000)))
        for rule in ("nvcg", "dnvcg"):
            compared = 0
            for b, d in kernel.chunks([base, dev], 5000, 5, rule):
                both = b.won & d.won
                assert (d.fees[j, both] >= b.fees[j, both]).all(), (broker.id, rule)
                compared += both.sum()
            assert compared > 0, (broker.id, rule)


def test_independent_locals_toggle():
    sc = _scenario(correlated=False,
                   local_dist={"kind": "uniform", "lower_bps": 5, "upper_bps": 30})
    metrics = simulate(sc, n=500, seed=1)
    assert 0.0 < metrics.coalition_win_rate < 1.0
    sc2 = _scenario(correlated=True,
                    local_dist={"kind": "uniform", "lower_bps": 5, "upper_bps": 30})
    m2 = simulate(sc2, n=500, seed=1)
    assert m2 != metrics


def test_compare_strategies_identical_is_zero():
    sc = _scenario()
    base = sc.strategies
    # deviation object equal in value but distinct in identity
    dev = base.with_strategy("L1", round2=Strategy(kind="truthful"))
    report = compare_strategies(sc, base, dev, n=300, seed=5)
    assert report.mean_difference == 0.0
    assert report.paired_se == 0.0
    assert not report.improves_significantly


def test_compare_strategies_validates_single_deviation():
    sc = _scenario()
    base = sc.strategies
    dev = base.with_strategy(
        "L1", round1=Strategy(kind="constant", value=F(38, 10_000))
    ).with_strategy("L2", round1=Strategy(kind="constant", value=F(38, 10_000)))
    with pytest.raises(ConfigurationError):
        compare_strategies(sc, base, dev, n=10, seed=0)


def test_round1_overbid_never_helps():
    # deviation: round-1 bid pushed above the expected VCG fee
    sc = _scenario(rule="dnvcg", l1_r1=31)
    base = sc.strategies
    dev = base.with_strategy("L1", round1=Strategy(kind="constant", value=F(38, 10_000)))
    report = compare_strategies(sc, base, dev, n=20_000, seed=21)
    assert report.mean_difference <= 3 * report.paired_se
    assert report.mean_difference < 0  # the deduction bites with probability > 0


def test_round2_underbid_never_helps():
    sc = _scenario(rule="dnvcg")
    base = sc.strategies
    dev = base.with_strategy("L1", round2=Strategy(kind="offset", offset=F(-6, 10_000)))
    report = compare_strategies(sc, base, dev, n=20_000, seed=22)
    assert report.mean_difference <= 3 * report.paired_se


@pytest.mark.parametrize("deviation, qualifications", [
    (BrokerStrategy(Strategy(kind="truthful"), Strategy(kind="truthful")), 4),
    (BrokerStrategy(Strategy(kind="constant", value=F(32, 10_000)),
                    Strategy(kind="offset", offset=F(-6, 10_000))), 2),
    (None, 2),
])
def test_compare_strategies_shares_round1_when_the_deviation_keeps_it(
        monkeypatch, deviation, qualifications):
    """Two chunks: a round-2 deviation and identical profiles qualify once
    per chunk, a round-1 deviation once per chunk and profile."""
    sc = _scenario()
    calls = []
    qualify = Kernel.qualify

    def counting(self, *args):
        calls.append(args)
        return qualify(self, *args)

    monkeypatch.setattr(Kernel, "qualify", counting)
    dev = (sc.strategies if deviation is None
           else sc.strategies.with_strategy("L1", deviation.round1, deviation.round2))
    report = compare_strategies(sc, sc.strategies, dev, n=CHUNK + 5, seed=3)
    assert len(calls) == qualifications
    assert (report.mean_difference == 0.0) is (deviation is None)


def test_simulate_aggregates_the_kernel_columns():
    """simulate is the K = 1 case of Kernel.chunks: its means and counts
    are the per-replication columns aggregated, to the bit."""
    config = pin_simulate._load(pin_simulate._market())
    n, seed = CHUNK + 5, 13
    m = simulate(config, n=n, seed=seed)
    cols = pin_simulate.replications(config, n, seed)
    assert m.coalition_win_rate.hex() == (sum(cols["won"]) / n).hex()
    assert m.mean_seller_cost.hex() == (math.fsum(cols["seller_cost"]) / n).hex()
    assert {bid: x.hex() for bid, x in m.mean_broker_payoff.items()} == {
        bid: (math.fsum(p) / n).hex() for bid, p in cols["payoffs"].items()}
    kernel = Kernel(config)
    assert m.clamped_round2_count == sum(
        b.clamped for (b,) in kernel.chunks([config.strategies], n, seed, config.rule))


def test_equilibrium_strategy_on_a_global_broker_is_rejected():
    sc = _scenario()
    eq = Strategy(kind="equilibrium", sigma=0.001)
    for rounds in ({"round1": eq}, {"round2": eq}):
        profile = sc.strategies.with_strategy("G", **rounds)
        with pytest.raises(ConfigurationError, match="'G' is a global broker"):
            simulate(replace(sc, strategies=profile), n=10, seed=0)
        with pytest.raises(ConfigurationError, match="'G' is a global broker"):
            run_auction(replace(sc, strategies=profile), seed=0)
        with pytest.raises(ConfigurationError, match="'G' is a global broker"):
            compare_strategies(sc, sc.strategies, profile, n=10, seed=0)
    with pytest.raises(ConfigurationError, match="'G' is a global broker"):
        strategy_bid(eq, F(20, 10_000), None, None, "nvcg", 2, broker="G")


def test_kernel_is_built_once_per_layout():
    """A replace() of what Kernel does not read, the pricing rule among
    them, keeps the scenario's cached Kernel; a new object for anything it
    reads builds another."""
    sc = _scenario(local_dist={"kind": "uniform", "lower_bps": 5, "upper_bps": 30})
    k = kernel(sc)
    dev = sc.strategies.with_strategy("L1", round2=Strategy(kind="offset", offset=F(-1, 10_000)))
    for same in (replace(sc, seed=3), replace(sc, replications=7), replace(sc, name="other"),
                 replace(sc, strategies=dev), replace(sc, distributions=dict(sc.distributions)),
                 *(replace(sc, rule=rule) for rule in RULES)):
        assert kernel(same) is k
    power_law = ValueDistribution.power_law(F(30, 10_000), 2.0)
    for changed in (replace(sc, brokers=tuple(list(sc.brokers))),
                    replace(sc, portfolio=replace(sc.portfolio)),
                    replace(sc, weights=replace(sc.weights)),
                    replace(sc, distributions={**sc.distributions, "local": power_law}),
                    replace(sc, distributions={**sc.distributions, "global": power_law}),
                    replace(sc, correlated_locals=False)):
        assert kernel(changed) is not k
        assert kernel(changed) is kernel(changed)


def test_warm_kernels_give_cold_results_bit_for_bit(monkeypatch):
    """simulate and compare_strategies on cached Kernels, interleaved over
    scenarios and rules and again after every entry was evicted, repeat a
    fresh Kernel's results to the bit."""
    market = pin_simulate._load(pin_simulate._market())
    powerlaw = builtin_scenario("powerlaw")
    per_scenario = []
    for sc, broker in ((market, "P0L2"), (powerlaw, "L1")):
        calls = []
        # A round-2 deviation, and a round-1 one that shares sc's round 2.
        devs = [sc.strategies.with_strategy(broker, round2=Strategy(kind="offset",
                                                                    offset=F(3, 10_000))),
                sc.strategies.with_strategy(broker, round1=Strategy(kind="constant",
                                                                    value=F(34, 10_000)))]
        for rule in RULES:
            ruled = replace(sc, rule=rule)
            calls.append(lambda s=ruled: simulate(s, n=300, seed=4))
            for dev in devs:
                calls += [lambda s=ruled, d=dev: simulate(replace(s, strategies=d), n=300,
                                                          seed=5),
                          lambda s=ruled, d=dev: compare_strategies(s, s.strategies, d, 300, 6)]
        per_scenario.append(calls)
    calls = [call for pair in zip(*per_scenario) for call in pair]  # alternate the two scenarios

    def results():
        return [repr(call()) for call in calls]

    warm = results() + results()
    # Past eviction: KERNELS + 1 layouts push every entry out.
    crowd = [replace(powerlaw, brokers=tuple(list(powerlaw.brokers))) for _ in range(KERNELS + 1)]
    first = kernel(crowd[0])
    for sc in crowd:
        simulate(sc, n=10, seed=0)
    assert kernel(crowd[0]) is not first
    warm += results()
    monkeypatch.setattr(batch, "kernel", Kernel)
    assert warm == results() * 3


def test_a_deviation_compiles_only_the_deviating_round(monkeypatch):
    """Kernel.compile converts each round once per pricing rule, keyed by
    the rule and its Strategy objects: the same objects under the same rule
    call bid_rule 0 times, a deviation in one round calls it only on that
    round's strategies and returns the other round's compiled rules as they
    were, and another rule compiles both rounds without evicting the
    first's."""
    sc = _scenario(rule="nvcg")
    k = kernel(sc)
    round1, round2 = k.compile(sc.strategies, "nvcg")
    calls = []
    bid_rule = batch.bid_rule
    monkeypatch.setattr(batch, "bid_rule", lambda *args: calls.append(args[1]) or bid_rule(*args))
    again = k.compile(StrategyProfile(sc.strategies.brokers), "nvcg")
    assert again[0] is round1 and again[1] is round2 and calls == []
    dev = sc.strategies.with_strategy("L2", round2=Strategy(kind="offset", offset=F(2, 10_000)))
    rules = k.compile(dev, "nvcg")
    assert rules[0] is round1 and rules[1] is not round2
    assert [id(s) for s in calls] == [id(dev[bid].round2) for bid in k.ids]
    calls.clear()
    dev = sc.strategies.with_strategy("L2", round1=Strategy(kind="constant", value=F(33, 10_000)))
    rules = k.compile(dev, "nvcg")
    assert rules[0] is not round1 and rules[1] is round2
    assert [id(s) for s in calls] == [id(dev[bid].round1) for bid in k.ids]
    calls.clear()
    again = k.compile(sc.strategies, "nvcg")
    assert again[0] is round1 and again[1] is round2 and calls == []
    vcg = k.compile(sc.strategies, "vcg")
    assert vcg[0] is not round1 and vcg[1] is not round2
    assert [id(s) for s in calls] == [id(sc.strategies[bid].round1) for bid in k.ids] + [
        id(sc.strategies[bid].round2) for bid in k.ids]
    calls.clear()
    again = k.compile(sc.strategies, "nvcg")
    assert again[0] is round1 and again[1] is round2 and calls == []


def test_a_joint_grid_compiles_each_round_once(monkeypatch):
    """R1 round-1 constants x R2 round-2 offsets on one broker, in one
    Kernel.chunks call: R1 + R2 rounds compiled, R1 qualifications per
    chunk, and each profile's outcomes equal to the bit to a lone run."""
    sc = _scenario(rule="dnvcg", local_dist={"kind": "uniform", "lower_bps": 5, "upper_bps": 30})
    k = Kernel(sc)
    round1 = [Strategy(kind="constant", value=F(v, 10_000)) for v in (30, 32, 34)]
    round2 = [Strategy(kind="offset", offset=F(v, 10_000)) for v in (-4, 0, 3, 6)]
    grid = [sc.strategies.with_strategy("L1", r1, r2) for r1 in round1 for r2 in round2]
    n, seed = CHUNK + 5, 9
    compiled, qualified = [], []
    bid_rule, qualify = batch.bid_rule, Kernel.qualify
    monkeypatch.setattr(batch, "bid_rule", lambda *args: compiled.append(args) or bid_rule(*args))
    monkeypatch.setattr(Kernel, "qualify",
                        lambda self, *args: qualified.append(args) or qualify(self, *args))
    joint = list(k.chunks(grid, n, seed, sc.rule))
    assert len(compiled) == (len(round1) + len(round2)) * len(k.ids)
    assert len(qualified) == len(round1) * len(joint) == len(round1) * 2
    for i, profile in enumerate(grid):
        lone = [b for (b,) in Kernel(sc).chunks([profile], n, seed, sc.rule)]
        for batches, alone in zip(joint, lone, strict=True):
            assert batches[i].payoffs.tobytes() == alone.payoffs.tobytes()
            assert batches[i].seller_cost.tobytes() == alone.seller_cost.tobytes()


def test_errors_are_raised_on_every_call():
    """Neither an unknown rule nor an equilibrium strategy on a global is
    cached: each raises again on the second call."""
    sc = _scenario()
    unknown = replace(sc, rule="second-price")
    eq = sc.strategies.with_strategy("G", round2=Strategy(kind="equilibrium", sigma=0.001))
    for call, message in ((lambda: simulate(unknown, n=10, seed=0), "unknown pricing rule"),
                          (lambda: simulate(replace(sc, strategies=eq), n=10, seed=0),
                           "'G' is a global broker"),
                          (lambda: compare_strategies(sc, sc.strategies, eq, n=10, seed=0),
                           "'G' is a global broker")):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match=message):
                call()


def test_cached_arrays_are_read_only():
    """Every call shares a cached Kernel's arrays and compiled rules, so a
    write to any of them raises."""
    sc = pin_simulate._load(pin_simulate._market())
    k = kernel(sc)
    arrays = [k.w_col, k.pkg_values, k.members, k.auctions, k.running_count]
    for round_rules in k.compile(sc.strategies, sc.rule):
        for _, brokers, param in round_rules:
            arrays += [brokers, param]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_round2_bids_respect_round1_cap():
    # a custom strategy that violates the cap gets clamped and flagged
    sc = _scenario()
    profile = sc.strategies.with_strategy(
        "L1", round2=Strategy(kind="constant", value=F(50, 10_000))
    )
    metrics = simulate(replace(sc, strategies=profile), n=200, seed=2)
    assert metrics.clamped_round2_count == 200
    t = run_auction(replace(sc, strategies=profile), seed=2)
    assert t.ledger.round2["L1"] == t.ledger.round1["L1"]
    assert "clamped_round2_bids" in t.outcome.diagnostics


def test_outputs_match_pins():
    want = json.loads(pin_simulate.PINS.read_text())
    got = pin_simulate.compute_pins()
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_chunk_boundaries_keep_row_prefixes():
    sc = _scenario(correlated=False,
                   local_dist={"kind": "uniform", "lower_bps": 5, "upper_bps": 30})
    runs = [pin_simulate.replications(sc, n, 4) for n in (5, CHUNK + 1, 2 * CHUNK + 3)]
    for short, long in zip(runs, runs[1:]):
        k = len(short["won"])
        for key, a in short.items():
            b = long[key]
            if isinstance(a, dict):
                assert {bid: v[:k] for bid, v in b.items()} == a
            else:
                assert b[:k] == a


@pytest.mark.parametrize("seed", [4, 2**128 - 1])
def test_row_is_that_row_of_the_chunked_stream(seed):
    """rows(seed, k, m, width) are rows k..k+m-1 of one sequential draw of
    the seed's Philox stream, however far into it k is."""
    n = 2 * CHUNK + 3
    for width in range(5, 25):
        u = np.random.Generator(np.random.Philox(key=seed)).random((n + 2, width))
        for k in (0, 1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, n - 1):
            for m in (1, 3):
                assert np.array_equal(rows(seed, k, m, width), u[k:k + m]), (width, k, m)


_DISTRIBUTIONS = st.one_of(
    st.builds(ValueDistribution.power_law, upper=st.floats(1e-6, 1e6),
              shape=st.floats(1.0, 50.0, exclude_min=True)),
    st.floats(-1e6, 1e6).flatmap(lambda lo: st.builds(
        ValueDistribution.uniform, lower=st.just(lo),
        upper=st.floats(lo, lo + 1e6, exclude_min=True))),
    st.builds(ValueDistribution.empirical,
              st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dist=_DISTRIBUTIONS,
       u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20))
def test_quantiles_are_quantile_elementwise(dist, u):
    got = dist.quantiles(np.array(u)).tolist()
    assert [x.hex() for x in got] == [float(dist.quantile(x)).hex() for x in u]


@pytest.mark.parametrize("shape", [1.0000001, 1.5, 2.0, 3.0, 3.5, 5.0, 49.9])
def test_power_law_quantiles_are_math_pow_bit_for_bit(shape):
    """On 125,000 Philox uniforms and the edge uniforms, through the
    kernel's strided (G, n) global view and its correlated (1, n) local
    view, every power-law quantile is math.pow's to the bit: np.power and
    np.sqrt round differently on a share of these draws."""
    L, G = 2, 4
    u = rows(18, 0, 25_000, L + G + 2)
    u[:5] = np.array([0.0, 5e-324, 2.0**-1022, 0.5, 1 - 2.0**-53])[:, None]
    dist = ValueDistribution.power_law(upper=1.0, shape=shape)
    for view in (u[:, L:L + G].T, u[:, :1].T):
        got = dist.quantiles(view)
        assert got.shape == view.shape
        flat = view.ravel().tolist()
        want = np.fromiter((math.pow(x, 1.0 / shape) for x in flat), float, len(flat))
        bad = np.flatnonzero(got.ravel().view(np.uint64) != want.view(np.uint64))
        assert [(flat[i], got.ravel()[i].hex(), want[i].hex()) for i in bad[:5]] == []


def _python_scalars(x):
    if isinstance(x, dict):
        return all(_python_scalars(v) for v in x.values())
    if isinstance(x, (list, tuple)):
        return all(_python_scalars(v) for v in x)
    return type(x) in (bool, int, float, str)


def test_results_hold_python_scalars_only():
    metrics = simulate(_scenario(), n=300, seed=1)
    assert all(_python_scalars(getattr(metrics, f.name)) for f in fields(metrics))
    sc = _scenario()
    dev = sc.strategies.with_strategy("L1", round2=Strategy(kind="offset", offset=F(-1, 10_000)))
    report = compare_strategies(sc, sc.strategies, dev, n=300, seed=2)
    assert all(_python_scalars(getattr(report, f.name)) for f in fields(report))
    mixed = pin_simulate._load(_mixed_market())
    for rule in pin_simulate.RULES:
        for seed in range(20):
            t = run_auction(replace(mixed, rule=rule), seed=seed)
            assert _python_scalars(transcript_dict(t)), (rule, seed)


def test_floored_bids_are_positive_zero():
    """Locals on [-10, 10] bps: a round-2 bid floored at zero is +0.0,
    as in the batch kernel, whether the bid rule or the clamp floors it."""
    sc = _scenario(local_dist={"kind": "uniform", "lower_bps": -10, "upper_bps": 10})
    profiles = {
        "offset": sc.strategies.with_strategy(
            "L1", round2=Strategy(kind="offset", offset=F(-5, 10_000))),
        "equilibrium": sc.strategies.with_strategy(
            "L1", round2=Strategy(kind="equilibrium", sigma=0.01)),
        "capped-value": sc.strategies.with_strategy("L2", round2=Strategy(kind="capped-value")),
    }
    for name, profile in profiles.items():
        config = replace(sc, strategies=profile)
        floored = 0
        for seed in range(25):
            t = run_auction(config, seed=seed)
            for broker in ("L1", "L2"):
                if t.ledger.round2[broker] == 0:
                    floored += 1
                    assert repr(t.ledger.round2[broker]) == "0.0", (name, seed, broker)
        assert floored, name


# settle_row keeps Fraction constants exact where the kernel rounds them to
# floats first, so the two may differ by round-off, never by more than this.
ORACLE_TOL = 1e-12


def _oracle_cases():
    cases = [(name, replace(config, rule=rule), seed)
             for name, config, rule, _, seed in pin_simulate._simulate_cases()]
    # Brokers listed against id order: both engines break ties in id order.
    doc = pin_simulate._market()
    doc["brokers"] = doc["brokers"][::-1]
    cases.append(("market-reversed/dnvcg", pin_simulate._load(doc), 4))
    mixed = pin_simulate._load(_mixed_market())
    cases += [(f"mixed/{rule}", replace(mixed, rule=rule), 11) for rule in pin_simulate.RULES]
    return [pytest.param(*case, id=case[0]) for case in cases]


def _mixed_market():
    """The pinned market with one local left on packages 1 and 2, three on
    package 0, and every strategy kind in play: P1L0 bids a constant in
    round 1 and capped-value in round 2."""
    doc = pin_simulate._market()
    gone = {"P1L1", "P1L2", "P2L1", "P2L2"}
    doc["brokers"] = [b for b in doc["brokers"] if b["id"] not in gone]
    doc["strategies"] = {k: v for k, v in doc["strategies"].items() if k not in gone}
    doc["strategies"]["P1L0"] = {"round1": {"kind": "constant", "value_bps": 18},
                                 "round2": {"kind": "capped-value"}}
    return doc


@pytest.mark.parametrize("name, config, seed", _oracle_cases())
def test_settle_row_matches_the_kernel(name, config, seed):
    """Row k of the seed's stream settled alone by the exact scalar rules
    is replication k of simulate. The kernel's core verdict agrees with
    the transcript's slacks (fee over round-2 bid, VCG fee over fee, and
    global bid over the weighted fees) wherever they clear ORACLE_TOL: it
    flags a row with a slack below -ORACLE_TOL and no row whose slacks all
    exceed it, and never a global win."""
    ks = list(range(200))
    if name == "powerlaw/dnvcg/long":
        ks += [CHUNK - 1, CHUNK, CHUNK + 1]
    n = ks[-1] + 1
    u = rows(seed, 0, n, row_width(config))
    details = pin_simulate.replications(config, n, seed)
    violations = np.concatenate([b.violations for (b,) in Kernel(config).chunks(
        [config.strategies], n, seed, config.rule)])
    w = config.weights.weights
    pf = config.portfolio
    clamped = {}
    for k in ks:
        t = settle_row(config, u[k])
        o = t.outcome
        assert (o.winner == "coalition") is details["won"][k], k
        g2 = t.ledger.round2[t.qualification.qualified_global]
        assert abs(g2 - details["global_bid2"][k]) <= ORACLE_TOL, k
        assert len(o.fees) == len(details["fees"][k])
        for fee, want in zip(o.fees, details["fees"][k]):
            assert abs(fee - want) <= ORACLE_TOL, k
        cost = (sum(wj * f for wj, f in zip(w, o.fees)) if details["won"][k]
                else o.global_payment)
        assert abs(cost - details["seller_cost"][k]) <= ORACLE_TOL, k
        assert t.payoffs.keys() == details["payoffs"].keys()
        for b in config.brokers:
            scale = pf.package_values[b.package_index] if b.role == "local" else pf.total_value
            assert abs(t.payoffs[b.id] - details["payoffs"][b.id][k]) <= ORACLE_TOL * scale, \
                (k, b.id)
        if o.winner == "coalition":
            bids2 = [t.ledger.round2[b] for b in t.qualification.qualified_locals]
            slacks = [*(f - b for f, b in zip(o.fees, bids2)),
                      *(c - f for c, f in zip(o.vcg_fees, o.fees)), g2 - cost]
            if min(slacks) < -ORACLE_TOL:
                assert violations[k], k
            if min(slacks) > ORACLE_TOL:
                assert not violations[k], k
        else:
            assert not violations[k], k
        clamped[k] = len(o.diagnostics.get("clamped_round2_bids", ()))
    # simulate counts clamped bids per run: rows 0..199 together, and each
    # later row as the difference of two prefixes
    assert sum(clamped[k] for k in range(200)) == simulate(
        config, n=200, seed=seed).clamped_round2_count
    for k in ks[200:]:
        assert clamped[k] == (simulate(config, n=k + 1, seed=seed).clamped_round2_count
                              - simulate(config, n=k, seed=seed).clamped_round2_count)


def test_mixed_market_uses_every_strategy_kind():
    config = pin_simulate._load(_mixed_market())
    kinds = {s.kind for b in config.strategies.brokers.values() for s in (b.round1, b.round2)}
    assert kinds == set(ROUND2_KINDS)
    sizes = [sum(b.role == "local" and b.package_index == j for b in config.brokers)
             for j in range(config.portfolio.q)]
    assert sizes == [3, 1, 1]


@pytest.mark.parametrize("name", ["market", "powerlaw"])
def test_compare_strategies_means_are_simulate_means(name):
    """The values compare_strategies draws once per chunk and shares
    between its profiles are the ones simulate draws for each profile,
    under every rule."""
    if name == "market":
        config = pin_simulate._load(pin_simulate._market())
        broker, deviation = "P0L2", config.strategies.with_strategy(
            "P0L2", round1=Strategy(kind="truthful"))
    else:
        config = builtin_scenario("powerlaw")
        broker, deviation = "L1", config.strategies.with_strategy(
            "L1", round2=Strategy(kind="offset", offset=F(4, 10_000)))
    n, seed = CHUNK + 5, 12
    for rule in RULES:
        ruled = replace(config, rule=rule)
        report = compare_strategies(ruled, ruled.strategies, deviation, n, seed)
        base = simulate(ruled, n=n, seed=seed)
        dev = simulate(replace(ruled, strategies=deviation), n=n, seed=seed)
        assert report.mean_baseline.hex() == base.mean_broker_payoff[broker].hex(), rule
        assert report.mean_deviation.hex() == dev.mean_broker_payoff[broker].hex(), rule
        assert report.mean_difference != 0.0, rule


def test_paired_se_of_payoffs_near_1e196_is_finite():
    """Payoffs are package value times fee, so at the 1e100 bound their
    paired differences square past the float range; the SE is still the
    exact one over the same differences."""
    big = 10**100
    data = json.loads(resources.files("portauction").joinpath(
        "scenarios/powerlaw.json").read_text())
    data["portfolio"].update(quantities=[2**52, 1, 1], agreed_prices=[10**84] * 3,
                             packages=[[2**52, 0, 0], [0, 1, 1]])
    data["distributions"]["global"]["upper_bps"] = big
    for broker in data["strategies"].values():
        broker["round1"] = {"kind": "constant", "value_bps": big}
    data["strategies"]["L2"]["round2"] = {"kind": "constant", "value_bps": big}
    sc = scenario_from_dict(data)
    dev = sc.strategies.with_strategy("L1", round1=Strategy(kind="constant", value=0))
    n, seed = 200, 1
    report = compare_strategies(sc, sc.strategies, dev, n, seed)

    kernel = Kernel(sc)
    col = kernel.ids.index("L1")
    diffs = [F(x) for b, d in kernel.chunks([sc.strategies, dev], n, seed, sc.rule)
             for x in (d.payoffs[col] - b.payoffs[col]).tolist()]
    mean = sum(diffs) / n
    assert max(abs(x - mean) for x in diffs) >= 2**512  # its square is past the range
    var = sum((x - mean) ** 2 for x in diffs) / (n - 1) / n
    with decimal.localcontext(prec=40):
        want = float((decimal.Decimal(var.numerator) / var.denominator).sqrt())
    assert math.isfinite(report.paired_se)
    assert report.paired_se == pytest.approx(want, rel=1e-12)


_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0, -1.0])


def _sum_or_error(chunks):
    """Each stream's ExactSum total as hex, or the type of what it raised."""
    try:
        total = ExactSum(len(chunks[0]))
        for chunk in chunks:
            total.add(chunk)
        return [t.hex() for t in total.totals()]
    except (ValueError, OverflowError) as e:
        return type(e)


def _fsum_or_error(chunks):
    """math.fsum of each stream's values in order, or the error type."""
    try:
        return [math.fsum(v for chunk in chunks for v in chunk[i].tolist()).hex()
                for i in range(len(chunks[0]))]
    except (ValueError, OverflowError) as e:
        return type(e)


def _wide(seed, k, values, scale=2.0**-20, n=None):
    """A chunk of k streams wide enough for extraction (n columns, or a
    few more than EXTRACT_MIN values): most magnitudes within 2**-8 of
    scale, one in ten down to subnormal, most values of a row of one sign
    (so its sum grows with the width), some zeros, and values written over
    the first columns of every row."""
    rng = np.random.default_rng(seed)
    n = n or -(-EXTRACT_MIN // k) + int(rng.integers(0, 64))
    sign = np.where(rng.random((k, 1)) < 0.5, 1.0, -1.0) * np.where(rng.random((k, n)) < 0.1, -1, 1)
    spread = np.where(rng.random((k, n)) < 0.1, 1000, 8)
    x = sign * rng.uniform(0.5, 1.0, (k, n)) * scale * np.exp2(-rng.integers(0, spread))
    x[rng.random((k, n)) < 0.3] = 0.0
    x[:, :len(values)] = values
    return x


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=1, max_value=3),
       chunks=st.lists(st.tuples(
           st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.lists(st.one_of(_SPECIAL_FLOATS, st.floats(min_value=-1e300, max_value=1e300)),
                    max_size=60)), min_size=1, max_size=6))
def test_exact_sum_over_any_chunking_is_fsum(k, chunks):
    """Streams of narrow chunks (math.fsum) and wide ones (extraction, or
    math.fsum again when a value is too large to extract) in any mix."""
    arrays = []
    for wide, seed, values in chunks:
        if wide:
            arrays.append(_wide(seed, k, values))
        else:
            rows = [values[i:] + values[:i] for i in range(k)]
            arrays.append(np.array(rows, dtype=float).reshape(k, len(values)))
    assert _sum_or_error(arrays) == _fsum_or_error(arrays)


def _limit(n):
    """The smallest magnitude ExactSum does not extract in an n-wide chunk."""
    return 2.0**1000 / n


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("label, chunks", [
    ("subnormals", lambda: [_wide(1, 2, [5e-324, -5e-324, 1e-310], scale=2.0**-1000),
                            _wide(2, 2, [2.2250738585072014e-308, -5e-324])]),
    ("plus-minus-1e300", lambda: [_wide(3, 1, [1e300, -1e300, 1e300]), _wide(4, 1, [-1e300])]),
    ("just-below-the-limit",
     lambda: [_wide(5, 1, [np.nextafter(_limit(EXTRACT_MIN), 0)], n=EXTRACT_MIN)]),
    ("at-the-limit", lambda: [_wide(6, 1, [_limit(EXTRACT_MIN)], n=EXTRACT_MIN)]),
    ("both-sides-of-the-limit", lambda: [
        _wide(7, 1, [-np.nextafter(_limit(EXTRACT_MIN), 0)] * 3, n=EXTRACT_MIN),
        _wide(8, 1, [_limit(EXTRACT_MIN)] * 3, n=EXTRACT_MIN)]),
    # 4000 values just above -1.0 on a grid of 2**-43: their sum needs the
    # headroom sigma leaves for 2**12 values (a sigma half as large
    # rounds it).
    ("one-sign-at-full-width", lambda: [(np.arange(4000)[None] % 997 + 1) * 2.0**-43 - 1.0]),
    ("inf", lambda: [_wide(9, 2, [_INF]), _wide(10, 2, [1.0])]),
    ("minus-inf", lambda: [_wide(11, 1, [1.0]), _wide(12, 1, [-_INF, -_INF])]),
    ("nan", lambda: [_wide(13, 2, [2.0]), _wide(14, 2, [_NAN])]),
    ("inf-and-minus-inf", lambda: [_wide(15, 1, [_INF]), np.array([[-_INF]])]),
    ("finite-overflow", lambda: [_wide(16, 1, [1.7e308]), _wide(17, 1, [1.7e308])]),
])
def test_exact_sum_edge_cases_are_fsum(label, chunks):
    """fsum's bits, or fsum's error, on values at the edges of extraction:
    subnormals, huge values, the extraction limit and non-finite values."""
    chunks = chunks()
    want = _fsum_or_error(chunks)
    if label == "inf-and-minus-inf":
        assert want is ValueError
    if label == "finite-overflow":
        assert want is OverflowError
    assert _sum_or_error(chunks) == want
