import json
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from portauction import pricing, reproduce
from portauction.batch import Kernel, row_width, rows
from portauction.equilibrium import ValueDistribution, equilibrium_shading
from portauction.mechanism import (
    BidLedger,
    publish_update,
    run_auction,
    run_round1,
    run_round2,
    settle_row,
    transcript_dict,
)
from portauction.model import ConfigurationError, PortfolioSpec
from portauction.scenario import builtin_scenario
from portauction.sim import (
    Strategy,
    StrategyProfile,
    compare_strategies,
    simulate,
    strategy_bid,
)
from portauction.units import to_bps


WA = (F(3, 5), F(2, 5))


def _ledger_a(**round2):
    r2 = {"L1": 25, "L2": 10, "G": 22}
    r2.update(round2)
    return BidLedger(round1={"L1": 27, "L2": 19, "G": 22}, round2=r2)


def _qual_a():
    return run_round1(
        [{"L1": 27}, {"L2": 19}],
        {"G": 22},
        coins=(0.0, 0.0, 0.0),
    )


def test_round1_unique_minimum():
    qual = run_round1([{"a": 27, "b": 31, "c": 29}], {"g1": 20, "g2": 25}, coins=(0.9, 0.9))
    assert qual.qualified_locals == ("a",)
    assert qual.local_bids == (27,)
    assert qual.qualified_global == "g1"
    assert qual.global_bid == 20


def test_round1_tie_probability():
    wins = 0
    n = 10_000
    coins = np.random.Generator(np.random.Philox(key=0)).random(n).tolist()
    for coin in coins:
        qual = run_round1([{"b": 27, "a": 27}], {"g": 20}, coins=(coin, 0.0))
        wins += qual.qualified_locals[0] == "a"
    assert abs(wins / n - 0.5) < 0.02
    # the int(coin * ties)-th tied bidder in id order, in every auction
    qual = run_round1([{"c": 5, "b": 5, "a": 5}], {"h": 2, "g": 2}, coins=(0.5, 0.49))
    assert qual.qualified_locals == ("b",)
    assert qual.qualified_global == "g"
    qual = run_round1([{"c": 5, "b": 5, "a": 5}], {"h": 2, "g": 2}, coins=(0.99, 0.5))
    assert qual.qualified_locals == ("c",)
    assert qual.qualified_global == "h"


def test_round1_empty_auction_rejected():
    with pytest.raises(ConfigurationError, match="package 0 has no local bidder"):
        run_round1([{}], {"g": 20}, coins=(0.0, 0.0))
    with pytest.raises(ConfigurationError, match="the whole-portfolio auction has no bidders"):
        run_round1([{"a": 1}], {}, coins=(0.0, 0.0))
    with pytest.raises(ConfigurationError, match="1 tie coins for 2 sealed auctions"):
        run_round1([{"a": 1}], {"g": 20}, coins=(0.0,))  # one coin per auction
    for coin in (1.0, -0.5):  # each coin is a uniform in [0, 1)
        with pytest.raises(ConfigurationError, match="outside"):
            run_round1([{"a": 1, "b": 1}], {"g": 20}, coins=(coin, 0.0))
        with pytest.raises(ConfigurationError, match="outside"):
            run_round1([{"a": 1}], {"g": 20, "h": 20}, coins=(0.0, coin))


def test_round1_worked_setup():
    qual = _qual_a()
    assert qual.qualified_locals == ("L1", "L2")
    assert qual.local_bids == (27, 19)
    assert qual.qualified_global == "G"


def test_publish_update_reveals_winners_only():
    qual = run_round1(
        [{"L1": 27, "L1b": 33}, {"L2": 19, "L2b": 21}],
        {"G": 22, "Gb": 30},
        coins=(0.3, 0.3, 0.3),
    )
    update = publish_update(qual)
    assert update.revealed_bids == (("L1", 27), ("L2", 19), ("G", 22))
    # serialization-level hygiene: no loser id or bid leaks
    text = json.dumps([list(p) for p in update.revealed_bids])
    for token in ("L1b", "L2b", "Gb", "33", "21", "30"):
        assert token not in text


def test_publish_update_single_package():
    qual = run_round1([{"L1": 15}], {"G": 22}, coins=(0.0, 0.0))
    update = publish_update(qual)
    assert len(update.revealed_bids) == 2


def test_publish_update_deterministic():
    a = publish_update(_qual_a())
    b = publish_update(_qual_a())
    assert a == b


def test_bid_ledger_holds_round2_bids_in_zero_to_the_round1_cap():
    assert _ledger_a().round2 == {"L1": 25, "L2": 10, "G": 22}
    # repeating the round-1 bid is the cap itself, and run_round2 takes it
    repeat = _ledger_a(L1=27, L2=19, G=22)
    assert repeat.round2 == repeat.round1
    assert run_round2(_qual_a(), repeat, WA, "nvcg", coin=0.0).winner == "global"
    zero = _ledger_a(L1=0)
    assert run_round2(_qual_a(), zero, WA, "nvcg", coin=0.0).winner == "coalition"
    with pytest.raises(ConfigurationError, match="above the round-1 cap"):
        BidLedger(round1={"L2": 19}, round2={"L2": 20})
    with pytest.raises(ConfigurationError, match="round2 bid of 'L2' is negative"):
        BidLedger(round1={"L2": 19}, round2={"L2": -1})
    with pytest.raises(ConfigurationError, match="no round-1 bid"):
        BidLedger(round1={"L1": 19}, round2={"L2": 1})


def test_run_round2_worked_instance():
    outcome = run_round2(_qual_a(), _ledger_a(), WA, "nvcg", coin=0.0)
    assert outcome.winner == "coalition"
    assert outcome.fees == (27, F(29, 2))
    assert outcome.global_payment == 0
    assert outcome.delta == 3
    assert outcome.vcg_fees == (30, F(35, 2))

    outcome = run_round2(_qual_a(), _ledger_a(), WA, "dnvcg", coin=0.0)
    assert outcome.fees == (28, 13)
    assert outcome.epsilons == (0, F(3, 2))

    outcome = run_round2(_qual_a(), _ledger_a(), WA, "vcg", coin=0.0)
    assert outcome.fees == (30, F(35, 2))


def test_run_round2_global_win():
    ledger = _ledger_a(L1=27, L2=19, G=22)  # total 0.6*27+0.4*19 = 23.8 > 22
    outcome = run_round2(_qual_a(), ledger, WA, "nvcg", coin=0.0)
    assert outcome.winner == "global"
    assert outcome.global_payment == F(119, 5)
    assert all(f == 0 for f in outcome.fees)

    # coalition total 30 against a global bid of 25: paid exactly 30
    qual = run_round1([{"L1": 40}, {"L2": 40}], {"G": 25}, coins=(0.0, 0.0, 0.0))
    ledger = BidLedger(round1={"L1": 40, "L2": 40, "G": 25},
                       round2={"L1": 30, "L2": 30, "G": 25})
    outcome = run_round2(qual, ledger, (F(1, 2), F(1, 2)), "dnvcg", coin=0.0)
    assert outcome.winner == "global"
    assert outcome.global_payment == 30


def test_run_round2_tie_paths():
    ledger = _ledger_a(L1=25, L2=F(35, 2))  # total = 22 exactly
    out = run_round2(_qual_a(), ledger, WA, "nvcg", coin=0.0)
    assert out.winner == "coalition"
    assert out.fees == (25, F(35, 2))  # every rule pays the bids at a tie
    assert out.diagnostics["tie"]
    out = run_round2(_qual_a(), ledger, WA, "nvcg", coin=0.75)
    assert out.winner == "global"
    assert out.diagnostics["tie"]
    # a fair coin: the coalition wins the tie iff coin < 0.5
    sides = [run_round2(_qual_a(), ledger, WA, "nvcg", coin=k / 40).winner for k in range(40)]
    assert sides == ["coalition"] * 20 + ["global"] * 20
    # without a tie the coin is ignored
    strict = _ledger_a(L1=25, L2=10)
    assert {run_round2(_qual_a(), strict, WA, "nvcg", coin=c).winner
            for c in (0.0, 0.75)} == {"coalition"}


def test_run_round2_missing_bid_errors():
    ledger = BidLedger(round1={"L1": 27, "L2": 19, "G": 22}, round2={"L1": 25, "G": 22})
    with pytest.raises(ConfigurationError, match="'L2' has no recorded round-2 bid"):
        run_round2(_qual_a(), ledger, WA, "nvcg", coin=0.0)
    ledger = BidLedger(round1={"L1": 27, "L2": 19, "G": 22}, round2={"L1": 25, "L2": 10})
    with pytest.raises(ConfigurationError, match="'G' has no recorded round-2 bid"):
        run_round2(_qual_a(), ledger, WA, "nvcg", coin=0.0)
    tie = _ledger_a(L1=25, L2=F(35, 2))
    for coin in (1.0, -0.5):
        with pytest.raises(ConfigurationError, match="outside"):
            run_round2(_qual_a(), tie, WA, "nvcg", coin=coin)


@pytest.mark.parametrize("rule", pricing.RULES)
@pytest.mark.parametrize("round2, coin, winner, calls", [
    ({}, 0.0, "coalition", 1),                      # strict win: 19 < 22
    ({"L2": F(35, 2)}, 0.0, "coalition", 1),        # exact tie at 22
    ({"L2": F(35, 2)}, 0.75, "global", 0),          # the global takes the tie
    ({"L1": 27, "L2": 19}, 0.0, "global", 0),       # strict global win: 23.8 > 22
])
def test_run_round2_prices_each_coalition_win_once(monkeypatch, rule, round2, coin, winner,
                                                    calls):
    counted = []
    vcg_fees = pricing.vcg_fees

    def counting(*args):
        counted.append(args)
        return vcg_fees(*args)

    monkeypatch.setattr(pricing, "vcg_fees", counting)
    out = run_round2(_qual_a(), _ledger_a(**round2), WA, rule, coin=coin)
    assert out.winner == winner
    assert len(counted) == calls


def test_allocation_exclusivity_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        b2 = {f"L{j}": float(x) for j, x in enumerate(rng.uniform(0, 30, 2))}
        b1 = {k: v + float(u) for (k, v), u in zip(b2.items(), rng.uniform(0, 5, 2))}
        b1["G"] = 40.0
        g2 = float(rng.uniform(0, 30))
        qual = run_round1([{"L0": b1["L0"]}, {"L1": b1["L1"]}], {"G": 40.0},
                          coins=(0.5, 0.5, 0.5))
        ledger = BidLedger(round1=b1, round2={**b2, "G": g2})
        out = run_round2(qual, ledger, (F(1, 2), F(1, 2)), "dnvcg", coin=float(rng.random()))
        if out.winner == "coalition":
            assert out.global_payment == 0
        else:
            assert all(f == 0 for f in out.fees)


def test_qualification_optimality_random():
    rng = np.random.default_rng(13)
    for trial in range(100):
        bids = {f"b{k}": float(x) for k, x in enumerate(rng.uniform(0, 50, 5))}
        qual = run_round1([bids], {"g": 1.0}, coins=tuple(rng.random(2).tolist()))
        winner_bid = bids[qual.qualified_locals[0]]
        assert all(winner_bid <= v for v in bids.values())


def test_run_auction_reproduces_worked_fees():
    sc = builtin_scenario("example1")
    for rule, fees in (
        ("vcg", (F(30, 10_000), F(35, 2) / 10_000)),
        ("nvcg", (F(27, 10_000), F(29, 2) / 10_000)),
        ("dnvcg", (F(28, 10_000), F(13, 10_000))),
    ):
        t = run_auction(replace(sc, rule=rule))
        assert t.outcome.winner == "coalition"
        assert t.outcome.fees == fees


def test_run_auction_table1_scenario():
    sc = builtin_scenario("table1")
    t = run_auction(replace(sc, rule="dnvcg"))
    got_bps = tuple(f * 10_000 for f in t.outcome.fees)
    assert got_bps == (F(6719, 279), F(7692, 341), F(232, 9), 25, F(9397, 341))


@pytest.mark.parametrize("rule", pricing.RULES)
@pytest.mark.parametrize("name, target", [("example1", "example1"), ("table1", "example2")])
def test_run_auction_matches_every_reproduced_rule_column(name, target, rule):
    want = reproduce.build(target).records["fees_bps"][rule]
    t = run_auction(replace(builtin_scenario(name), rule=rule))
    assert t.outcome.winner == "coalition"
    assert [float(to_bps(f)) for f in t.outcome.fees] == want


def test_settle_row_takes_a_full_row():
    sc = builtin_scenario("example1")  # 3 brokers, 2 packages: width 7
    assert row_width(sc) == 7
    assert settle_row(sc, [0.5] * 7).outcome.winner == "coalition"
    for width in (6, 8):
        with pytest.raises(ConfigurationError, match="row of"):
            settle_row(sc, [0.5] * width)


def test_run_auction_settles_the_asked_replication():
    sc = builtin_scenario("powerlaw")
    u = rows(sc.seed, 0, 3, row_width(sc))[2]
    assert run_auction(sc, replication=2).outcome == settle_row(sc, u).outcome
    assert run_auction(sc, replication=2).outcome != run_auction(sc).outcome
    with pytest.raises(ConfigurationError, match="replication"):
        run_auction(sc, replication=-1)


def test_transcript_determinism():
    sc = builtin_scenario("example1")
    a = transcript_dict(run_auction(sc, seed=123))
    b = transcript_dict(run_auction(sc, seed=123))
    assert a == b
    # constant strategies: a different seed only re-labels the transcript
    c = run_auction(sc, seed=124)
    assert c.outcome == run_auction(sc, seed=123).outcome


def test_global_round2_helper():
    # capped-value is the global's dominant round-2 bid: min{round-1 bid, valuation}
    capped = Strategy(kind="capped-value")
    assert strategy_bid(capped, 25, 22, None, "dnvcg", 2, broker="G") == 22
    assert strategy_bid(capped, 18, 22, None, "dnvcg", 2, broker="G") == 18


def _powerlaw(**changes):
    return replace(builtin_scenario("powerlaw"), **changes)


def _without_l1():
    """Powerlaw's profile without L1's strategy."""
    brokers = _powerlaw().strategies.brokers
    return StrategyProfile({b: s for b, s in brokers.items() if b != "L1"})


def _without_g():
    """Powerlaw without its global broker G."""
    return _powerlaw(brokers=tuple(b for b in _powerlaw().brokers if b.role == "local"))


def _g_value(u):
    """Powerlaw's row of 7 uniforms with u as G's value uniform (column 2)."""
    return [0.5, 0.5, u, 0.5, 0.5, 0.5, 0.5]


def _portfolio(quantities=(1, 1, 1), prices=(1, 1, 1), packages=((1, 1, 1),)):
    return PortfolioSpec(("S1", "S2", "S3"), quantities, prices, packages)


@pytest.mark.parametrize("call, kind, message", [
    # the global wins, so no price call would name the rule
    pytest.param(lambda: run_round2(_qual_a(), _ledger_a(G=15), WA, "bogus", 0.0),
                 ConfigurationError, "unknown pricing rule 'bogus'", id="run_round2-rule"),
    pytest.param(lambda: run_round2(_qual_a(), _ledger_a(), WA[:1], "nvcg", 0.0),
                 ConfigurationError, "2 qualified locals for 1 weights", id="run_round2-weights"),
    pytest.param(lambda: settle_row(_powerlaw(strategies=None), [0.5] * 7),
                 ConfigurationError, "no strategy profile", id="settle_row-profile"),
    pytest.param(lambda: run_auction(_powerlaw(strategies=None)),
                 ConfigurationError, "no strategy profile", id="run_auction-profile"),
    pytest.param(lambda: compare_strategies(_powerlaw(), _powerlaw().strategies,
                                            _without_l1(), 10, 0),
                 ConfigurationError, "same brokers", id="compare_strategies-brokers"),
    pytest.param(lambda: simulate(_powerlaw(strategies=_without_l1()), n=10, seed=0),
                 ConfigurationError, "no strategy for broker 'L1'", id="simulate-broker"),
    pytest.param(lambda: compare_strategies(_powerlaw(), _without_l1(), _without_l1(), 10, 0),
                 ConfigurationError, "no strategy for broker 'L1'",
                 id="compare_strategies-broker"),
    pytest.param(lambda: run_auction(_powerlaw(strategies=_without_l1())),
                 ConfigurationError, "no strategy for broker 'L1'", id="run_auction-broker"),
    pytest.param(lambda: settle_row(_powerlaw(strategies=_without_l1()), [0.5] * 7),
                 ConfigurationError, "no strategy for broker 'L1'", id="settle_row-broker"),
    pytest.param(lambda: next(Kernel(_powerlaw()).chunks([_without_l1()], 10, 0, "nvcg")),
                 ConfigurationError, "no strategy for broker 'L1'", id="chunks-broker"),
    pytest.param(lambda: _powerlaw().strategies.with_strategy("X", round2=Strategy("truthful")),
                 ConfigurationError, "no strategy for broker 'X'", id="with_strategy-broker"),
    pytest.param(lambda: settle_row(_powerlaw(), _g_value(1.5)),
                 ConfigurationError, "row of", id="settle_row-above-1"),
    pytest.param(lambda: settle_row(_powerlaw(), _g_value(float("nan"))),
                 ConfigurationError, "row of", id="settle_row-nan"),
    pytest.param(lambda: settle_row(_powerlaw(), _g_value(-0.5)),
                 ConfigurationError, "row of", id="settle_row-negative"),
    pytest.param(lambda: settle_row(_powerlaw(), ["0.5"] * 7),
                 ConfigurationError, "row of", id="settle_row-string"),
    pytest.param(lambda: settle_row(_powerlaw(), [False] * 7),
                 ConfigurationError, "row of", id="settle_row-bool"),
    pytest.param(lambda: Strategy("constant", value=float("nan")),
                 ConfigurationError, "strategy's value must be finite", id="Strategy-value"),
    pytest.param(lambda: Strategy("offset", offset=float("nan")),
                 ConfigurationError, "strategy's offset must be finite", id="Strategy-offset"),
    pytest.param(lambda: Strategy("equilibrium", sigma=float("inf")),
                 ConfigurationError, "strategy's sigma must be finite", id="Strategy-sigma"),
    pytest.param(lambda: Strategy("equilibrium", sum_w_qdown=float("-inf")),
                 ConfigurationError, "strategy's sum_w_qdown must be finite",
                 id="Strategy-sum_w_qdown"),
    pytest.param(lambda: Strategy("constant", value=True),
                 ConfigurationError, "strategy's value must be finite and real",
                 id="Strategy-bool"),
    pytest.param(lambda: Strategy("offset", offset="1"),
                 ConfigurationError, "strategy's offset must be finite and real",
                 id="Strategy-string"),
    pytest.param(lambda: Strategy("equilibrium", sigma=None),
                 ConfigurationError, "strategy's sigma must be finite and real",
                 id="Strategy-None"),
    pytest.param(lambda: equilibrium_shading("second-price", 1.0, 0.5, 2),
                 ConfigurationError, "unknown pricing rule 'second-price'",
                 id="equilibrium_shading-rule"),
    pytest.param(lambda: Kernel(_powerlaw(brokers=_powerlaw().brokers[1:])),
                 ConfigurationError, "package 0 has no local bidder", id="Kernel-package"),
    pytest.param(lambda: Kernel(_without_g()),
                 ConfigurationError, "the whole-portfolio auction has no bidders",
                 id="Kernel-portfolio"),
    pytest.param(lambda: simulate(_without_g(), n=10, seed=0),
                 ConfigurationError, "the whole-portfolio auction has no bidders",
                 id="simulate-portfolio"),
    pytest.param(lambda: compare_strategies(_without_g(), _powerlaw().strategies,
                                            _powerlaw().strategies, 10, 0),
                 ConfigurationError, "the whole-portfolio auction has no bidders",
                 id="compare_strategies-portfolio"),
    pytest.param(lambda: run_auction(_without_g()),
                 ConfigurationError, "the whole-portfolio auction has no bidders",
                 id="run_auction-portfolio"),
    pytest.param(lambda: pricing.weighted_total((25, 10, 5), WA),
                 ValueError, "3 bids for 2 weights", id="weighted_total-length"),
    pytest.param(lambda: pricing.validate_core_point((20, 24), (25, 10, 5), WA, 22),
                 ValueError, "equal length", id="validate_core_point-length"),
    pytest.param(lambda: pricing.price("dnvcg", (27,), (25, 10), WA, 22),
                 ValueError, "1 round-1 bids for 2 round-2 bids", id="price-bids1"),
    pytest.param(lambda: pricing.price("bogus", (27, 19), (25, 10), WA, 22),
                 ConfigurationError, "unknown pricing rule 'bogus'", id="price-rule"),
    pytest.param(lambda: reproduce.build("figure9"),
                 ValueError, "unknown reproduction target 'figure9'", id="reproduce-target"),
    pytest.param(lambda: ValueDistribution.empirical(()),
                 ValueError, "nonempty sample", id="empirical-empty"),
    pytest.param(lambda: ValueDistribution(kind="lognormal"),
                 ValueError, "unknown distribution kind 'lognormal'", id="distribution-kind"),
    pytest.param(lambda: ValueDistribution.power_law(upper=1.0, shape=2.0).scaled(0),
                 ValueError, "scale factor must be positive", id="scaled-zero"),
    pytest.param(lambda: _portfolio(quantities=(1, -1, 1), packages=((1, -1, 1),)),
                 ConfigurationError, "quantities must be nonnegative", id="portfolio-quantity"),
    pytest.param(lambda: _portfolio(prices=(1, 0, 1)),
                 ConfigurationError, "agreed prices must be strictly positive",
                 id="portfolio-price"),
    pytest.param(lambda: _portfolio(packages=((1, 1),)),
                 ConfigurationError, "package 0 has length 2, expected 3", id="portfolio-short"),
    pytest.param(lambda: _portfolio(packages=((2, 1, 1), (-1, 0, 0))),
                 ConfigurationError, "package 1 has a negative quantity",
                 id="portfolio-package-quantity"),
])
def test_entry_points_reject_bad_inputs(call, kind, message):
    """Each public entry point's own input check, by its exact error type:
    a ConfigurationError is a ValueError, so a looser match would hide a
    check that raised the other."""
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert exc.type is kind
