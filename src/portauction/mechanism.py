"""The two-round auction state machine.

Round 1 runs q+1 simultaneous sealed first-price auctions (one per package
plus one for the whole portfolio) and qualifies the lowest bidder of each.
In the interim the seller publishes exactly the winning bids. Round 2 is a
single sealed contest between the qualified locals (jointly) and the
qualified global, settled by a core-selecting payment rule; every round-2
bid is capped by the bidder's own round-1 bid.

settle_row runs one auction on one row of uniforms in the batch kernel's
layout: the row fixes the drawn valuations and the tie coins, so a
transcript is a pure function of (inputs, row). run_auction settles row k
of the seed's stream (row 0 by default), drawn by batch.rows as
Kernel.chunks draws it, so it is replication k of simulate. The rules here
are exact under Fraction inputs and are the oracle for the batch kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import pricing, sim
from .batch import PERIOD, row_width, rows
from .model import ConfigurationError


def _check_coin(coin):
    if not 0 <= coin < 1:
        raise ConfigurationError(f"tie coin {coin!r} outside [0, 1)")


def _lowest_bidder(bids: Mapping, coin):
    """The lowest bidder; on an exact tie the int(coin * ties)-th tied
    bidder in id order."""
    low = min(bids.values())
    tied = sorted(b for b, fee in bids.items() if fee == low)
    return tied[int(coin * len(tied))]


@dataclass(frozen=True)
class BidLedger:
    """Recorded bids per broker id, none negative. Round-2 entries may
    cover a subset of round-1 entries (only qualified brokers bid again),
    each at most the broker's round-1 bid."""

    round1: Mapping
    round2: Mapping

    def __post_init__(self):
        object.__setattr__(self, "round1", dict(self.round1))
        object.__setattr__(self, "round2", dict(self.round2))
        for name, bids in (("round1", self.round1), ("round2", self.round2)):
            for broker, fee in bids.items():
                if fee < 0:
                    raise ConfigurationError(f"{name} bid of {broker!r} is negative")
        for broker, fee in self.round2.items():
            if broker not in self.round1:
                raise ConfigurationError(f"{broker!r} has a round-2 bid but no round-1 bid")
            if fee > self.round1[broker]:
                raise ConfigurationError(
                    f"{broker!r} bids {fee} in round 2, above the round-1 cap "
                    f"{self.round1[broker]}"
                )


@dataclass(frozen=True)
class QualificationResult:
    """Round-1 outcome: one local per package plus one global."""

    qualified_locals: tuple  # broker id per package index
    local_bids: tuple        # winning round-1 bid per package index
    qualified_global: str
    global_bid: object       # the global winner's round-1 bid


@dataclass(frozen=True)
class InfoUpdate:
    """The interim public-information update: winning round-1 bids only.

    Never carries anything about losing bids or losing bidders.
    """

    revealed_bids: tuple  # ((broker_id, bid), ...) for the q+1 winners


def run_round1(package_bids: Sequence[Mapping], global_bids: Mapping, coins) -> QualificationResult:
    """Qualify the lowest bidder of each sealed auction. coins holds one
    uniform in [0, 1) per auction, packages first and the whole portfolio
    last; a tie goes to the int(coin * ties)-th tied bidder in id order."""
    if len(coins) != len(package_bids) + 1:
        raise ConfigurationError(
            f"{len(coins)} tie coins for {len(package_bids) + 1} sealed auctions")
    for coin in coins:
        _check_coin(coin)
    winners = []
    winning_bids = []
    for j, (bids, coin) in enumerate(zip(package_bids, coins)):
        if not bids:
            raise ConfigurationError(f"package {j} has no bidders")
        winner = _lowest_bidder(bids, coin)
        winners.append(winner)
        winning_bids.append(bids[winner])
    if not global_bids:
        raise ConfigurationError("the whole-portfolio auction has no bidders")
    g_winner = _lowest_bidder(global_bids, coins[-1])
    return QualificationResult(
        qualified_locals=tuple(winners),
        local_bids=tuple(winning_bids),
        qualified_global=g_winner,
        global_bid=global_bids[g_winner],
    )


def publish_update(qualification: QualificationResult) -> InfoUpdate:
    """Reveal exactly the q+1 winning round-1 bids (including the global's)."""
    revealed = list(zip(qualification.qualified_locals, qualification.local_bids))
    revealed.append((qualification.qualified_global, qualification.global_bid))
    return InfoUpdate(revealed_bids=tuple(revealed))


@dataclass(frozen=True)
class FeeOutcome:
    """Settlement of round 2. Exactly one side carries nonzero payments."""

    winner: str               # "coalition" | "global"
    fees: tuple               # per package index; zeros on a global win
    global_payment: object    # weighted coalition total on a global win, else 0
    vcg_fees: tuple
    delta: object
    epsilons: tuple           # unweighted round-1 deviations (D-NVCG), zeros otherwise
    diagnostics: dict

    def __post_init__(self):
        if self.winner == "coalition":
            assert self.global_payment == 0
        else:
            assert all(f == 0 for f in self.fees)


@dataclass(frozen=True)
class AuctionTranscript:
    qualification: QualificationResult
    update: InfoUpdate
    ledger: BidLedger
    outcome: FeeOutcome
    rule: str
    rng_seed: object
    payoffs: Mapping  # broker id -> payoff, every broker listed


def run_round2(
    qualification: QualificationResult,
    ledger: BidLedger,
    weights,
    rule: str,
    coin,
) -> FeeOutcome:
    """Settle the second round under the selected pricing rule. coin, a
    uniform in [0, 1), settles an exact allocation tie: the coalition wins
    it iff coin < 0.5."""
    if rule not in pricing.RULES:
        raise ConfigurationError(f"unknown pricing rule {rule!r}")
    _check_coin(coin)
    locals_ = qualification.qualified_locals
    q = len(locals_)
    w = tuple(weights)
    if len(w) != q:
        raise ConfigurationError(f"{q} qualified locals for {len(w)} weights")

    # The ledger already holds each round-2 bid in [0, round-1 bid].
    for broker in (*locals_, qualification.qualified_global):
        if broker not in ledger.round2:
            raise ConfigurationError(f"{broker!r} has no recorded round-2 bid")

    bids2 = tuple(ledger.round2[b] for b in locals_)
    bids1 = tuple(ledger.round1[b] for b in locals_)
    g2 = ledger.round2[qualification.qualified_global]
    total = pricing.weighted_total(bids2, w)

    tie = total == g2
    side = "coalition" if (coin < 0.5 if tie else total < g2) else "global"

    zeros = tuple(0 * b for b in bids2)
    if side == "global":
        fees, cv, delta, epsilons, fell_back, violations = zeros, zeros, 0, zeros, False, ()
    elif tie:
        # At an exact tie every rule degenerates to paying the bids.
        fees, cv, delta, epsilons, fell_back = bids2, bids2, 0, zeros, False
        violations = pricing.validate_core_point(bids2, bids2, w, g2).violations()
    else:
        p = pricing.price(rule, bids1, bids2, w, g2)
        fees, cv, delta, epsilons, fell_back = p.fees, p.vcg_fees, p.delta, p.deviations, p.fell_back
        violations = p.core.violations()
    return FeeOutcome(
        winner=side,
        fees=fees,
        global_payment=total if side == "global" else 0,
        vcg_fees=cv,
        delta=delta,
        epsilons=epsilons,
        diagnostics={"tie": tie, "dnvcg_fallback_empty_qdown": fell_back,
                     "core_violations": violations},
    )


def settle_row(scenario, u) -> AuctionTranscript:
    """Settle one auction of the scenario under its strategies on one
    row u of uniforms in the batch.row_width layout: the row fixes the
    drawn valuations (sim.resolve_bids), the q+1 round-1 tie coins and the
    allocation tie coin. Round-2 bids are clamped into [0, round-1 bid];
    any clamping is flagged in the outcome diagnostics. rng_seed is left
    None.

    Payoffs are the batch kernel's: a seated local j on a coalition win
    earns package_values[j] * (fee_j - valuation), the seated global on a
    global win total_value * (global_payment - valuation), and every other
    broker 0."""
    profile = scenario.strategies
    if profile is None:
        raise ConfigurationError("no strategy profile supplied")
    u = [float(x) for x in u]  # float ** is the libm pow of the kernel's np.float_power
    rule = scenario.rule
    q = scenario.portfolio.q
    weights = scenario.weights
    width = row_width(scenario)
    if len(u) != width:
        raise ConfigurationError(f"a row of {len(u)} uniforms for width {width}")

    values, round1 = sim.resolve_bids(scenario, u)
    package_bids = [{} for _ in range(q)]
    global_bids = {}
    for b in scenario.brokers:
        if b.role == "local":
            package_bids[b.package_index][b.id] = round1[b.id]
        else:
            global_bids[b.id] = round1[b.id]
    qualification = run_round1(package_bids, global_bids, u[len(scenario.brokers):-1])
    update = publish_update(qualification)

    round2 = {}
    clamped = []
    qualified = (*qualification.qualified_locals, qualification.qualified_global)
    for j, broker_id in enumerate(qualified):
        cap = round1[broker_id]
        raw = sim.strategy_bid(profile[broker_id].round2, values[broker_id], cap,
                               weights[j] if j < q else None, rule, q, broker=broker_id)
        bid = raw
        if bid < 0:
            bid = type(bid)(0)
        if bid > cap:
            bid = cap
        if bid != raw:
            clamped.append(broker_id)
        round2[broker_id] = bid
    ledger = BidLedger(round1=round1, round2=round2)

    outcome = run_round2(qualification, ledger, weights, rule, u[-1])
    if clamped:
        outcome = replace(outcome, diagnostics={
            **outcome.diagnostics, "clamped_round2_bids": tuple(sorted(clamped))})

    pf = scenario.portfolio
    payoffs = dict.fromkeys((b.id for b in scenario.brokers), 0)
    if outcome.winner == "coalition":
        for j, broker_id in enumerate(qualification.qualified_locals):
            payoffs[broker_id] = pf.package_values[j] * (outcome.fees[j] - values[broker_id])
    else:
        g = qualification.qualified_global
        payoffs[g] = pf.total_value * (outcome.global_payment - values[g])
    return AuctionTranscript(
        qualification=qualification,
        update=update,
        ledger=ledger,
        outcome=outcome,
        rule=rule,
        rng_seed=None,
        payoffs=payoffs,
    )


def run_auction(scenario, seed=None, replication=0) -> AuctionTranscript:
    """Run both rounds of one auction instance from a scenario: row
    `replication` of the seed's row stream, so the transcript is that
    replication of simulate(scenario, seed=seed).

    seed defaults to the scenario's own; the scenario's rule is both the
    pricing rule and the rule equilibrium bids shade under.
    """
    width = row_width(scenario)
    if not 0 <= replication < PERIOD // width:  # a later row would repeat an earlier one
        raise ConfigurationError(f"replication {replication} is outside [0, 2**258 // {width})")
    rng_seed = scenario.seed if seed is None else seed
    u = rows(rng_seed, replication, 1, width)[0]
    return replace(settle_row(scenario, u), rng_seed=rng_seed)


def _jsonable(x):
    if isinstance(x, Fraction):
        return float(x)
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def transcript_dict(t: AuctionTranscript) -> dict:
    """The transcript as JSON values, each field under its own name."""
    return _jsonable(t)
