"""Monte Carlo harness: strategies, replicated auctions, dominance checks.

Replication k draws its randomness from row k of a counter-based Philox
stream keyed by the seed, an int (batch.check_seed), so results do not
depend on the replication count (beyond k) or on how work would be
partitioned across workers, and two profiles simulated with the same seed
share their random inputs (common random numbers). Consecutive calls on
the same rows and strategies that differ only in a rule no bid reads,
such as simulate under vcg, nvcg and dnvcg on one seed and n, also share
the work before the pricing rule: batch.Kernel.chunks keeps the last
call's first chunk settled up to the rule and prices only the new rule's
tail there.
mechanism.settle_row settles any one row with the exact scalar rules
(resolve_bids and strategy_bid here, which evaluate batch.bid_rule's
three rules as the kernel does); run_auction settles row k, drawn by
batch.rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import batch
from .batch import ExactSum, bid_rule
from .equilibrium import equilibrium_bid  # noqa: F401 (uncalled; bench/tracer.py binds it here)
from .model import ConfigurationError

ROUND1_KINDS = ("constant", "truthful", "offset", "equilibrium")
ROUND2_KINDS = ROUND1_KINDS + ("capped-value",)


@dataclass(frozen=True)
class Strategy:
    """One broker's bid rule for one round.

    constant      bid = value, at least zero
    truthful      bid = valuation (floored at zero): offset 0
    offset        bid = valuation + offset (floored at zero)
    equilibrium   closed-form shaded bid (sigma, membership flags supplied):
                  offset minus the shading under the rule
    capped-value  bid = min(round-1 bid, valuation); round 2 only
    """

    kind: str
    value: object = None
    offset: object = 0
    sigma: object = 0.0
    in_qdown: bool = False
    ell: int = 0
    sum_w_qdown: object = None

    def __post_init__(self):
        if self.kind not in ROUND2_KINDS:
            raise ConfigurationError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "constant" and self.value is None:
            raise ConfigurationError("constant strategy needs a value")
        for field in ("value", "offset", "sigma", "sum_w_qdown"):
            x = getattr(self, field)
            if x is None and field in ("value", "sum_w_qdown"):
                continue  # not given
            if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                           and -math.inf < x < math.inf):
                raise ConfigurationError(
                    f"a strategy's {field} must be finite and real (not a bool), got {x!r}")
        if isinstance(self.ell, bool) or not (isinstance(self.ell, int) and self.ell >= 0):
            raise ConfigurationError(
                f"a strategy's ell must be a whole number at least 0 (not a bool), "
                f"got {self.ell!r}")
        if not isinstance(self.in_qdown, bool):
            raise ConfigurationError(f"a strategy's in_qdown must be a bool, got {self.in_qdown!r}")
        if self.kind == "constant" and self.value < 0:
            raise ConfigurationError(f"a constant bid is a fee, got {self.value} < 0")


@dataclass(frozen=True)
class BrokerStrategy:
    round1: Strategy
    round2: Strategy

    def __post_init__(self):
        if self.round1.kind == "capped-value":
            raise ConfigurationError("capped-value is a round-2 strategy")


@dataclass(frozen=True)
class StrategyProfile:
    """Per-broker strategies, keyed by broker id, in a read-only mapping: a
    loaded profile is shared (scenario.loads_scenario)."""

    brokers: Mapping

    def __post_init__(self):
        object.__setattr__(self, "brokers", MappingProxyType(dict(self.brokers)))

    def __getitem__(self, broker_id) -> BrokerStrategy:
        """The broker's strategy: the one lookup every engine makes."""
        try:
            return self.brokers[broker_id]
        except KeyError:
            raise ConfigurationError(f"no strategy for broker {broker_id!r}") from None

    def with_strategy(self, broker_id, round1=None, round2=None) -> "StrategyProfile":
        """Copy of the profile with one broker's strategy replaced."""
        current = self[broker_id]
        updated = BrokerStrategy(
            round1=round1 if round1 is not None else current.round1,
            round2=round2 if round2 is not None else current.round2,
        )
        out = dict(self.brokers)
        out[broker_id] = updated
        return StrategyProfile(out)


def strategy_bid(strategy: Strategy, valuation, round1_bid, weight, rule, q, *, broker):
    """The broker's bid under a strategy at its valuation: batch.bid_rule's
    rule evaluated exactly, a floored bid being +0 of the raw bid's type.
    round1_bid is the round-2 cap (None in round 1) and weight the local's
    package weight (None for a global)."""
    kind, param = bid_rule(broker, strategy, rule, weight, q)
    if kind == "constant":
        return param
    if kind == "capped-value":
        return min(round1_bid, valuation)  # the global's dominant round-2 bid
    raw = valuation + param
    return raw if raw > 0 else type(raw)(0)


def resolve_bids(scenario, u):
    """(valuations, round-1 bids) by broker id for one row u of uniforms
    in the batch.row_width layout under the scenario's strategies, as the
    batch kernel maps a row: column k is the k-th broker with the locals
    first (batch.Kernel.ids), and column 0 every local's when
    correlated_locals. A broker's fixed valuation is kept when its role
    has no distribution."""
    rule, q, weights = scenario.rule, scenario.portfolio.q, scenario.weights
    dists, correlated = scenario.distributions, scenario.correlated_locals
    in_ids_order = sorted(scenario.brokers, key=lambda b: b.role == "global")
    column = {b.id: k for k, b in enumerate(in_ids_order)}
    values, round1 = {}, {}
    for b in scenario.brokers:
        local = b.role == "local"
        dist = dists.get(b.role)
        col = 0 if local and correlated else column[b.id]
        values[b.id] = b.valuation if dist is None else dist.quantile(u[col])
        round1[b.id] = strategy_bid(scenario.strategies[b.id].round1, values[b.id], None,
                                    weights[b.package_index] if local else None, rule, q,
                                    broker=b.id)
    return values, round1


@dataclass(frozen=True)
class SimMetrics:
    replications: int
    coalition_win_rate: float
    mean_seller_cost: float
    mean_broker_payoff: dict
    core_violation_count: int
    frontier_gap_max: float
    clamped_round2_count: int
    seed: int


def simulate(scenario, n=None, seed=None):
    """Run n independent auctions of the scenario under its strategies and
    aggregate the outcomes.

    Deterministic for fixed (scenario, n, seed); the seed defaults to the
    scenario's, and SimMetrics' n and seed are batch.check_count's and
    batch.check_seed's ints. The scenario's batch kernel (batch.kernel,
    built once per layout in a process, each round compiled once) settles
    the replications in chunks. One ExactSum takes each chunk's seller costs and payoffs
    together and keeps each stream's exact terms, a few a chunk; one
    math.fsum of a stream's terms equals math.fsum over every replication,
    so neither the chunking nor the aggregation route can change results.
    """
    if scenario.strategies is None:
        raise ConfigurationError("no strategy profile supplied")
    n = batch.check_count(n if n is not None else scenario.replications)
    seed = batch.check_seed(seed if seed is not None else scenario.seed)

    kernel = batch.kernel(scenario)
    wins = violations = clamped = 0
    gaps_max = 0.0
    sums = ExactSum(1 + len(kernel.ids))  # seller cost, then each payoff

    for (b,) in kernel.chunks([scenario.strategies], n, seed, scenario.rule):
        wins += int(np.count_nonzero(b.won))
        violations += int(np.count_nonzero(b.violations))
        clamped += b.clamped
        if b.won.any():
            gaps_max = max(gaps_max, float(np.abs(b.gap[b.won]).max()))
        sums.add([b.seller_cost, *b.payoffs])
    cost_sum, *payoff_sums = sums.totals()

    return SimMetrics(
        replications=n,
        coalition_win_rate=wins / n,
        mean_seller_cost=cost_sum / n,
        mean_broker_payoff={bid: s / n for bid, s in zip(kernel.ids, payoff_sums)},
        core_violation_count=violations,
        frontier_gap_max=gaps_max,
        clamped_round2_count=clamped,
        seed=seed,
    )


@dataclass(frozen=True)
class DominanceReport:
    """Paired comparison of one broker's payoff under two profiles."""

    broker_id: str
    replications: int
    mean_baseline: float
    mean_deviation: float
    mean_difference: float  # deviation minus baseline
    paired_se: float

    @property
    def improves_significantly(self) -> bool:
        return self.mean_difference > 3 * self.paired_se


def _differing_broker(baseline: StrategyProfile, deviation: StrategyProfile) -> str:
    if set(baseline.brokers) != set(deviation.brokers):
        raise ConfigurationError("profiles must cover the same brokers")
    # Identity first: a deviation shares every other broker's object.
    diff = [b for b, s in baseline.brokers.items()
            if s is not deviation.brokers[b] and s != deviation.brokers[b]]
    if len(diff) > 1:
        raise ConfigurationError(
            f"profiles must differ for at most one broker, found {len(diff)}"
        )
    # identical profiles are allowed: the paired difference is exactly zero
    return diff[0] if diff else sorted(baseline.brokers)[0]


def compare_strategies(scenario, baseline, deviation, n, seed) -> DominanceReport:
    """Common-random-numbers payoff comparison for a unilateral deviation:
    both profiles settle the same rows through Kernel.chunks, on the
    scenario's batch.kernel, which compiles each round once. The
    paired differences are kept, one float per pair, for the variance."""
    n = batch.check_count(n)
    broker = _differing_broker(baseline, deviation)
    kernel = batch.kernel(scenario)
    col = kernel.ids.index(broker)

    sums = ExactSum(3)  # baseline, deviation, difference
    diffs = []
    for b, d in kernel.chunks([baseline, deviation], n, seed, scenario.rule):
        base, dev = b.payoffs[col], d.payoffs[col]
        diffs.append(dev - base)
        sums.add([base, dev, diffs[-1]])
    base_sum, dev_sum, diff_sum = sums.totals()

    mean_diff = diff_sum / n
    se = 0.0
    if n > 1:
        # Squares of deviations from 2**512 up leave the float range, so
        # from 2**500 up the deviations are scaled by a power of two before
        # squaring and the SE is scaled back.
        peak = max(max(float(d.max()) - mean_diff, mean_diff - float(d.min())) for d in diffs)
        scale = 2.0 ** -math.frexp(peak)[1] if peak >= 2.0 ** 500 else 1.0
        squares = ExactSum(1)
        for d in diffs:
            squares.add([np.square((d - mean_diff) * scale)])
        (squares_sum,) = squares.totals()
        se = math.sqrt(squares_sum / (n - 1) / n) / scale
    return DominanceReport(
        broker_id=broker,
        replications=n,
        mean_baseline=base_sum / n,
        mean_deviation=dev_sum / n,
        mean_difference=mean_diff,
        paired_se=se,
    )
