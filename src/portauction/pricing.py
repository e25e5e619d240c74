"""Core-selecting payment rules for the local-global package auction.

Given the qualified locals' round-2 bids phi2, their package weights w
(summing to 1), and the global's round-2 bid g, the coalition wins when
sum_i w_i * phi2_i < g. Upon a coalition win the rules apportion fees:

  VCG        cv_i = max{0, (g - sum_{j!=i} w_j phi2_j) / w_i}
  NVCG       c_i  = cv_i - D,            D = sum_j w_j cv_j - g
  D-NVCG     split locals by the round-1 reference: overbidders
             (phi1_i > cv_i) are docked their own deviation, prudent
             bidders share the weighted deviations as a bonus:
               c_i = (cv_i - D) - (phi1_i - cv_i)                 overbidders
               c_i = (cv_i - D) + sum_up w_j (phi1_j - cv_j) / W  prudent, with
             W the prudent set's total weight.

Both NVCG and D-NVCG keep the weighted fee total exactly at g, the
bidder-optimal frontier. All functions are pure, unit-agnostic (any
consistent fee unit works), and exact when fed Fractions.

The rules form one chain, and price walks it once per coalition win: the
VCG fees, D, the rule's fees, D-NVCG's round-1 decomposition and the core
report all come from one vcg_fees call, returned as one Pricing.
nvcg_fees and dnvcg_fees are views of it.

These rules require a strict coalition win; exact allocation ties are the
mechanism layer's job and are rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import ConfigurationError

RULES = ("vcg", "nvcg", "dnvcg")

FRONTIER_TOL = 1e-9


def check_rule(rule):
    """The one check that rule names a payment rule: every engine and
    entry point calls it before pricing or bidding under rule."""
    if rule not in RULES:
        raise ConfigurationError(f"unknown pricing rule {rule!r}")


class AllocationError(ValueError):
    """The bids do not describe a strict coalition win."""


def weighted_total(bids2: Sequence, weights) -> object:
    """The coalition's aggregate round-2 bid, sum_i w_i * phi2_i."""
    w = tuple(weights)
    if len(w) != len(bids2):
        raise ValueError(f"{len(bids2)} bids for {len(w)} weights")
    return sum(wi * bi for wi, bi in zip(w, bids2))


def vcg_fees(bids2: Sequence, weights, global_bid) -> tuple:
    """Per-local VCG fee; independent of the broker's own bid."""
    w = tuple(weights)
    total = weighted_total(bids2, w)
    fees = []
    for wi, bi in zip(w, bids2):
        raw = (global_bid - (total - wi * bi)) / wi
        fees.append(raw if raw > 0 else 0 * raw)
    return tuple(fees)


@dataclass(frozen=True)
class CoreReport:
    """Outcome of checking a fee vector against the core constraints.

    A vector violating individual rationality, a VCG cap, or the seller
    bound is blocked; frontier membership additionally requires the
    weighted total to hit the global bid (within FRONTIER_TOL).
    """

    individually_rational: tuple
    below_vcg_cap: tuple
    seller_bound_ok: bool
    frontier_gap: object
    on_frontier: bool

    @property
    def in_core(self) -> bool:
        return (
            all(self.individually_rational)
            and all(self.below_vcg_cap)
            and self.seller_bound_ok
        )

    @property
    def blocked(self) -> bool:
        return not self.in_core

    def violations(self) -> tuple:
        out = []
        for i, ok in enumerate(self.individually_rational):
            if not ok:
                out.append(f"fee {i} below the broker's round-2 bid")
        for i, ok in enumerate(self.below_vcg_cap):
            if not ok:
                out.append(f"fee {i} above the broker's VCG cap")
        if not self.seller_bound_ok:
            out.append("weighted fee total above the global bid")
        return tuple(out)


def _core_report(fees, bids2, w, global_bid, cv) -> CoreReport:
    paid = sum(wi * ci for wi, ci in zip(w, fees))
    gap = paid - global_bid
    return CoreReport(
        individually_rational=tuple(c >= b for c, b in zip(fees, bids2)),
        below_vcg_cap=tuple(c <= v for c, v in zip(fees, cv)),
        seller_bound_ok=paid <= global_bid,
        frontier_gap=gap,
        on_frontier=abs(gap) <= FRONTIER_TOL,
    )


def validate_core_point(fees: Sequence, bids2: Sequence, weights, global_bid) -> CoreReport:
    """Check a proposed coalition fee vector against the core constraints."""
    w = tuple(weights)
    if not (len(fees) == len(bids2) == len(w)):
        raise ValueError("fees, bids, and weights must have equal length")
    return _core_report(fees, bids2, w, global_bid, vcg_fees(bids2, w, global_bid))


@dataclass(frozen=True)
class Pricing:
    """One coalition win priced under one rule.

    vcg_fees and delta (D) are the chain's shared steps. For D-NVCG, q_up
    holds the overbidders (phi1 > cv) and q_down the prudent set;
    deviations holds the unweighted overbid (phi1 - cv) for overbidders and
    zero elsewhere; bonus is the per-member increment paid to the prudent
    set. fell_back is set when every local overbid in round 1 (empty
    prudent set): the bonus denominator vanishes, so the plain NVCG fees
    are returned to keep the frontier identity intact. Under VCG and NVCG
    nobody is an overbidder. core checks fees against the same VCG fees.
    """

    fees: tuple
    vcg_fees: tuple
    delta: object
    q_up: tuple
    q_down: tuple
    deviations: tuple
    bonus: object
    fell_back: bool
    core: CoreReport


def price(rule: str, bids1, bids2: Sequence, weights, global_bid) -> Pricing:
    """Price a strict coalition win under rule in one pass. bids1, the
    round-1 reference bids, is read only by dnvcg."""
    check_rule(rule)
    w = tuple(weights)
    total = weighted_total(bids2, w)
    if not total < global_bid:
        raise AllocationError(
            f"rule undefined: coalition total {total} does not strictly "
            f"undercut the global bid {global_bid}"
        )
    cv = vcg_fees(bids2, w, global_bid)
    delta = sum(wi * ci for wi, ci in zip(w, cv)) - global_bid
    fees = cv if rule == "vcg" else tuple(ci - delta for ci in cv)
    q_up, q_down = (), tuple(range(len(cv)))
    deviations, bonus = tuple(0 * b for b in bids2), 0
    if rule == "dnvcg":
        if len(bids1) != len(bids2):
            raise ValueError(f"{len(bids1)} round-1 bids for {len(bids2)} round-2 bids")
        q_up = tuple(j for j, (b1, c) in enumerate(zip(bids1, cv)) if b1 > c)
        q_down = tuple(i for i in q_down if i not in q_up)
        deviations = tuple(
            bids1[j] - c if j in q_up and q_down else 0 * c for j, c in enumerate(cv))
        if q_down:
            if q_up:
                bonus = sum(w[j] * deviations[j] for j in q_up) / sum(w[i] for i in q_down)
            fees = tuple(f - d if j in q_up else f + bonus
                         for j, (f, d) in enumerate(zip(fees, deviations)))
    return Pricing(
        fees=fees,
        vcg_fees=cv,
        delta=delta,
        q_up=q_up,
        q_down=q_down,
        deviations=deviations,
        bonus=bonus,
        fell_back=not q_down,
        core=_core_report(fees, bids2, w, global_bid, cv),
    )


def nvcg_fees(bids2: Sequence, weights, global_bid) -> tuple:
    """Frontier point nearest the VCG fees: uniform downward correction D."""
    return price("nvcg", None, bids2, weights, global_bid).fees


def dnvcg_fees(bids1: Sequence, bids2: Sequence, weights, global_bid) -> Pricing:
    """Two-round variant of nvcg_fees keyed to the round-1 reference bids."""
    return price("dnvcg", bids1, bids2, weights, global_bid)


def marginal_fee(rule: str, broker: int, bids1, bids2, weights, global_bid, step):
    """Central-difference derivative of a broker's fee in their own round-2 bid,
    under nvcg or dnvcg.

    The step must keep the winner and, for D-NVCG, the overbidder/prudent
    partition unchanged at both evaluation points; otherwise the derivative
    straddles a kink and the call is rejected.
    """
    if rule not in ("nvcg", "dnvcg"):
        raise ValueError(f"marginal_fee takes nvcg or dnvcg, not {rule!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    bids2 = list(bids2)
    evals = []
    for shift in (step, -step):
        shifted = list(bids2)
        shifted[broker] = bids2[broker] + shift
        if shifted[broker] < 0:
            raise ValueError("step drives the bid negative")
        try:
            evals.append(price(rule, bids1, shifted, weights, global_bid))
        except AllocationError:
            raise ValueError("step flips the winner; use a smaller step") from None
    if evals[0].q_up != evals[1].q_up:
        raise ValueError("step flips the round-1 partition; use a smaller step")
    return (evals[0].fees[broker] - evals[1].fees[broker]) / (2 * step)
