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

These rules require a strict coalition win; exact allocation ties are the
mechanism layer's job and are rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import WeightVector

RULES = ("vcg", "nvcg", "dnvcg")

FRONTIER_TOL = 1e-9


class AllocationError(ValueError):
    """The bids do not describe a strict coalition win."""


def _weights(w) -> tuple:
    return tuple(w.weights) if isinstance(w, WeightVector) else tuple(w)


def weighted_total(bids2: Sequence, weights) -> object:
    """The coalition's aggregate round-2 bid, sum_i w_i * phi2_i."""
    w = _weights(weights)
    if len(w) != len(bids2):
        raise ValueError(f"{len(bids2)} bids for {len(w)} weights")
    return sum(wi * bi for wi, bi in zip(w, bids2))


def coalition_wins(bids2: Sequence, weights, global_bid) -> bool:
    """True when the locals strictly underbid the global in aggregate."""
    return weighted_total(bids2, weights) < global_bid


def _require_coalition_win(bids2, w, global_bid):
    total = sum(wi * bi for wi, bi in zip(w, bids2))
    if not total < global_bid:
        raise AllocationError(
            f"rule undefined: coalition total {total} does not strictly "
            f"undercut the global bid {global_bid}"
        )


def vcg_fees(bids2: Sequence, weights, global_bid) -> tuple:
    """Per-local VCG fee; independent of the broker's own bid."""
    w = _weights(weights)
    if len(w) != len(bids2):
        raise ValueError(f"{len(bids2)} bids for {len(w)} weights")
    total = sum(wi * bi for wi, bi in zip(w, bids2))
    fees = []
    for wi, bi in zip(w, bids2):
        raw = (global_bid - (total - wi * bi)) / wi
        fees.append(raw if raw > 0 else 0 * raw)
    return tuple(fees)


@dataclass(frozen=True)
class CoreIntervals:
    """Admissible fee ranges: [own bid, VCG fee] per local and, for the
    seller's total payment, [coalition total, global bid]."""

    local_intervals: tuple
    global_interval: tuple


def core_intervals(bids2: Sequence, weights, global_bid) -> CoreIntervals:
    w = _weights(weights)
    cv = vcg_fees(bids2, w, global_bid)
    total = sum(wi * bi for wi, bi in zip(w, bids2))
    return CoreIntervals(
        local_intervals=tuple((b, c) for b, c in zip(bids2, cv)),
        global_interval=(total, global_bid),
    )


def nvcg_fees(bids2: Sequence, weights, global_bid) -> tuple:
    """Frontier point nearest the VCG fees: uniform downward correction D."""
    w = _weights(weights)
    _require_coalition_win(bids2, w, global_bid)
    cv = vcg_fees(bids2, w, global_bid)
    delta = sum(wi * ci for wi, ci in zip(w, cv)) - global_bid
    return tuple(ci - delta for ci in cv)


@dataclass(frozen=True)
class DnvcgFees:
    """D-NVCG outcome plus its round-1 decomposition.

    deviations holds the unweighted overbid (phi1 - cv) for overbidders and
    zero elsewhere; bonus is the per-member increment paid to the prudent
    set. fell_back is set when every local overbid in round 1 (empty
    prudent set): the bonus denominator vanishes, so the plain NVCG fees
    are returned to keep the frontier identity intact.
    """

    fees: tuple
    q_up: tuple
    q_down: tuple
    deviations: tuple
    bonus: object
    fell_back: bool = False


def dnvcg_fees(bids1: Sequence, bids2: Sequence, weights, global_bid) -> DnvcgFees:
    """Two-round variant of nvcg_fees keyed to the round-1 reference bids."""
    w = _weights(weights)
    if len(bids1) != len(bids2):
        raise ValueError(f"{len(bids1)} round-1 bids for {len(bids2)} round-2 bids")
    _require_coalition_win(bids2, w, global_bid)
    cv = vcg_fees(bids2, w, global_bid)
    delta = sum(wi * ci for wi, ci in zip(w, cv)) - global_bid
    base = [ci - delta for ci in cv]

    q_up = tuple(j for j, (b1, c) in enumerate(zip(bids1, cv)) if b1 > c)
    q_down = tuple(i for i in range(len(cv)) if i not in q_up)

    if not q_down:
        return DnvcgFees(
            fees=tuple(base),
            q_up=q_up,
            q_down=q_down,
            deviations=tuple(0 * c for c in cv),
            bonus=0,
            fell_back=True,
        )

    deviations = tuple(bids1[j] - cv[j] if j in q_up else 0 * cv[j] for j in range(len(cv)))
    pooled = sum(w[j] * deviations[j] for j in q_up)
    bonus = pooled / sum(w[i] for i in q_down) if q_up else 0

    fees = []
    for j in range(len(cv)):
        if j in q_up:
            fees.append(base[j] - deviations[j])
        else:
            fees.append(base[j] + bonus)
    return DnvcgFees(
        fees=tuple(fees),
        q_up=q_up,
        q_down=q_down,
        deviations=deviations,
        bonus=bonus,
    )


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


def validate_core_point(fees: Sequence, bids2: Sequence, weights, global_bid) -> CoreReport:
    """Check a proposed coalition fee vector against the core constraints."""
    w = _weights(weights)
    if not (len(fees) == len(bids2) == len(w)):
        raise ValueError("fees, bids, and weights must have equal length")
    cv = vcg_fees(bids2, w, global_bid)
    paid = sum(wi * ci for wi, ci in zip(w, fees))
    gap = paid - global_bid
    return CoreReport(
        individually_rational=tuple(c >= b for c, b in zip(fees, bids2)),
        below_vcg_cap=tuple(c <= v for c, v in zip(fees, cv)),
        seller_bound_ok=paid <= global_bid,
        frontier_gap=gap,
        on_frontier=abs(gap) <= FRONTIER_TOL,
    )


def _fee_of(rule: str, broker: int, bids1, bids2, weights, global_bid):
    if rule == "nvcg":
        return nvcg_fees(bids2, weights, global_bid)[broker], None
    if rule == "dnvcg":
        out = dnvcg_fees(bids1, bids2, weights, global_bid)
        return out.fees[broker], out.q_up
    raise ValueError(f"unknown rule {rule!r}")


def marginal_fee(rule: str, broker: int, bids1, bids2, weights, global_bid, step):
    """Central-difference derivative of a broker's fee in their own round-2 bid.

    The step must keep the winner and, for D-NVCG, the overbidder/prudent
    partition unchanged at both evaluation points; otherwise the derivative
    straddles a kink and the call is rejected.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    w = _weights(weights)
    bids2 = list(bids2)
    evals = []
    partitions = []
    for shift in (step, -step):
        shifted = list(bids2)
        shifted[broker] = bids2[broker] + shift
        if shifted[broker] < 0:
            raise ValueError("step drives the bid negative")
        if not coalition_wins(shifted, w, global_bid):
            raise ValueError("step flips the winner; use a smaller step")
        fee, q_up = _fee_of(rule, broker, bids1, shifted, w, global_bid)
        evals.append(fee)
        partitions.append(q_up)
    if rule == "dnvcg" and partitions[0] != partitions[1]:
        raise ValueError("step flips the round-1 partition; use a smaller step")
    return (evals[0] - evals[1]) / (2 * step)
