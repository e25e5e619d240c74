"""Equilibrium bidding machinery for the second round.

The pivotal window of a local bidder runs from the coalition's weighted
total up to the bidder's own bid: the coalition wins and the bidder is
pivotal exactly when the global's value lands inside it. H is that window's
probability under the global-value distribution, h the density at the
coalition total, and sigma = H/h scales the equilibrium bid shading.

Closed-form equilibrium bids:

  NVCG            phi = alpha - sigma * w * (q - 1)
  D-NVCG, prudent phi = alpha - sigma * w * (ell / W_down + (q - 1))

with ell the number of round-1 overbidders and W_down the prudent set's
total weight; overbidders shade like NVCG, and a valuation at or below
the shading bids zero.
With perfectly correlated locals the interior optimum is truthful
(phi* = alpha): the window collapses, sigma -> 0, and
solve_symmetric_equilibrium reports that fixed point in closed form.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import WeightVector
from .pricing import check_rule


@dataclass(frozen=True)
class ValueDistribution:
    """Global-value (or local-signal) distribution.

    kinds:
      power-law  F(v) = (v / upper)^shape on [0, upper], shape > 1
      uniform    on [lower, upper]
      empirical  rank CDF over a sample; density by central difference
                 with bandwidth range/sqrt(N)
    """

    kind: str
    upper: Optional[float] = None
    shape: Optional[float] = None
    lower: float = 0.0
    sample: Optional[tuple] = None
    # (lowest, highest) value; set once by __post_init__, as cdf and pdf
    # read it on every call.
    support: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "power-law":
            if self.upper is None or self.upper <= 0:
                raise ValueError("power-law needs upper > 0")
            if self.shape is None or self.shape <= 1:
                raise ValueError("power-law needs shape > 1")
            support = (0.0, self.upper)
        elif self.kind == "uniform":
            if self.upper is None or self.upper <= self.lower:
                raise ValueError("uniform needs upper > lower")
            support = (self.lower, self.upper)
        elif self.kind == "empirical":
            if not self.sample:
                raise ValueError("empirical needs a nonempty sample")
            object.__setattr__(self, "sample", tuple(sorted(float(x) for x in self.sample)))
            support = (self.sample[0], self.sample[-1])
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "support", support)

    @classmethod
    def power_law(cls, upper, shape):
        return cls(kind="power-law", upper=upper, shape=shape)

    @classmethod
    def uniform(cls, lower, upper):
        return cls(kind="uniform", lower=lower, upper=upper)

    @classmethod
    def empirical(cls, sample):
        return cls(kind="empirical", sample=tuple(sample))

    def scaled(self, factor) -> "ValueDistribution":
        """The distribution of factor * X (unit changes, e.g. fraction<->bps)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        f = float(factor)
        if self.kind == "power-law":
            return ValueDistribution.power_law(upper=self.upper * f, shape=self.shape)
        if self.kind == "uniform":
            return ValueDistribution.uniform(lower=self.lower * f, upper=self.upper * f)
        return ValueDistribution.empirical(tuple(x * f for x in self.sample))

    def cdf(self, x):
        lo, hi = self.support
        if x <= lo:
            return 0.0
        if x >= hi:
            return 1.0
        if self.kind == "power-law":
            return (x / self.upper) ** self.shape
        if self.kind == "uniform":
            return (x - self.lower) / (self.upper - self.lower)
        return bisect.bisect_right(self.sample, x) / len(self.sample)

    def pdf(self, x):
        lo, hi = self.support
        if self.kind == "power-law":
            if x < lo or x > hi:
                return 0.0
            return self.shape * x ** (self.shape - 1) / self.upper**self.shape
        if self.kind == "uniform":
            if x < lo or x > hi:
                return 0.0
            return 1.0 / (self.upper - self.lower)
        # Empirical: central-difference density at the documented bandwidth.
        bw = (hi - lo) / math.sqrt(len(self.sample))
        if bw <= 0:
            return 0.0
        return (self.cdf(x + bw / 2) - self.cdf(x - bw / 2)) / bw

    def quantile(self, u):
        """Inverse CDF; u in [0, 1]. Counter-friendly way to draw values."""
        if self.kind == "power-law":
            return self.upper * u ** (1.0 / self.shape)
        if self.kind == "uniform":
            return self.lower + u * (self.upper - self.lower)
        n = len(self.sample)
        return self.sample[min(int(u * n), n - 1)]

    def quantiles(self, u):
        """quantile over an array of uniforms, bit for bit: np.float_power
        calls libm pow per element, as float ** does; np.power and np.sqrt
        round differently (on about 6% and 0.09% of draws)."""
        if self.kind == "power-law":
            return float(self.upper) * np.float_power(u, 1.0 / self.shape)
        if self.kind == "uniform":
            return float(self.lower) + u * float(self.upper - self.lower)
        sample = np.asarray(self.sample)
        return sample[np.minimum((u * len(sample)).astype(np.intp), len(sample) - 1)]


@dataclass(frozen=True)
class HazardPoint:
    """Win probability H over the pivotal window, its density h, and
    sigma = H/h. clamped marks evaluations outside the support."""

    H: float
    h: float
    sigma: float
    clamped: bool = False


def hazard_point(dist: ValueDistribution, own_bid, own_weight, others_weighted_sum) -> HazardPoint:
    """Evaluate the pivotal window [coalition total, own bid]."""
    total = own_weight * own_bid + others_weighted_sum
    lo, hi = dist.support
    clamped = not (lo <= own_bid <= hi and lo <= total <= hi)
    H = dist.cdf(own_bid) - dist.cdf(total)
    if H < 0.0:
        H = 0.0
        clamped = True
    h = dist.pdf(total)
    if h > 0:
        sigma = H / h
    else:
        sigma = 0.0 if H == 0 else math.inf
    return HazardPoint(H=H, h=h, sigma=sigma, clamped=clamped)


def equilibrium_shading(rule, sigma, weight, q, in_qdown=False, ell=0, sum_w_qdown=None):
    """alpha - phi, the shading of the closed-form bid at any valuation
    alpha > 0. It does not depend on alpha, so the bid is an offset bid:
    alpha minus the shading, floored at zero (batch.bid_rule). VCG shades
    as NVCG: only a prudent local under dnvcg shades differently."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if weight <= 0:
        raise ValueError("weight must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    check_rule(rule)
    if rule == "dnvcg" and in_qdown:
        if not sum_w_qdown or sum_w_qdown <= 0:
            raise ValueError("prudent-set weight must be positive")
        return sigma * weight * (ell / sum_w_qdown + (q - 1))
    return sigma * weight * (q - 1)


def equilibrium_bid(rule, alpha, sigma, weight, q, in_qdown=False, ell=0, sum_w_qdown=None):
    """Closed-form round-2 bid of a local, floored at zero as
    sim.strategy_bid floors it; the engines bid it via batch.bid_rule."""
    raw = alpha - equilibrium_shading(rule, sigma, weight, q, in_qdown, ell, sum_w_qdown)
    return raw if raw > 0 else type(raw)(0)


def optimality_residual(
    rule,
    phi,
    alpha,
    own_weight,
    others_weighted_sum,
    dist: ValueDistribution,
    q,
    ell=0,
    sum_w_qdown=None,
    in_qdown=False,
):
    """LHS - RHS of the first-order optimality condition at the bid phi.

    (alpha - phi) f(total) - coef [F(phi) - F(total)], total the coalition's
    weighted sum at phi and coef the closed-form bid's shading at sigma = 1;
    zero at an interior optimum, positive below it.
    """
    coef = equilibrium_shading(rule, 1, own_weight, q, in_qdown=in_qdown, ell=ell,
                               sum_w_qdown=sum_w_qdown)
    total = own_weight * phi + others_weighted_sum
    return (alpha - phi) * dist.pdf(total) - coef * (dist.cdf(phi) - dist.cdf(total))


@dataclass(frozen=True)
class EquilibriumSolution:
    """The symmetric bid and its first-order residual. The bid is in
    closed form, so converged is always True and iterations always 0."""

    bid: float
    residual: float
    at_boundary: bool
    converged: bool = True
    iterations: int = 0


def solve_symmetric_equilibrium(dist: ValueDistribution, alpha, weights: Sequence
                                ) -> EquilibriumSolution:
    """Symmetric-equilibrium bid under perfectly correlated local values.

    When every local bids the common valuation alpha and the weights sum
    to 1, the coalition's weighted total equals each local's own bid: the
    pivotal window is empty and the first-order condition holds, so the
    truthful profile is the fixed point under any value distribution. The
    bid is alpha, capped at the top of the support (at_boundary), and zero
    for alpha <= 0. residual is the NVCG first-order residual of the first
    broker at the symmetric profile. The weights must form a
    model.WeightVector: nonempty, each in (0, 1], summing to 1.
    """
    w = WeightVector(tuple(float(x) for x in weights)).weights
    if alpha <= 0:
        return EquilibriumSolution(bid=0.0, residual=0.0, at_boundary=False)
    bid = float(min(alpha, dist.support[1]))
    others = sum(wj * bid for wj in w[1:])
    residual = optimality_residual("nvcg", bid, alpha, w[0], others, dist, len(w))
    return EquilibriumSolution(bid=bid, residual=residual, at_boundary=bid < alpha)
