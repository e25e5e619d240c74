"""The batch kernel behind simulate and compare_strategies.

Kernel settles a chunk of replications at once, one row per replication
and every stage column-wise: value draws, round-1 bids and qualification,
round-2 bids, the allocation test, the payment rule, the core check and
the payoffs. mechanism.settle_row settles one row alone with the exact
scalar rules and is the oracle for this kernel: the two agree on every
winner, exactly on float inputs, and within 1e-12 where a Fraction
constant stays exact in the scalar rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import equilibrium_shading
from .model import ConfigurationError

# Replications are drawn and settled CHUNK rows at a time, so memory stays
# bounded whatever n is. The draws do not depend on the chunking.
CHUNK = 8192

# A seed is a Philox key: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**128


def row_width(scenario):
    """Uniforms per replication row. A row holds, in order: the locals'
    value uniforms (the first one reused when correlated_locals), the
    globals' value uniforms, q+1 round-1 tie coins (packages first, the
    whole portfolio last), then the allocation tie coin; the coins start
    at column len(scenario.brokers)."""
    return len(scenario.brokers) + scenario.portfolio.q + 2


def row_chunks(seed, n, width):
    """Replication-major uniform draws, CHUNK rows at a time: row k is
    replication k's budget, independent of n."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, n, CHUNK):
        yield gen.random((min(CHUNK, n - start), width))


def _quantiles(dist, u):
    """dist.quantile over an array of uniforms, bit for bit. Power-law
    quantiles stay on Python's float ** (C pow): numpy's power and sqrt
    round differently on a share of draws."""
    if dist.kind == "power-law":
        upper, exponent = dist.upper, 1.0 / dist.shape
        return np.array([upper * x ** exponent for x in u.ravel().tolist()]).reshape(u.shape)
    if dist.kind == "uniform":
        return float(dist.lower) + u * float(dist.upper - dist.lower)
    sample = np.asarray(dist.sample)
    return sample[np.minimum((u * len(sample)).astype(np.intp), len(sample) - 1)]


def _floor0(x):
    """max(x, 0.0) elementwise, with Python's choice of operand."""
    return np.where(0.0 > x, 0.0, x)


def _column_rule(strategy, weight, rule, q):
    """A bid rule over columns of valuations and round-1 caps."""
    kind = strategy.kind
    if kind == "constant":
        v = float(strategy.value)
        return lambda val, cap: np.full(len(val), v)
    if kind == "truthful":
        return lambda val, cap: np.where(val > 0, val, 0.0)
    if kind == "offset":
        off = float(strategy.offset)
        return lambda val, cap: _floor0(val + off)
    if kind == "capped-value":
        return lambda val, cap: np.where(val < cap, val, cap)
    shading = equilibrium_shading(
        rule if rule != "vcg" else "nvcg", strategy.sigma, weight, q,
        in_qdown=strategy.in_qdown, ell=strategy.ell, sum_w_qdown=strategy.sum_w_qdown,
    )
    return lambda val, cap: _floor0(np.where(val <= 0, 0.0, val - shading))


class ExactSum:
    """math.fsum over a stream of arrays without keeping the stream: past
    the first chunk the running sum is carried exactly, as a few floats."""

    def __init__(self):
        self._terms = []

    def add(self, values):
        if not values.any():
            return  # zeros leave an exact sum unchanged
        terms = self._terms + values.tolist()
        if self._terms:
            terms = self._exact_parts(terms)
        self._terms = terms

    @staticmethod
    def _exact_parts(terms):
        parts = []
        s = math.fsum(terms)
        while s != 0.0:
            parts.append(s)
            if not math.isfinite(s):
                break
            terms.append(-s)
            s = math.fsum(terms)
        return parts

    def total(self):
        return math.fsum(self._terms)


@dataclass
class Batch:
    """Outcomes of a chunk of replications, one row each."""

    won: np.ndarray
    seller_cost: np.ndarray
    fees: np.ndarray        # (rows, q); zeros on a global win
    gap: np.ndarray         # weighted fee total minus the global bid
    violations: np.ndarray  # coalition win outside the core
    clamped: int            # round-2 bids clamped, summed over the chunk
    g2: np.ndarray
    local_value: np.ndarray
    payoffs: list           # one array per requested broker column


class Kernel:
    """The auction over a chunk of rows, every stage column-wise.

    On float inputs equal to settling each row alone with the scalar rules:
    weighted sums accumulate column by column in package order, the same
    operations run in the same order, and floors keep Python's choice of
    operand (so a VCG fee floored from a negative raw value is -0.0).
    """

    def __init__(self, scenario):
        self.rule = scenario.rule
        self.w = tuple(float(x) for x in scenario.weights)
        self.q = len(self.w)
        pf = scenario.portfolio
        self.pkg_values = tuple(float(pf.package_value(j)) for j in range(pf.q))
        self.total_value = float(pf.total_value)

        locals_ = [b for b in scenario.brokers if b.role == "local"]
        globals_ = [b for b in scenario.brokers if b.role == "global"]
        self.L, self.G = len(locals_), len(globals_)
        self.ids = [b.id for b in locals_ + globals_]
        self.local_pkg = [b.package_index for b in locals_]
        self.fixed_vals = np.array([float(b.valuation) for b in locals_ + globals_])
        self.dist_l = scenario.distributions.get("local")
        self.dist_g = scenario.distributions.get("global")
        self.correlated = scenario.correlated_locals

        # Round-1 tie coins pick among tied brokers in id order.
        self.pkg_members = [[] for _ in range(self.q)]
        for k, j in enumerate(self.local_pkg):
            self.pkg_members[j].append(k)
        for j, members in enumerate(self.pkg_members):
            if not members:
                raise ConfigurationError(f"package {j} has no local bidder")
            members.sort(key=lambda k: self.ids[k])
        self.global_cols = sorted(range(self.L, self.L + self.G), key=lambda k: self.ids[k])
        self.width = row_width(scenario)

    def compile(self, profile):
        """Per-broker (round 1, round 2) column rules; equilibrium
        shading terms are computed, and validated, here once."""
        rules = []
        for k, bid in enumerate(self.ids):
            weight = self.w[self.local_pkg[k]] if k < self.L else None
            st = profile[bid]
            rules.append((_column_rule(st.round1, weight, self.rule, self.q),
                          _column_rule(st.round2, weight, self.rule, self.q)))
        return rules

    def _values(self, u):
        L, G = self.L, self.G
        vals = np.empty((len(u), L + G))
        vals[:] = self.fixed_vals
        if self.dist_l is not None:
            if self.correlated:
                vals[:, :L] = _quantiles(self.dist_l, u[:, :1])
            else:
                vals[:, :L] = _quantiles(self.dist_l, u[:, :L])
        if self.dist_g is not None:
            vals[:, L:] = _quantiles(self.dist_g, u[:, L:L + G])
        return vals

    @staticmethod
    def _pick(bids1, cols, coin):
        """Lowest round-1 bid among cols; on an exact tie the
        int(coin * ties)-th tied broker, in cols order."""
        if len(cols) == 1:
            return np.full(len(coin), cols[0])
        b = bids1[:, cols]
        tied = b == b.min(axis=1, keepdims=True)
        rank = (coin * tied.sum(axis=1)).astype(np.intp)
        return np.asarray(cols)[(tied.cumsum(axis=1) > rank[:, None]).argmax(axis=1)]

    def _weighted(self, x):
        """sum_j w_j x_j per row, accumulated in package order from 0.0."""
        acc = np.zeros(len(x))
        for j, wj in enumerate(self.w):
            acc += wj * x[:, j]
        return acc

    def run(self, u, rules, cols) -> Batch:
        """Settle one replication per row of u; payoffs for broker cols."""
        L, G, q = self.L, self.G, self.q
        w = np.array(self.w)
        coin = L + G

        vals = self._values(u)
        bids1 = np.column_stack([r1(vals[:, k], None) for k, (r1, _) in enumerate(rules)])

        winners = np.column_stack([self._pick(bids1, members, u[:, coin + j])
                                   for j, members in enumerate(self.pkg_members)])
        g_idx = self._pick(bids1, self.global_cols, u[:, coin + q])

        # Round 2 for the q+1 qualified brokers: floor at zero, cap at round 1.
        qualified = np.column_stack([winners, g_idx])
        rows = np.arange(len(u))[:, None]
        cap = bids1[rows, qualified]
        raw = np.column_stack([r2(vals[:, k], bids1[:, k]) for k, (_, r2) in enumerate(rules)])
        raw = raw[rows, qualified]
        floored = _floor0(raw)
        bid2 = np.where(cap < floored, cap, floored)
        clamped = int(np.count_nonzero(bid2 != raw))
        round1, bids2, g2 = cap[:, :q], bid2[:, :q], bid2[:, q]

        total = self._weighted(bids2)
        tie = total == g2
        won = np.where(tie, u[:, coin + q + 1] < 0.5, total < g2)

        # VCG fees, then the rule's fees; at an exact tie every rule pays the bids.
        raw_cv = (g2[:, None] - (total[:, None] - w * bids2)) / w
        cv = np.where(raw_cv > 0, raw_cv, 0 * raw_cv)
        if self.rule == "vcg":
            fees = cv
        else:
            fees = cv - (self._weighted(cv) - g2)[:, None]
            if self.rule == "dnvcg":
                fees = self._dnvcg(fees, cv, round1)
        fees = np.where(won[:, None], np.where(tie[:, None], bids2, fees), 0.0)

        paid = self._weighted(fees)
        seller_cost = np.where(won, paid, total)
        in_core = (fees >= bids2).all(axis=1) & (fees <= cv).all(axis=1) & (paid <= g2)

        payoffs = []
        for k in cols:
            if k < L:
                j = self.local_pkg[k]
                payoffs.append(np.where(won & (winners[:, j] == k),
                                        self.pkg_values[j] * (fees[:, j] - vals[:, k]), 0.0))
            else:
                payoffs.append(np.where(~won & (g_idx == k),
                                        self.total_value * (seller_cost - vals[:, k]), 0.0))
        return Batch(
            won=won,
            seller_cost=seller_cost,
            fees=fees,
            gap=paid - g2,
            violations=won & ~in_core,
            clamped=clamped,
            g2=g2,
            local_value=vals[:, 0],
            payoffs=payoffs,
        )

    def _dnvcg(self, base, cv, bids1):
        """D-NVCG from the NVCG fees: overbidders (round-1 bid above the VCG
        fee) are docked their overbid, the prudent share the weighted
        overbids per unit weight; with no prudent local, plain NVCG."""
        up = bids1 > cv
        dev = bids1 - cv
        # Masked-out terms add +0.0, which leaves these positive sums unchanged.
        pooled = self._weighted(np.where(up, dev, 0.0))
        w_down = self._weighted(np.where(up, 0.0, 1.0))
        prudent = ~up.all(axis=1)
        bonus = np.where(up.any(axis=1) & prudent, pooled / np.where(prudent, w_down, 1.0), 0.0)
        split = np.where(up, base - dev, base + bonus[:, None])
        return np.where(prudent[:, None], split, base)
