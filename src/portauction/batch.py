"""The batch kernel behind simulate and compare_strategies.

Kernel settles a chunk of replications at once. Its arrays are
broker-major, one column per replication, and every stage is a few numpy
operations over the chunk: value draws, round-1 bids and qualification,
round-2 bids, the allocation test, the payment rule, the core check and
the payoffs. bid_rule reduces every strategy to one of three bid rules
(constant, offset, capped-value), which both this kernel and the scalar
sim.strategy_bid evaluate. Kernel.compile groups each round's brokers by
rule, so the bids cost one operation per rule (at most three) on that
rule's slab of brokers, however many brokers there are, and
qualification settles every sealed auction in one pass. Kernel.chunks is
the one replication loop: it settles K profiles on the same rows,
drawing each chunk's valuations once (they depend on the rows alone) and
qualifying once per chunk for every group of profiles that share round 1.
simulate is its K = 1 case and compare_strategies its K = 2 case.
Kernel.head computes what no pricing rule reads (round 2, the allocation
and the VCG fees) and Kernel.tail the rule's fees, the core check and the
payoffs. Kernel.chunks keeps the heads of the last call's chunk 0 in a
memo of one entry, so a call on the same rows and compiled rounds under
another rule, as a loop over the rules on one seed makes, runs only the
tails there.

kernel(scenario) builds a scenario's Kernel once per process and layout,
as re caches compiled patterns, and each Kernel compiles each round's
strategies once (once per rule where an equilibrium bid shades). Both are
pure functions of immutable inputs, so simulate or compare_strategies
calls on one auction that vary the rule, seed, n or profile reuse them,
and a deviation in one round compiles only that round. A one-shot call
builds and compiles once, as it would without the caches.

ExactSum aggregates: one accumulator takes all of a chunk's streams at
once and keeps a few exact terms per chunk and stream, which one math.fsum
rounds at the end, so every mean equals math.fsum over the whole stream
whatever the chunking.

mechanism.settle_row settles one row alone with the exact scalar rules and
is the oracle for this kernel: the two agree on every winner, exactly on
float inputs, and within 1e-12 where a Fraction constant stays exact in
the scalar rules.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .equilibrium import equilibrium_shading
from .model import ConfigurationError
from .pricing import check_rule

# Replications are drawn and settled CHUNK rows at a time, so a chunk's
# arrays stay the same size whatever n is (compare_strategies keeps one
# float per pair besides). The draws do not depend on the chunking. Measured
# end to end (in-process simulate at n = 1e5 on the bundled scenarios under
# nvcg and dnvcg; 2 vCPUs, numpy 2.4), 8,192 beat 2,048, 4,096 and 16,384.
CHUNK = 8192

# A seed is a Philox key: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**128

# Philox4x64 steps a 256-bit counter and makes four doubles a step, so a
# seed's stream repeats after PERIOD doubles.
PERIOD = 2**258

# ExactSum sums a chunk of at least EXTRACT_MIN values (streams x rows) by
# extraction and a smaller one through math.fsum. Extraction costs a fixed
# 20-35 us a chunk and little per value; the fsum route, which keeps every
# nonzero value as a term, about 1-2 us a stream plus 40-50 ns a nonzero
# value. Timed as the best of 2,500 ExactSum(k).add and totals() calls on
# chunks of simulate's and compare_strategies' streams (2 vCPUs, Python
# 3.11, numpy 2.4), they broke even near 600-1,200 values: fsum won at 200
# values (13-20 vs 21-33 us) and 600 (19-26 vs 22-35 us), extraction won
# or tied at 800-1,200 and won clearly at 1,900-2,000 (43 vs 77 us on
# powerlaw, 70% nonzero; 57-60 vs 77-79 us on an 18-broker market, 25%
# nonzero). So chunks of 1,000-2,047 values take the slower route; moving
# the threshold is a speed change of its own. The cost is per chunk, not
# per row, so the threshold counts values, not columns.
EXTRACT_MIN = 2048

# kernel() keeps the Kernels of the KERNELS layouts used last, and each
# Kernel the PROFILES rounds it compiled last: more than a loop over one
# auction's rules and deviations, or over a few dozen exact files, cycles
# through. An entry is a few small arrays.
KERNELS = 64
PROFILES = 64


def row_width(scenario):
    """Uniforms per replication row. A row holds, in order: the locals'
    value uniforms (the first one reused when correlated_locals), the
    globals' value uniforms, q+1 round-1 tie coins (packages first, the
    whole portfolio last), then the allocation tie coin; the coins start
    at column len(scenario.brokers)."""
    return len(scenario.brokers) + scenario.portfolio.q + 2


def check_bidders(auctions):
    """Raise ConfigurationError unless each of the q+1 sealed round-1
    auctions, packages first and the whole portfolio last, has a bidder."""
    for j, bidders in enumerate(auctions):
        if not bidders:
            raise ConfigurationError(
                f"package {j} has no local bidder" if j < len(auctions) - 1
                else "the whole-portfolio auction has no bidders")


def check_int(x, lo, hi, what):
    """x as an int once it is an int or a numpy integer in [lo, hi], else
    ConfigurationError(what): a bool, a float or an array is no seed, row
    or count, though operator.index or Philox would take some of them."""
    try:
        i = operator.index(x)
    except TypeError:  # not an integer
        i = None
    if i is None or isinstance(x, (bool, np.ndarray)) or not lo <= i <= hi:
        raise ConfigurationError(f"{what}, got {x!r}")
    return i


def check_seed(seed):
    return check_int(seed, 0, SEED_LIMIT - 1, "a seed is an integer in [0, 2**128)")


def check_count(n):
    return check_int(n, 1, math.inf, "a replication count is an integer at least 1")


def check_row(start, count, width):
    """start as an int once rows start..start+count-1, of width uniforms
    each, end within the PERIOD, else ConfigurationError: a row past it
    would repeat an earlier one."""
    return check_int(start, 0, PERIOD // width - count,
                     f"a replication is an integer in [0, 2**258 // {width} - {count}]")


def rows(seed, start, count, width):
    """Rows start..start+count-1 of the seed's replication-major stream of
    uniforms, a (count, width) array: row k is replication k's budget,
    whatever rows are drawn with it. O(1) in start: Philox makes four
    doubles per counter step, so row start begins start * width % 4
    doubles into step start * width // 4. check_row bounds start."""
    start = check_row(start, count, width)
    gen = np.random.Generator(np.random.Philox(key=check_seed(seed)).advance(start * width // 4))
    gen.random(start * width % 4)
    return gen.random((count, width))


def check_weight(broker, strategy, weight):
    """An equilibrium bid shades by the bidder's package weight, which a
    global broker (weight None) does not have."""
    if strategy.kind == "equilibrium" and weight is None:
        raise ConfigurationError(
            f"{broker!r} is a global broker: an equilibrium bid needs a local's package weight")


def bid_rule(broker, strategy, rule, weight, q):
    """The strategy as one of three bid rules, (kind, param), after
    check_weight: ("constant", value) bids the value; ("offset", p) bids
    valuation + p floored at zero, with p the strategy's offset, 0 for
    truthful and minus equilibrium_shading under rule; ("capped-value", 0)
    bids min(round-1 bid, valuation). The shading does not depend on the
    valuation, so it is computed here once.
    Both engines call this, the one place that reads Strategy.kind to make
    a bid; the scalar engine rejects an unknown rule here."""
    check_rule(rule)
    check_weight(broker, strategy, weight)
    kind = strategy.kind
    if kind == "constant":
        return kind, strategy.value
    if kind == "capped-value":
        return kind, 0
    if kind == "truthful":
        return "offset", 0
    if kind == "offset":
        return kind, strategy.offset
    return "offset", -equilibrium_shading(
        rule, strategy.sigma, weight, q,
        in_qdown=strategy.in_qdown, ell=strategy.ell, sum_w_qdown=strategy.sum_w_qdown,
    )


def _lru(cache, key, bound, make):
    """cache[key], or make() stored there; the OrderedDict cache keeps the
    bound keys used last. Nothing is stored when make raises, so an error
    is raised again on every call."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = make()
        if len(cache) > bound:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def _frozen(a):
    """a, read-only: cached arrays are shared by every later call."""
    a.setflags(write=False)
    return a


def _floor0(x):
    """max(x, 0.0) elementwise, with Python's choice of operand."""
    return np.where(0.0 > x, 0.0, x)


def _slab_bids(kind, brokers, param, vals, caps):
    """One bid rule's bids over its slab of brokers: vals and caps
    (round-1 bids, round 2 only) are read at the brokers' rows, and param
    holds each broker's constant value or offset."""
    if kind == "constant":
        return param
    val = vals[brokers]
    if kind == "offset":
        return _floor0(val + param)
    cap = caps[brokers]
    return np.where(val < cap, val, cap)


class ExactSum:
    """math.fsum over each of k streams of arrays. Each stream keeps exact
    terms: one per extraction level of a chunk (two on the bundled
    scenarios), or the nonzero values of a chunk too narrow or too large
    to extract. totals() rounds each stream's terms once by math.fsum, so
    a total is the correctly rounded stream sum whatever the chunking.

    A chunk of EXTRACT_MIN values or more is summed by error-free
    extraction (Rump, Ogita & Oishi, "Accurate floating-point summation,
    Part I", SIAM J. Sci. Comput. 2008). With n values in each row and
    sigma a power of two above 2n times the chunk's largest magnitude,
    q = (r + sigma) - sigma rounds each value to a multiple of
    sigma * 2**-53; neither q nor the remainder r - q carries a rounding
    error, and a row's n multiples, each at most sigma / 2n, sum exactly
    in any order. Each level keeps q's row sums and extracts again from
    the remainders, at most sigma * 2**-53, until they are all zero: a
    CHUNK-row chunk loses 38 bits of magnitude a level, and the bundled
    scenarios take two. One sigma serves all rows of a level because
    adding a scalar costs a third of broadcasting one per row. A smaller
    chunk, or one with a non-finite value or a value of 2**1000 / n or
    more (where sigma could overflow), goes value by value through
    math.fsum instead, which keeps fsum's handling of inf, nan and
    overflow.
    """

    def __init__(self, k):
        self.terms = [[] for _ in range(k)]

    def add(self, rows):
        """Add one chunk: rows is a (k, n) array, or k arrays of length n,
        row i holding stream i's next n values."""
        n = len(rows[0])
        if len(rows) * n >= EXTRACT_MIN:
            r = np.stack(rows)  # the working copy that extraction consumes
            m = float(np.abs(r).max())
            if m < 2.0**1000 / n:  # false on inf and nan
                self._extract(r, m, n)
                return
            rows = r
        # fsum stores no zero partial, so dropping zeros (and -0.0) changes
        # no bit of the total.
        for terms, values in zip(self.terms, rows):
            terms += values[values != 0].tolist()

    def _extract(self, r, m, n):
        """Append each row's level sums, exact; r is consumed and m is its
        largest magnitude."""
        shift = n.bit_length() + 1  # 2**shift > 2n
        q = np.empty_like(r)
        while m:
            sigma = math.ldexp(1.0, math.frexp(m)[1] + shift)
            np.add(r, sigma, out=q)
            q -= sigma
            r -= q
            for terms, s in zip(self.terms, q.sum(axis=1).tolist()):
                if s:
                    terms.append(s)
            m = float(np.abs(r, out=q).max())

    def totals(self):
        return [math.fsum(terms) for terms in self.terms]


@dataclass
class Batch:
    """Outcomes of a chunk of replications, one column each."""

    won: np.ndarray
    seller_cost: np.ndarray
    fees: np.ndarray        # (q, replications); zeros on a global win
    gap: np.ndarray         # weighted fee total minus the global bid
    violations: np.ndarray  # coalition win outside the core
    clamped: int            # round-2 bids clamped, summed over the chunk
    g2: np.ndarray
    payoffs: np.ndarray     # (brokers, replications), in Kernel.ids order


@dataclass
class Head:
    """Kernel.head of a chunk's rows under one profile: what a chunk's
    outcomes need besides the pricing rule. Every array is read-only."""

    clamped: int            # round-2 bids clamped
    seats: np.ndarray       # the q+1 qualified brokers' seats (Kernel.qualify)
    value: np.ndarray       # (q+1, replications): the seated brokers' valuations
    round1: np.ndarray      # (q, replications): the seated locals' round-1 bids
    bids2: np.ndarray       # (q, replications): their round-2 bids
    g2: np.ndarray          # the seated global's round-2 bid
    total: np.ndarray       # the locals' weighted round-2 total
    tie: np.ndarray         # total == g2
    won: np.ndarray         # coalition win
    cv: np.ndarray          # (q, replications): VCG fees


class Kernel:
    """The auction over a chunk of rows, every stage slab-wise.

    Arrays are broker-major, one row per broker (or package) and one column
    per replication. On float inputs equal to settling each replication
    alone with the scalar rules: weighted sums accumulate package by
    package from 0.0, the same operations run in the same order, and floors
    keep Python's choice of operand (so a VCG fee floored from a negative
    raw value is -0.0).

    A Kernel is shared by every call that kernel() gives it to, so its
    arrays, and the compiled rules it caches, are read-only.
    """

    def __init__(self, scenario):
        self.w = tuple(float(x) for x in scenario.weights)
        self.q = len(self.w)
        self.w_col = _frozen(np.array(self.w)[:, None])
        pf = scenario.portfolio
        self.pkg_values = _frozen(np.array([[float(v)] for v in pf.package_values]))
        self.total_value = float(pf.total_value)

        locals_ = [b for b in scenario.brokers if b.role == "local"]
        globals_ = [b for b in scenario.brokers if b.role == "global"]
        self.L, self.G = len(locals_), len(globals_)
        self.ids = tuple(b.id for b in locals_ + globals_)
        self.local_pkg = tuple(b.package_index for b in locals_)
        # A role without a distribution keeps its brokers' fixed valuations.
        self.dist_l = scenario.distributions.get("local")
        self.dist_g = scenario.distributions.get("global")
        def fixed(brokers):
            return _frozen(np.array([[float(b.valuation)] for b in brokers]))
        self.fixed_l = fixed(locals_) if self.dist_l is None else None
        self.fixed_g = fixed(globals_) if self.dist_g is None else None
        self.correlated = scenario.correlated_locals

        # The q+1 sealed round-1 auctions: the packages', then the globals'
        # (auction q). Column a of members lists auction a's bidders in id
        # order (the order its tie coin counts in), padded to one depth with
        # row L+G of the round-1 bids, which is +inf and never the lowest.
        auctions = [[] for _ in range(self.q + 1)]
        for k, a in enumerate(self.local_pkg + (self.q,) * self.G):
            auctions[a].append(k)
        check_bidders(auctions)
        depth = max(map(len, auctions))
        pad = self.L + self.G
        self.members = _frozen(np.array(
            [sorted(m, key=lambda k: self.ids[k]) + [pad] * (depth - len(m))
             for m in auctions]).T)
        self.auctions = _frozen(np.arange(self.q + 1)[:, None])
        self.contested = depth > 1
        self._flat = np.ravel if self.contested else np.asarray
        # Row p of running_count @ tied counts the ties among members 0..p.
        self.running_count = _frozen(np.tri(depth))
        self.width = row_width(scenario)
        # compile's memo: each round's rules (see _compiled).
        self._rounds = OrderedDict()

    def compile(self, profile, rule):
        """The profile's (round 1, round 2) bid rules under the pricing
        rule, each round's brokers grouped by bid_rule's kind as (kind,
        brokers, one parameter per broker), read-only."""
        return tuple(self._compiled(r, rule) for r in self._strategies(profile))

    def _strategies(self, profile):
        """The profile's (round 1, round 2) Strategy tuples, in ids order."""
        brokers = [profile[bid] for bid in self.ids]
        return tuple([st.round1 for st in brokers]), tuple([st.round2 for st in brokers])

    def _compiled(self, strategies, rule):
        """One round's rules, compiled once: bid_rule is called once per
        broker and float(param) kept, under the identities of the round's
        Strategy objects and shades, the pricing rule if one of them is
        "equilibrium" (whose bid shades under it), else None. The entry
        holds the objects, so no id is reused while it lives; hashing
        Fraction fields would cost more than converting them. A kept round
        calls no bid_rule, so the rule is checked here."""
        check_rule(rule)
        shades = rule if "equilibrium" in map(operator.attrgetter("kind"), strategies) else None
        def rules():
            groups = {}
            for k, strategy in enumerate(strategies):
                weight = self.w[self.local_pkg[k]] if k < self.L else None
                kind, param = bid_rule(self.ids[k], strategy, rule, weight, self.q)
                brokers, params = groups.setdefault(kind, ([], []))
                brokers.append(k)
                params.append([float(param)])
            return strategies, tuple(
                (kind, _frozen(np.array(brokers)), _frozen(np.array(params)))
                for kind, (brokers, params) in groups.items())
        return _lru(self._rounds, (shades, *map(id, strategies)), PROFILES, rules)[1]

    def values(self, u):
        """The brokers' valuations on the rows of u, as (brokers,
        replications) in Kernel.ids order; they do not depend on the
        strategy profile."""
        L, G = self.L, self.G
        vals = np.empty((L + G, len(u)))
        if self.dist_l is None:
            vals[:L] = self.fixed_l
        else:
            vals[:L] = self.dist_l.quantiles(u[:, :1 if self.correlated else L].T)
        if self.dist_g is None:
            vals[L:] = self.fixed_g
        else:
            vals[L:] = self.dist_g.quantiles(u[:, L:L + G].T)
        return vals

    def _weighted(self, x):
        """sum_j w_j x_j per column, accumulated in package order from 0.0."""
        acc = np.zeros(x.shape[1])
        for j, wj in enumerate(self.w):
            acc += wj * x[j]
        return acc

    def chunks(self, profiles, n, seed, rule):
        """Settle replications 0..n-1 of the seed under each profile and the
        rule: for each chunk of up to CHUNK rows, one Batch per profile.
        Each round is compiled once (_compiled), each chunk's rows (one rows
        call) and valuations drawn once; profiles whose round-1 strategies
        are equal broker by broker share one qualification.

        Chunk 0's heads (Kernel.head, one per profile) are kept by _lru for
        the last call alone, keyed by the ids of the Kernel and of every
        compiled round, which the entry holds, the seed and chunk 0's row
        count; a hit runs only each tail there. A compiled round encodes
        its strategies and, where a bid shades, the rule, and a head is a
        pure function of the key, so a hit repeats a cold call's results to
        the bit. n and the seed are checked first, as a hit draws nothing."""
        n = check_count(n)
        seed = check_seed(seed)
        rounds = [self._strategies(p) for p in profiles]
        compiled = [tuple(self._compiled(r, rule) for r in both) for both in rounds]
        round1 = [r[0] for r in rounds]
        # The first profile with the same round 1 qualifies for the group.
        leader = [round1.index(r) for r in round1]

        def heads(start):
            u = rows(seed, start, min(CHUNK, n - start), self.width)
            vals = self.values(u)
            qualified = {}
            out = []
            for (round1_rules, round2_rules), i in zip(compiled, leader):
                if i not in qualified:
                    qualified[i] = self.qualify(u, vals, round1_rules)
                out.append(self.head(u, vals, qualified[i], round2_rules))
            return out

        key = (id(self), *(id(r) for both in compiled for r in both), seed, min(CHUNK, n))
        for start in range(0, n, CHUNK):
            kept = heads(start) if start else _lru(
                _chunk0, key, 1, lambda: (self, compiled, heads(0)))[2]
            yield [self.tail(h, rule) for h in kept]

    def qualify(self, u, vals, round1_rules):
        """Round 1 on the rows of u: (bids1, seats), every broker's round-1
        bid (row L+G is +inf padding) and the q+1 qualified brokers' seats.
        It reads only round-1 rules, so profiles that differ in round 2
        alone can share it."""
        N, q = self.L + self.G, self.q
        coins = u[:, N:N + q + 1].T  # the q+1 round-1 tie coins
        bids1 = np.empty((N + 1, len(u)))
        bids1[N] = np.inf
        for kind, brokers, param in round1_rules:
            bids1[brokers] = _slab_bids(kind, brokers, param, vals, None)

        # Qualification: each auction's lowest round-1 bid; on an exact tie
        # the int(coin * ties)-th tied bidder in id order. The winners'
        # seats index _flat(x) of any (brokers, replications) array x. When
        # every auction has one bidder they are fixed rows of x itself.
        # Otherwise they are flat indices from one pass over
        # (depth, auction, replication) that takes the first member whose
        # running tie count exceeds the rank: the counts are exact in
        # floats, and numpy reduces fast across the leading axis.
        if not self.contested:
            return bids1, self.members[0]
        b = bids1[self.members]
        tied = (b == b.min(axis=0)).astype(np.float64)
        running = (self.running_count @ tied.reshape(len(tied), -1)).reshape(tied.shape)
        rank = (coins * running[-1]).astype(np.intp)
        pick = (running <= rank).sum(axis=0)
        return bids1, self.members[pick, self.auctions] * len(u) + np.arange(len(u))

    def head(self, u, vals, qualified, round2_rules) -> Head:
        """All that the pricing rule does not read on the rows of u, after
        the round 1 qualified (Kernel.qualify of the same rows): round 2,
        the allocation and the VCG fees. Its arrays are read-only, so
        chunks can keep it for a later call under another rule."""
        N, q = self.L + self.G, self.q
        w = self.w_col
        bids1, seats = qualified
        flat = self._flat

        # Round 2 for the q+1 qualified brokers: floor at zero, cap at round 1.
        raw = np.empty((N, len(u)))
        for kind, brokers, param in round2_rules:
            raw[brokers] = _slab_bids(kind, brokers, param, vals, bids1)
        cap = flat(bids1)[seats]
        raw = flat(raw)[seats]
        floored = _floor0(raw)
        bid2 = np.where(cap < floored, cap, floored)
        clamped = int(np.count_nonzero(bid2 != raw))
        bids2, g2 = bid2[:q], bid2[q]

        total = self._weighted(bids2)
        tie = total == g2
        won = np.where(tie, u[:, -1] < 0.5, total < g2)  # the allocation coin

        # VCG fees.
        raw_cv = (g2 - (total - w * bids2)) / w
        cv = np.where(raw_cv > 0, raw_cv, 0 * raw_cv)
        return Head(
            clamped=clamped,
            seats=_frozen(seats),
            value=_frozen(flat(vals)[seats]),
            round1=_frozen(cap[:q]),
            bids2=_frozen(bids2),
            g2=_frozen(g2),
            total=_frozen(total),
            tie=_frozen(tie),
            won=_frozen(won),
            cv=_frozen(cv),
        )

    def tail(self, head, rule) -> Batch:
        """The rule's fees, the core check and the payoffs after the head
        (Kernel.head) of a chunk's rows."""
        h, q = head, self.q
        if rule == "vcg":
            fees = h.cv
        else:
            fees = h.cv - (self._weighted(h.cv) - h.g2)
            if rule == "dnvcg":
                fees = self._dnvcg(fees, h.cv, h.round1)
        # At an exact tie every rule pays the bids.
        fees = np.where(h.won, np.where(h.tie, h.bids2, fees), 0.0)

        paid = self._weighted(fees)
        seller_cost = np.where(h.won, paid, h.total)
        in_core = (fees >= h.bids2).all(axis=0) & (fees <= h.cv).all(axis=0) & (paid <= h.g2)

        # Payoffs: the qualified locals' on a coalition win, the qualified
        # global's otherwise, zero for every other broker.
        payoffs = np.zeros((self.L + self.G, len(h.won)))
        seated = self._flat(payoffs)
        seated[h.seats[:q]] = np.where(h.won, self.pkg_values * (fees - h.value[:q]), 0.0)
        seated[h.seats[q]] = np.where(h.won, 0.0, self.total_value * (seller_cost - h.value[q]))
        return Batch(
            won=h.won,
            seller_cost=seller_cost,
            fees=fees,
            gap=paid - h.g2,
            violations=h.won & ~in_core,
            clamped=h.clamped,
            g2=h.g2,
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
        prudent = ~up.all(axis=0)
        bonus = np.where(up.any(axis=0) & prudent, pooled / np.where(prudent, w_down, 1.0), 0.0)
        split = np.where(up, base - dev, base + bonus)
        return np.where(prudent, split, base)


_kernels = OrderedDict()

# Kernel.chunks' memo of the last call's chunk 0: (Kernel, each profile's
# compiled (round 1, round 2), heads), at most CHUNK rows' heads a profile.
_chunk0 = OrderedDict()


def kernel(scenario):
    """The scenario's Kernel, built once per layout and kept for the
    KERNELS layouts used last. The layout is what Kernel reads: the
    portfolio, weights, brokers, local and global distributions and
    correlated_locals, matched by identity; the entry holds them, so no id
    is reused while it lives. A dataclasses.replace of the rule, seed,
    replications, name or strategies therefore reuses the Kernel, and a new
    brokers object builds another."""
    dists = scenario.distributions
    layout = (scenario.portfolio, scenario.weights, scenario.brokers,
              dists.get("local"), dists.get("global"), scenario.correlated_locals)
    return _lru(_kernels, tuple(map(id, layout)), KERNELS,
                lambda: (layout, Kernel(scenario)))[1]
