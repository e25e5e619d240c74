"""Closed-form expectations on the bundled powerlaw scenario, an oracle
that shares no code with the mechanism.

Powerlaw's locals hold fixed valuations and bid them in round 2 below
their round-1 caps, so the coalition bids the weighted total T, and its
one global draws g from F(x) = (x / upper)^shape on [0, upper] and bids g
(capped-value under a round-1 bid of upper). Every outcome is then
affine in g on each side of T:

- g > T: the coalition wins. A local's VCG fee is b_j + (g - T) / w_j,
  so VCG costs the seller q g - (q - 1) T. NVCG's fees sum, weighted, to
  g, and local j's fee less its bid is (g - T)(1 / w_j - (q - 1)).
  D-NVCG redistributes NVCG's fees among the locals, so it costs g too
  and pays the locals together total (g - T).
- g < T: the global wins, is paid T and gets total (T - g).

D-NVCG's split between the locals is affine in g between the points
t_j = T + w_j (cap_j - b_j), where cap_j is local j's round-1 bid: below
t_j its cap is above its VCG fee, so it overbids. Where every local or
none overbids, D-NVCG pays NVCG's fees. Elsewhere an overbidder j's fee
is its NVCG fee less cap_j - cv_j, and a prudent local i's is its NVCG
fee plus sum_up w_j (cap_j - cv_j) / W, W the prudent locals' weight.

The expectations and second moments below are exact Fractions of the
truncated power moments E[g^k; lo < g <= hi], summed over the pieces of
each outcome. The oracle reads the
scenario's numbers from the loader's config and calls no other portauction
function; simulate is the side under test.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from portauction.scenario import builtin_scenario
from portauction.sim import simulate

# Fixed before the first run: n, the seed, and a 4-SE bound on every mean.
N = 10**6
SEED = 11
BOUND = 4
BPS = 10_000


def _powerlaw():
    """Powerlaw's numbers, after checking the shape the closed forms
    assume: fixed locals, one per package, bidding their valuations in
    round 2 under higher round-1 caps; one power-law global bidding its
    value; package values proportional to the weights."""
    sc = builtin_scenario("powerlaw")
    locals_ = [b for b in sc.brokers if b.role == "local"]
    (glob,) = [b for b in sc.brokers if b.role == "global"]
    dist = sc.distributions["global"]
    assert dist.kind == "power-law" and sc.distributions.get("local") is None
    assert [b.package_index for b in locals_] == list(range(len(sc.weights)))
    upper = Fraction(dist.upper)
    for b in locals_:
        st = sc.strategies[b.id]
        assert st.round2.kind == "truthful"
        assert st.round1.kind == "constant" and st.round1.value >= b.valuation
    st = sc.strategies[glob.id]
    # the global's round-1 bid caps its round-2 bid as a float, as g is one
    assert st.round1.kind == "constant" and float(st.round1.value) >= dist.upper
    assert st.round2.kind == "capped-value"
    total = Fraction(sc.portfolio.total_value)
    weights = [Fraction(w) for w in sc.weights]
    assert [Fraction(v) for v in sc.portfolio.package_values] == [total * w for w in weights]
    shape = Fraction(dist.shape)
    assert shape.denominator == 1
    bids = [b.valuation for b in locals_]
    caps = [sc.strategies[b.id].round1.value for b in locals_]
    return sc, [b.id for b in locals_], glob.id, weights, bids, caps, total, upper, shape


def _moments(upper, shape, lo, hi):
    """E[g^k; lo < g <= hi] for k = 0, 1, 2 under F(x) = (x / upper)^shape."""
    return [shape * (hi ** (shape + k) - lo ** (shape + k)) / ((shape + k) * upper ** shape)
            for k in range(3)]


def _dnvcg_split(weights, bids, caps, total, T, upper):
    """Each local's D-NVCG payoff as pieces ((lo, hi), c0, c1), c0 + c1 g
    on lo < g <= hi, over the coalition's wins T < g <= upper."""
    q = len(weights)
    points = sorted({T, upper, *(min(max(T + w * (c - b), T), upper)
                                 for w, b, c in zip(weights, bids, caps))})
    pieces = [[] for _ in weights]
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        up = [mid < T + w * (c - b) for w, b, c in zip(weights, bids, caps)]
        if all(up) or not any(up):  # the fall-back, or no overbidder: NVCG
            up = [False] * q
        W = sum(w for w, u in zip(weights, up) if not u)
        # sum_up w_j (cap_j - cv_j) = dev - n_up (g - T)
        dev = sum(w * (c - b) for w, b, c, u in zip(weights, bids, caps, up) if u)
        n_up = sum(up)
        for j, (w, b, c) in enumerate(zip(weights, bids, caps)):
            a, e = 1 - (q - 1) * w, 0  # payoff / total = a (g - T) + e, NVCG's
            if up[j]:
                a, e = a + 1, -w * (c - b)
            elif n_up:
                a, e = a - w / W * n_up, w / W * dev
            pieces[j].append(((lo, hi), total * (e - a * T), total * a))
    return pieces


def _expectations():
    """{(rule, metric): (mean, variance)}, exact, of one replication's
    outcome; a metric is "win", "cost", a broker id, or "locals" (their
    payoffs summed)."""
    sc, locals_, glob, weights, bids, caps, total, upper, shape = _powerlaw()
    q = len(weights)
    T = sum(w * b for w, b in zip(weights, bids))

    def stats(*pieces):
        """Mean and variance of c0 + c1 g on each piece ((lo, hi), c0, c1),
        0 off every piece."""
        first = second = 0
        for (lo, hi), c0, c1 in pieces:
            m0, m1, m2 = _moments(upper, shape, lo, hi)
            first += c0 * m0 + c1 * m1
            second += c0 * c0 * m0 + 2 * c0 * c1 * m1 + c1 * c1 * m2
        return first, second - first * first

    def excess(slope):
        """slope (g - T) on a coalition win."""
        return stats(((T, upper), -slope * T, slope))

    out = {}
    for rule in ("vcg", "nvcg", "dnvcg"):
        out[rule, "win"] = stats(((T, upper), 1, 0))
        out[rule, glob] = stats(((0, T), total * T, -total))
        cost = (-(q - 1) * T, q) if rule == "vcg" else (0, 1)
        out[rule, "cost"] = stats(((T, upper), *cost), ((0, T), T, 0))
    for broker, w in zip(locals_, weights):
        out["vcg", broker] = excess(total)  # package value / w_j = total
        out["nvcg", broker] = excess(total * (1 - (q - 1) * w))  # package value x (1/w - (q-1))
    for broker, pieces in zip(locals_, _dnvcg_split(weights, bids, caps, total, T, upper)):
        out["dnvcg", broker] = stats(*pieces)
    out["dnvcg", "locals"] = excess(total)
    return sc, locals_, out


def test_the_closed_forms_are_the_documented_numbers():
    """The oracle's own arithmetic, in bps, before it judges anything:
    P(win) 3/4; seller cost 85/3 under nvcg and dnvcg and 110/3 under vcg;
    the global's payoff 10 E[(T - g)+] = 50/3; the locals 250/3 each under
    vcg, 100/3 and 50 under nvcg, and 250/3 together under dnvcg, split
    60772/1875 and 31826/625 with variances 2775223016/3515625 and
    657691724/390625 (bps squared)."""
    _, (l1, l2), out = _expectations()
    want = {("win", None): Fraction(3, 4),
            ("cost", "vcg"): Fraction(110, 3), ("cost", "nvcg"): Fraction(85, 3),
            ("cost", "dnvcg"): Fraction(85, 3),
            ("G", None): Fraction(50, 3),
            (l1, "vcg"): Fraction(250, 3), (l2, "vcg"): Fraction(250, 3),
            (l1, "nvcg"): Fraction(100, 3), (l2, "nvcg"): Fraction(50),
            ("locals", "dnvcg"): Fraction(250, 3),
            (l1, "dnvcg"): Fraction(60772, 1875), (l2, "dnvcg"): Fraction(31826, 625)}
    for (metric, only), value in want.items():
        for rule in ("vcg", "nvcg", "dnvcg") if only is None else (only,):
            mean = out[rule, metric][0] * (1 if metric == "win" else BPS)
            # upper is the float nearest 40 bps, within 2**-53 of it
            assert float(mean) == pytest.approx(float(value), rel=1e-15), (rule, metric)
    for broker, value in ((l1, Fraction(2775223016, 3515625)),
                          (l2, Fraction(657691724, 390625))):
        var = out["dnvcg", broker][1] * BPS**2
        assert float(var) == pytest.approx(float(value), rel=1e-14), broker


def test_simulate_meets_the_closed_forms():
    """Every mean of simulate on powerlaw, n = 1e6 at seed 11 under each
    rule, within 4 SE of its closed form, the SE taken from the closed-form
    variance. All three rules draw the same rows, so their win rates and
    global payoffs are one number, and a seller-cost z is the same under
    nvcg and dnvcg."""
    sc, locals_, out = _expectations()
    zs = {}
    for rule in ("vcg", "nvcg", "dnvcg"):
        m = simulate(replace(sc, rule=rule), n=N, seed=SEED)
        got = {"win": m.coalition_win_rate, "cost": m.mean_seller_cost,
               "locals": sum(m.mean_broker_payoff[b] for b in locals_),
               **m.mean_broker_payoff}
        for (r, metric), (mean, var) in out.items():
            if r == rule:
                zs[rule, metric] = (got[metric] - float(mean)) / math.sqrt(float(var) / N)
    assert len(zs) == 16  # 5 means under vcg and nvcg, 6 under dnvcg
    assert all(abs(z) <= BOUND for z in zs.values()), {k: round(z, 2) for k, z in zs.items()}
