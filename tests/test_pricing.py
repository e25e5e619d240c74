import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portauction.pricing import (
    FRONTIER_TOL,
    RULES,
    AllocationError,
    dnvcg_fees,
    marginal_fee,
    nvcg_fees,
    price,
    validate_core_point,
    vcg_fees,
    weighted_total,
)

# Worked instance A: two locals, weights 0.6/0.4.
WA = (F(3, 5), F(2, 5))
A_B1 = (27, 19)
A_B2 = (25, 10)
A_G2 = 22

# Worked instance B: five locals.
WB = (F(18, 100), F(22, 100), F(18, 100), F(20, 100), F(22, 100))
B_B1 = (25, 30, 36, 36, 30)
B_B2 = (20, 21, 22, 23, 26)
B_G2 = 25


def test_vcg_worked_instances():
    assert vcg_fees(A_B2, WA, A_G2) == (30, F(35, 2))
    cv = vcg_fees(B_B2, WB, B_G2)
    assert cv == (F(305, 9), F(356, 11), F(323, 9), F(71, 2), F(411, 11))
    assert abs(float(cv[0]) - 33.89) <= 0.01


def test_vcg_trivials():
    # single package: formula collapses to the global bid
    assert vcg_fees((12,), (F(1),), 22) == (22,)
    # clamp at zero when the others alone already beat the global bid
    fees = vcg_fees((30, 40), (F(1, 2), F(1, 2)), 10)
    assert fees == (0, 0)
    # own-bid independence, argument-level and exact
    base = vcg_fees(A_B2, WA, A_G2)
    for own in (0, 5, 17, 25):
        assert vcg_fees((own, A_B2[1]), WA, A_G2)[0] == base[0]


def test_nvcg_worked_instances():
    fees = nvcg_fees(A_B2, WA, A_G2)
    assert fees == (27, F(29, 2))
    assert weighted_total(fees, WA) == 22

    fees = nvcg_fees(B_B2, WB, B_G2)
    delta = weighted_total(vcg_fees(B_B2, WB, B_G2), WB) - B_G2
    assert delta == 10
    expect = (F(215, 9), F(246, 11), F(233, 9), F(51, 2), F(301, 11))
    assert fees == expect
    for got, ref in zip(fees, (23.88, 22.36, 25.88, 25.5, 27.36)):
        assert abs(float(got) - ref) <= 0.01
    assert weighted_total(fees, WB) == 25


def test_nvcg_zero_correction():
    # sum w * cv == g  =>  fees equal the VCG fees
    w = (F(1, 2), F(1, 2))
    bids = (10, 10)
    g = 15
    cv = vcg_fees(bids, w, g)
    assert weighted_total(cv, w) - g == F(5)  # delta = (q-1)(g - total) = 5
    # construct zero-delta instance: q = 1
    assert nvcg_fees((12,), (F(1),), 20) == vcg_fees((12,), (F(1),), 20)


def test_nvcg_rejects_global_win():
    with pytest.raises(AllocationError):
        nvcg_fees((30, 30), (F(1, 2), F(1, 2)), 25)
    with pytest.raises(AllocationError):  # exact tie is not a strict win
        nvcg_fees((25, 25), (F(1, 2), F(1, 2)), 25)


def test_dnvcg_worked_instance_a():
    out = dnvcg_fees(A_B1, A_B2, WA, A_G2)
    assert out.fees == (28, 13)
    assert out.q_up == (1,)
    assert out.deviations == (0, F(3, 2))
    assert out.bonus == 1
    assert not out.fell_back
    assert weighted_total(out.fees, WA) == 22


def test_dnvcg_worked_instance_b():
    out = dnvcg_fees(B_B1, B_B2, WB, B_G2)
    assert out.q_up == (2, 3)
    assert out.deviations == (0, 0, F(1, 9), F(1, 2), 0)
    assert out.bonus == F(6, 31)
    assert out.fees == (F(6719, 279), F(7692, 341), F(232, 9), 25, F(9397, 341))
    for got, ref in zip(out.fees, (24.08, 22.55, 25.77, 25, 27.55)):
        assert abs(float(got) - ref) <= 0.01
    assert weighted_total(out.fees, WB) == 25


def test_dnvcg_no_overbidders_equals_nvcg():
    bids1 = (25, 15)  # both at/below their VCG fees (30, 17.5)
    out = dnvcg_fees(bids1, A_B2, WA, A_G2)
    assert out.q_up == ()
    assert out.fees == nvcg_fees(A_B2, WA, A_G2)
    assert not out.fell_back


def test_dnvcg_empty_prudent_set_falls_back():
    bids1 = (40, 40)  # both above their VCG fees
    out = dnvcg_fees(bids1, A_B2, WA, A_G2)
    assert out.fell_back
    assert out.fees == nvcg_fees(A_B2, WA, A_G2)


def test_dnvcg_rejects_global_win():
    with pytest.raises(AllocationError):
        dnvcg_fees((30, 30), (28, 28), (F(1, 2), F(1, 2)), 25)


def test_validate_core_point_worked():
    # c1 above its VCG cap is blocked
    report = validate_core_point((31, F(29, 2)), A_B2, WA, A_G2)
    assert not report.below_vcg_cap[0]
    assert report.blocked
    assert any("VCG cap" in v for v in report.violations())

    # the nearest-rule point is in the core and on the frontier
    report = validate_core_point(nvcg_fees(A_B2, WA, A_G2), A_B2, WA, A_G2)
    assert report.in_core and report.on_frontier
    assert report.frontier_gap == 0

    # paying the bids is in the core but interior
    report = validate_core_point(A_B2, A_B2, WA, A_G2)
    assert report.in_core and not report.on_frontier


def test_marginal_fee_worked():
    # independent oracle: central difference of nvcg_fees computed here
    h = F(1, 1000)
    up = nvcg_fees((25 + h, 10), WA, A_G2)[0]
    dn = nvcg_fees((25 - h, 10), WA, A_G2)[0]
    oracle = (up - dn) / (2 * h)
    assert oracle == F(3, 5)
    assert marginal_fee("nvcg", 0, None, A_B2, WA, A_G2, h) == F(3, 5)

    got = marginal_fee("dnvcg", 0, B_B1, B_B2, WB, B_G2, h)
    # closed form: w * (ell / W_down + (q-1)) with ell=2, W_down=0.62
    closed = F(18, 100) * (2 / F(62, 100) + 4)
    assert got == closed
    assert abs(float(closed) - 1.3006) < 1e-4


def test_marginal_fee_single_package_zero():
    assert marginal_fee("nvcg", 0, None, (12,), (F(1),), 22, F(1, 100)) == 0


def test_marginal_fee_step_violations():
    with pytest.raises(ValueError, match="winner"):
        marginal_fee("nvcg", 0, None, A_B2, WA, A_G2, 10)  # flips allocation
    with pytest.raises(ValueError, match="partition"):
        # broker 1's round-1 bid sits just above its VCG fee; perturbing
        # broker 0 moves that fee enough to flip broker 1's membership
        bids1 = (27, F(35, 2) + F(1, 100))
        marginal_fee("dnvcg", 0, bids1, A_B2, WA, A_G2, F(1, 10))
    with pytest.raises(ValueError):
        marginal_fee("nvcg", 0, None, A_B2, WA, A_G2, 0)
    for rule in ("vcg", "bogus"):  # a VCG fee does not move with the own bid
        with pytest.raises(ValueError, match=repr(rule)):
            marginal_fee(rule, 0, None, A_B2, WA, A_G2, F(1, 100))


def _random_instance(rng, q=None, exact=False):
    q = q or int(rng.integers(2, 9))
    if exact:
        raw = [int(rng.integers(1, 30)) for _ in range(q)]
        den = sum(raw)
        w = tuple(F(x, den) for x in raw)
        bids2 = tuple(F(int(rng.integers(0, 300)), 10) for _ in range(q))
        margin = F(int(rng.integers(1, 60)), 10)
        g = weighted_total(bids2, w) + margin
        bids1 = tuple(b + F(int(rng.integers(0, 120)), 10) for b in bids2)
    else:
        raw = rng.random(q) + 0.05
        w = tuple(float(x) for x in raw / raw.sum())
        bids2 = tuple(float(x) for x in rng.uniform(0, 30, q))
        g = float(weighted_total(bids2, w) + rng.uniform(0.1, 6.0))
        bids1 = tuple(b + float(x) for b, x in zip(bids2, rng.uniform(0, 12, q)))
    return w, bids1, bids2, g


def test_frontier_property_random():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        w, bids1, bids2, g = _random_instance(rng)
        # ensure a nonempty prudent set: clamp one round-1 bid to its round-2 bid
        bids1 = (bids2[0],) + bids1[1:]
        nv = nvcg_fees(bids2, w, g)
        dv = dnvcg_fees(bids1, bids2, w, g)
        assert not dv.fell_back
        assert abs(weighted_total(nv, w) - g) < FRONTIER_TOL
        assert abs(weighted_total(dv.fees, w) - g) < FRONTIER_TOL


def test_unclamped_delta_identity_random():
    # delta == (q-1) * (g - sum w*bids) whenever no VCG fee clamps at zero
    rng = np.random.default_rng(5)
    for _ in range(300):
        w, _, bids2, g = _random_instance(rng, exact=True)
        cv = vcg_fees(bids2, w, g)
        assert all(c > 0 for c in cv)
        delta = weighted_total(cv, w) - g
        q = len(w)
        assert delta == (q - 1) * (g - weighted_total(bids2, w))


def test_fee_monotone_in_own_bid_random():
    rng = np.random.default_rng(77)
    for _ in range(200):
        w, bids1, bids2, g = _random_instance(rng)
        bids1 = (bids2[0],) + bids1[1:]
        i = int(rng.integers(len(w)))
        eps = 1e-4
        shifted = list(bids2)
        shifted[i] += eps
        if not weighted_total(shifted, w) < g:
            continue
        base = dnvcg_fees(bids1, bids2, w, g)
        bumped = dnvcg_fees(bids1, tuple(shifted), w, g)
        if base.q_up != bumped.q_up:
            continue
        assert bumped.fees[i] > base.fees[i]
        assert nvcg_fees(tuple(shifted), w, g)[i] > nvcg_fees(bids2, w, g)[i]


def test_dnvcg_conservation_random():
    # weighted bonuses exactly offset weighted deductions
    rng = np.random.default_rng(8)
    for _ in range(300):
        w, bids1, bids2, g = _random_instance(rng, exact=True)
        bids1 = (bids2[0],) + bids1[1:]
        out = dnvcg_fees(bids1, bids2, w, g)
        nv = nvcg_fees(bids2, w, g)
        adjustment = sum(
            wi * (d - n) for wi, d, n in zip(w, out.fees, nv)
        )
        assert adjustment == 0  # rationals make the cancellation exact


def test_marginal_fee_matches_closed_forms_random():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 150:
        w, bids1, bids2, g = _random_instance(rng)
        q = len(w)
        margin = g - weighted_total(bids2, w)
        cv = vcg_fees(bids2, w, g)
        # place broker 0 firmly in the prudent set, broker 1 as an overbidder
        bids1 = list(bids1)
        bids1[0] = bids2[0]
        bids1[1] = cv[1] + 0.5 * margin
        out = dnvcg_fees(bids1, bids2, w, g)
        step = 1e-3 * margin * min(w) / max(w)
        if bids2[0] - step < 0:
            continue
        got = marginal_fee("dnvcg", 0, bids1, bids2, w, g, step)
        ell = len(out.q_up)
        w_down = sum(w[i] for i in out.q_down)
        closed = w[0] * (ell / w_down + (q - 1))
        assert got == pytest.approx(closed, rel=1e-6)
        got_n = marginal_fee("nvcg", 0, None, bids2, w, g, step)
        assert got_n == pytest.approx(w[0] * (q - 1), rel=1e-6)
        checked += 1


# ---------------------------------------------------------------------------
# Brute-force core oracle: enumerate every blocking configuration for q <= 6.
# A coalition fee vector is blocked if some broker is paid below their bid,
# or if the seller plus the global plus any subset of locals (kept at their
# bids) can redo the deal strictly cheaper.
# ---------------------------------------------------------------------------

def oracle_in_core(fees, bids2, weights, global_bid):
    q = len(fees)
    if any(c < b for c, b in zip(fees, bids2)):
        return False
    for keep in itertools.chain.from_iterable(
        itertools.combinations(range(q), r) for r in range(q + 1)
    ):
        # locals in `keep` stay at the proposed fees, the rest revert to bids
        cost = sum(
            weights[i] * (fees[i] if i in keep else bids2[i]) for i in range(q)
        )
        if cost > global_bid:
            return False
    return True


def test_core_oracle_agreement_random():
    rng = np.random.default_rng(99)
    for _ in range(400):
        q = int(rng.integers(1, 7))
        w, bids1, bids2, g = _random_instance(rng, q=max(q, 2), exact=True)
        candidates = [
            nvcg_fees(bids2, w, g),
            dnvcg_fees((bids2[0],) + bids1[1:], bids2, w, g).fees,
            vcg_fees(bids2, w, g),
            bids2,
            tuple(b + F(int(rng.integers(-40, 80)), 10) for b in bids2),
        ]
        for fees in candidates:
            report = validate_core_point(fees, bids2, w, g)
            assert report.in_core == oracle_in_core(fees, bids2, w, g)


# ---------------------------------------------------------------------------
# Properties of the one-pass pricing chain, in exact Fraction arithmetic.
# ---------------------------------------------------------------------------

PROPERTY = settings(database=None, derandomize=True, deadline=None)

TENTHS = st.integers(0, 400).map(lambda n: F(n, 10))


@st.composite
def coalition_wins(draw):
    """(weights, round-1 bids, round-2 bids, global bid) with a strict
    coalition win and q from 1 to 8; round-1 bids sit at or above the
    round-2 bids, so every partition (and the fallback) can occur."""
    q = draw(st.integers(1, 8))
    raw = draw(st.lists(st.integers(1, 30), min_size=q, max_size=q))
    w = tuple(F(x, sum(raw)) for x in raw)
    bids2 = tuple(draw(st.lists(TENTHS, min_size=q, max_size=q)))
    g = weighted_total(bids2, w) + F(draw(st.integers(1, 600)), 10)
    bids1 = tuple(b + d for b, d in zip(bids2, draw(st.lists(TENTHS, min_size=q, max_size=q))))
    return w, bids1, bids2, g


@PROPERTY
@given(coalition_wins(), st.sampled_from(("nvcg", "dnvcg")))
def test_weighted_fees_hit_the_global_bid(win, rule):
    w, bids1, bids2, g = win
    assert weighted_total(price(rule, bids1, bids2, w, g).fees, w) == g


@PROPERTY
@given(coalition_wins())
def test_dnvcg_decomposes_around_nvcg(win):
    w, bids1, bids2, g = win
    p = price("dnvcg", bids1, bids2, w, g)
    base = nvcg_fees(bids2, w, g)
    cv = p.vcg_fees
    assert sorted(p.q_up + p.q_down) == list(range(len(w)))
    assert all(bids1[j] > cv[j] for j in p.q_up)
    assert all(bids1[i] <= cv[i] for i in p.q_down)
    if p.fell_back:
        assert p.q_down == () and p.fees == base
        assert p.bonus == 0 and all(d == 0 for d in p.deviations)
        return
    for j in p.q_up:
        assert p.deviations[j] == bids1[j] - cv[j]
        assert p.fees[j] == base[j] - p.deviations[j]
    for i in p.q_down:
        assert p.deviations[i] == 0
        assert p.fees[i] == base[i] + p.bonus
    w_down = sum(w[i] for i in p.q_down)
    assert p.bonus * w_down == sum(w[j] * p.deviations[j] for j in p.q_up)


@PROPERTY
@given(coalition_wins(), st.sampled_from(RULES))
def test_pricing_carries_the_vcg_fees_and_correction(win, rule):
    w, bids1, bids2, g = win
    p = price(rule, bids1, bids2, w, g)
    assert p.vcg_fees == vcg_fees(bids2, w, g)
    assert p.delta == weighted_total(p.vcg_fees, w) - g
    if rule == "vcg":
        assert p.fees == p.vcg_fees
    if rule != "dnvcg":
        assert p.q_up == () and not p.fell_back and all(d == 0 for d in p.deviations)


@PROPERTY
@given(coalition_wins(), st.sampled_from(RULES))
def test_pricing_core_report_matches_validate_core_point(win, rule):
    w, bids1, bids2, g = win
    p = price(rule, bids1, bids2, w, g)
    assert p.core == validate_core_point(p.fees, bids2, w, g)


def test_price_rejects_unknown_rules_and_non_wins():
    with pytest.raises(ValueError, match="'bogus'"):
        price("bogus", A_B1, A_B2, WA, A_G2)
    for rule in RULES:
        with pytest.raises(AllocationError):
            price(rule, A_B1, (25, F(35, 2)), WA, A_G2)  # exact tie at 22
