import json
import math
from fractions import Fraction as F
from importlib import resources

import numpy as np
import pytest

from portauction.equilibrium import (
    HazardPoint,
    ValueDistribution,
    equilibrium_bid,
    equilibrium_shading,
    hazard_point,
    optimality_residual,
    solve_symmetric_equilibrium,
)

from portauction.scenario import scenario_from_dict
from portauction.sim import Strategy, simulate, strategy_bid
from portauction.units import to_bps

import pin_equilibrium


def test_power_law_distribution():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    assert d.cdf(0.5) == 0.25
    assert d.pdf(0.45) == pytest.approx(0.9)
    assert d.cdf(-1) == 0.0 and d.cdf(2) == 1.0
    assert d.quantile(0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ValueDistribution.power_law(upper=1.0, shape=1.0)
    with pytest.raises(ValueError):
        ValueDistribution.power_law(upper=0.0, shape=2.0)


def test_uniform_and_empirical_distributions():
    u = ValueDistribution.uniform(lower=1.0, upper=3.0)
    assert u.cdf(2.0) == 0.5
    assert u.pdf(2.5) == 0.5
    assert u.quantile(0.25) == 1.5

    rng = np.random.default_rng(0)
    sample = rng.uniform(0, 1, 4000)
    e = ValueDistribution.empirical(sample)
    assert e.cdf(0.5) == pytest.approx(0.5, abs=0.05)
    assert e.pdf(0.5) == pytest.approx(1.0, abs=0.15)
    draws = e.quantiles(np.random.default_rng(1).random(100))
    assert all(0 <= x <= 1 for x in draws)


def test_distribution_scaling():
    d = ValueDistribution.power_law(upper=0.004, shape=2.0).scaled(10_000)
    assert d.upper == pytest.approx(40.0)
    assert d.cdf(20.0) == 0.25


def test_hazard_point_worked():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    hp = hazard_point(d, own_bid=0.5, own_weight=0.5, others_weighted_sum=0.2)
    assert hp.H == pytest.approx(0.25 - 0.2025, abs=1e-15)
    assert hp.h == pytest.approx(0.9)
    assert hp.sigma == pytest.approx(hp.H / hp.h)
    assert not hp.clamped


def test_hazard_point_collapsed_window():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    # all brokers bid alpha and the weights sum to one: the window closes
    hp = hazard_point(d, own_bid=0.4, own_weight=0.5, others_weighted_sum=0.2)
    assert hp.H == 0.0
    assert hp.sigma == 0.0


def test_hazard_point_clamps_out_of_support():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    hp = hazard_point(d, own_bid=1.5, own_weight=0.5, others_weighted_sum=0.1)
    assert hp.clamped
    assert 0.0 <= hp.H <= 1.0
    hp = hazard_point(d, own_bid=0.2, own_weight=0.5, others_weighted_sum=0.5)
    assert hp.clamped and hp.H == 0.0


def test_hazard_matches_monte_carlo():
    rng = np.random.default_rng(17)
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    n = 1_000_000
    for _ in range(5):
        own_bid = float(rng.uniform(0.4, 0.9))
        own_w = float(rng.uniform(0.2, 0.6))
        others = float(rng.uniform(0.05, 0.3))
        total = own_w * own_bid + others
        if total >= own_bid:
            continue
        hp = hazard_point(d, own_bid, own_w, others)
        draws = d.quantiles(np.random.default_rng(hash((own_bid, own_w)) % 2**32).random(n))
        hits = np.mean((draws >= total) & (draws <= own_bid))
        se = math.sqrt(max(hits * (1 - hits), 1e-12) / n)
        assert abs(hp.H - hits) <= 3 * se


def test_equilibrium_bid_worked_values():
    """The closed-form bid is alpha minus the shading, and strategy_bid
    bids exactly that, shading VCG as NVCG."""
    assert 0.005 - equilibrium_shading("nvcg", 0.001, 0.25, 3) == pytest.approx(0.0045)
    got = 0.005 - equilibrium_shading("dnvcg", 0.001, 0.25, 3, in_qdown=True, ell=1,
                                      sum_w_qdown=0.5)
    assert got == pytest.approx(0.004)
    assert 0.42 - equilibrium_shading("nvcg", 0.3, 0.5, 1) == 0.42
    prudent = Strategy(kind="equilibrium", sigma=0.001, in_qdown=True, ell=1, sum_w_qdown=0.5)
    for rule, shading_rule in (("vcg", "nvcg"), ("nvcg", "nvcg"), ("dnvcg", "dnvcg")):
        want = 0.005 - equilibrium_shading(shading_rule, 0.001, 0.25, 3, in_qdown=True, ell=1,
                                           sum_w_qdown=0.5)
        assert strategy_bid(prudent, 0.005, None, 0.25, rule, 3, broker="L") == want
        assert equilibrium_bid(shading_rule, 0.005, 0.001, 0.25, 3, in_qdown=True, ell=1,
                               sum_w_qdown=0.5) == want
    assert equilibrium_bid("nvcg", -0.01, 0.001, 0.25, 3) == 0
    assert equilibrium_bid("dnvcg", 0.0, 0.001, 0.25, 3) == 0
    assert equilibrium_bid("nvcg", 0.0001, 0.001, 0.25, 3) == 0  # below the shading
    # alpha <= 0 bids zero, as does a valuation below the shading.
    eq = Strategy(kind="equilibrium", sigma=0.001)
    assert strategy_bid(eq, -0.01, None, 0.25, "nvcg", 3, broker="L") == 0
    assert strategy_bid(eq, 0.0, None, 0.25, "dnvcg", 3, broker="L") == 0
    assert strategy_bid(eq, F(-1, 100), None, F(1, 4), "nvcg", 3, broker="L") == 0
    assert strategy_bid(eq, 0.0001, None, 0.25, "nvcg", 3, broker="L") == 0


def test_equilibrium_bid_validation():
    with pytest.raises(ValueError):
        equilibrium_shading("nvcg", -0.1, 0.5, 2)
    with pytest.raises(ValueError):
        equilibrium_shading("nvcg", 0.1, 0.0, 2)
    with pytest.raises(ValueError):
        equilibrium_shading("nvcg", 0.1, 0.5, 0)
    with pytest.raises(ValueError):
        equilibrium_shading("dnvcg", 0.1, 0.5, 2, in_qdown=True, ell=1, sum_w_qdown=0)
    with pytest.raises(ValueError):
        equilibrium_shading("second-price", 0.1, 0.5, 2)


def test_shading_order_and_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(200):
        sigma = float(rng.uniform(0.001, 0.2))
        w = float(rng.uniform(0.05, 0.5))
        q = int(rng.integers(2, 8))
        ell = int(rng.integers(1, q))
        w_down = float(rng.uniform(0.1, 1.0))
        nv = equilibrium_shading("nvcg", sigma, w, q)
        dv = equilibrium_shading("dnvcg", sigma, w, q, in_qdown=True, ell=ell, sum_w_qdown=w_down)
        assert dv > nv > 0
        # nondecreasing in q, weight, sigma
        assert equilibrium_shading("nvcg", sigma, w, q + 1) >= nv
        assert equilibrium_shading("nvcg", sigma, w * 1.1, q) >= nv
        assert equilibrium_shading("nvcg", sigma * 1.1, w, q) >= nv


def test_optimality_residual_symmetric_zero():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    for q, w in ((2, 0.5), (4, 0.25)):
        alpha = 0.5
        others = (1 - w) * alpha
        r = optimality_residual("nvcg", alpha, alpha, w, others, d, q)
        assert r == 0.0
        r = optimality_residual("dnvcg", alpha, alpha, w, others, d, q,
                                ell=1, sum_w_qdown=1 - w, in_qdown=True)
        assert r == 0.0


def test_optimality_residual_sign_below_equilibrium():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    # oracle, evaluated directly: (0.5-0.4)*f(0.45) - 1*0.5*(F(0.4)-F(0.45))
    oracle = 0.1 * 0.9 - 0.5 * (0.16 - 0.2025)
    r = optimality_residual("nvcg", 0.4, 0.5, 0.5, 0.5 * 0.5, d, 2)
    assert r == pytest.approx(oracle)
    assert r > 0


def test_optimality_residual_decreasing_at_alpha():
    # central difference of the residual in phi is <= 0 at the optimum
    rng = np.random.default_rng(29)
    for _ in range(100):
        lam = float(rng.uniform(1.2, 5.0))
        d = ValueDistribution.power_law(upper=1.0, shape=lam)
        q = int(rng.integers(2, 6))
        w = 1.0 / q
        alpha = float(rng.uniform(0.1, 0.9))
        others = (1 - w) * alpha
        h = 1e-6
        up = optimality_residual("nvcg", alpha + h, alpha, w, others, d, q)
        dn = optimality_residual("nvcg", alpha - h, alpha, w, others, d, q)
        assert (up - dn) / (2 * h) <= 0


def test_residual_and_solver_validate_rule_weight_and_q():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    for args, message in ((("second-price", 0.4, 0.5, 0.5, 0.25, d, 2),
                           "unknown pricing rule"),
                          (("nvcg", 0.4, 0.5, 0.0, 0.25, d, 2), "weight"),
                          (("nvcg", 0.4, 0.5, 0.5, 0.25, d, 0), "q must be")):
        with pytest.raises(ValueError, match=message):
            optimality_residual(*args)
    # VCG shades as NVCG, in or out of the prudent set
    for args in ((0.3, 0.5, 3), (0.3, 0.5, 3, True, 1, 0.5)):
        assert equilibrium_shading("vcg", *args) == equilibrium_shading("nvcg", *args) > 0
        assert equilibrium_bid("vcg", 0.4, *args) == equilibrium_bid("nvcg", 0.4, *args)
    args = (0.4, 0.5, 0.5, 0.25, d, 2)
    assert optimality_residual("vcg", *args) == optimality_residual("nvcg", *args)
    # the truthful profile is a fixed point only when the weights sum to 1
    for weights, message in (([1.0, 0.0], r"each weight must lie in \(0, 1\]"),
                             ([], "weight vector is empty"),
                             ([0.7, 0.7, 0.1], "weights sum to 1.5")):
        for alpha in (0.4, 0.0):
            with pytest.raises(ValueError, match=message):
                solve_symmetric_equilibrium(d, alpha, weights)


def test_solve_symmetric_equilibrium_grid():
    for lam in (1.5, 2.0, 3.0, 5.0):
        d = ValueDistribution.power_law(upper=1.0, shape=lam)
        for q in (2, 3, 5):
            for rule in ("nvcg", "dnvcg"):
                kwargs = {}
                if rule == "dnvcg":
                    kwargs = dict(in_qdown=True, ell=1, sum_w_qdown=(q - 1) / q)
                sol = solve_symmetric_equilibrium(d, 0.37, [1.0 / q] * q)
                assert sol.converged and not sol.at_boundary
                assert abs(sol.bid - 0.37) < 1e-6
                # residual evaluated at the truthful point itself
                at_alpha = optimality_residual(
                    rule, 0.37, 0.37, 1.0 / q, (q - 1) / q * 0.37, d, q, **kwargs
                )
                assert abs(at_alpha) < 1e-12


def test_solve_symmetric_equilibrium_trivials():
    d = ValueDistribution.power_law(upper=1.0, shape=3.0)
    assert solve_symmetric_equilibrium(d, -0.2, [0.5, 0.5]).bid == 0.0
    sol = solve_symmetric_equilibrium(d, 0.4, [1 / 3] * 3)
    assert sol.bid == pytest.approx(0.4, abs=1e-6)
    d2 = ValueDistribution.power_law(upper=1.0, shape=2.0)
    sol = solve_symmetric_equilibrium(d2, 0.5, [0.5, 0.5])
    assert sol.bid == pytest.approx(0.5, abs=1e-6)


def test_solve_reports_boundary():
    d = ValueDistribution.power_law(upper=1.0, shape=2.0)
    # a valuation above the support bids the support's top
    sol = solve_symmetric_equilibrium(d, 1.6, [0.5, 0.5])
    assert sol.at_boundary
    assert sol.bid == 1.0
    assert not solve_symmetric_equilibrium(d, 0.6, [0.5, 0.5]).at_boundary


def test_l_function_monotone_at_alpha():
    # L(phi) = T * (phi^lam * T^-lam - 1), T = w*phi + others; first and
    # second central differences at phi = alpha are nonnegative
    for lam in (1.5, 2.0, 3.0, 5.0):
        for q in (2, 3, 5):
            w = 1.0 / q
            alpha = 0.37
            others = (1 - w) * alpha

            def L(phi):
                T = w * phi + others
                return T * (phi**lam * T**-lam - 1.0)

            h = 1e-5
            first = (L(alpha + h) - L(alpha - h)) / (2 * h)
            second = (L(alpha + h) - 2 * L(alpha) + L(alpha - h)) / h**2
            assert first >= -1e-9
            assert second >= -1e-6
            # closed form of the first derivative at alpha: lam * (1 - w)
            assert first == pytest.approx(lam * (1 - w), abs=1e-6)


def test_kernel_vcg_fee_against_quadrature():
    """The kernel's VCG fee, averaged over the global's power-law(40, 2)
    value: L1 bids 0 with valuation 0 and L2 bids 20 bps, so L1's payoff
    per unit of package value is its fee max(0, (G - 0.4 * 20) / 0.6)."""
    data = json.loads(resources.files("portauction").joinpath(
        "scenarios/powerlaw.json").read_text())
    data["rule"] = "vcg"
    data["brokers"][0]["valuation_bps"] = 0
    for broker, bid in (("L1", 0), ("L2", 20)):
        fixed = {"kind": "constant", "value_bps": bid}
        data["strategies"][broker] = {"round1": fixed, "round2": fixed}
    sc = scenario_from_dict(data)
    assert sc.weights[0] == F(3, 5)
    got = simulate(sc, n=400_000, seed=4).mean_broker_payoff["L1"]
    got_bps = float(to_bps(got / sc.portfolio.package_values[0]))
    # oracle: numeric quadrature of max(0, (v - others)/w) * f(v)
    w, others = 0.6, 8.0
    grid = np.linspace(0.0, 40.0, 400_001)
    f = 2 * grid / 40.0**2
    integrand = np.maximum(0.0, (grid - others) / w) * f
    oracle = float(np.trapezoid(integrand, grid))
    assert got_bps == pytest.approx(oracle, rel=0.005)
    # closed form for this instance: 45056/1440
    assert oracle == pytest.approx(45056 / 1440, rel=1e-4)


def test_solver_outputs_match_pins():
    """The golden file is the bytes pin_equilibrium.main would write; the
    differing cases are named first."""
    text = pin_equilibrium.render()
    got, want = json.loads(text), json.loads(pin_equilibrium.PINS.read_text())
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}
    assert pin_equilibrium.PINS.read_bytes() == text.encode()
