import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from portauction.model import (
    BrokerProfile,
    ConfigurationError,
    ModelWarning,
    PortfolioSpec,
    WeightVector,
    derive_weights,
    expected_price_change,
    local_payoff,
    package_valuation,
)

TOL = 1e-9


def worked_portfolio():
    # Three securities, three packages; prices chosen so every derived
    # quantity is a small exact rational.
    return PortfolioSpec(
        securities=("m1", "m2", "m3"),
        quantities=(6, 7, 14),
        agreed_prices=(F("2.54"), F("4.89"), F("3.10")),
        anticipated_prices=(F("2.80"), F("4.35"), F("3.50")),
        packages=((2, 1, 3), (1, 4, 5), (3, 2, 6)),
    )


def test_derive_weights_worked_example():
    w = derive_weights(worked_portfolio())
    # oracle: dot products by hand
    assert w.weights[0] == F("19.27") / F("92.87")
    assert w.weights[1] == F("37.60") / F("92.87")
    assert w.weights[2] == F("36.00") / F("92.87")
    assert abs(float(w.weights[0]) - 0.2075) < 5e-5
    assert abs(float(w.weights[1]) - 0.4049) < 5e-5
    assert abs(float(w.weights[2]) - 0.3876) < 5e-5
    assert sum(w.weights) == 1


def test_derive_weights_identity_partition():
    spec = PortfolioSpec(
        securities=("a", "b", "c"),
        quantities=(1, 2, 3),
        agreed_prices=(2, 3, 4),
        anticipated_prices=(2, 3, 4),
        packages=((1, 2, 3),),
    )
    assert derive_weights(spec).weights == (1,)


def test_expected_price_change_worked_example():
    pc = expected_price_change(worked_portfolio())
    assert pc.pct_change[0] == F("-0.26") / F("2.54")
    assert pc.pct_change[1] == F("0.54") / F("4.89")
    assert pc.pct_change[2] == F("-0.40") / F("3.10")
    assert abs(float(pc.pct_change[0]) + 0.102) < 5e-4
    assert abs(float(pc.pct_change[1]) - 0.1104) < 5e-5
    assert abs(float(pc.pct_change[2]) + 0.1290) < 5e-5


def test_expected_price_change_trivials():
    spec = PortfolioSpec(
        securities=("a", "b", "c"),
        quantities=(1, 1, 1),
        agreed_prices=(2, 3, 4),
        anticipated_prices=(2, 3, 4),
        packages=((1, 1, 1),),
    )
    assert expected_price_change(spec).pct_change == (0, 0, 0)

    with pytest.warns(ModelWarning):
        tiny = PortfolioSpec(("a",), (1,), (2,), (1,), ((1,),))
    assert expected_price_change(tiny).pct_change == (F(1, 2),)


def test_package_valuation_worked_example():
    spec = worked_portfolio()
    # oracle: direct dot-product evaluation of the example vectors
    dp = (F("-0.26"), F("0.54"), F("-0.40"))
    theta1 = (2, 1, 3)
    oracle = sum(t * d for t, d in zip(theta1, dp)) / F("19.27")
    assert oracle == F("-1.18") / F("19.27")
    assert package_valuation(theta1, spec) == oracle
    assert abs(float(oracle) + 0.06123) < 1e-5

    upsilon = package_valuation(spec.quantities, spec)
    assert upsilon == F("-3.38") / F("92.87")


def test_package_valuation_zero_change_and_errors():
    spec = PortfolioSpec(
        securities=("a", "b", "c"),
        quantities=(1, 2, 3),
        agreed_prices=(2, 3, 4),
        anticipated_prices=(2, 3, 4),
        packages=((1, 2, 3),),
    )
    assert package_valuation((1, 0, 2), spec) == 0
    with pytest.raises(ConfigurationError):
        package_valuation((0, 0, 0), spec)


def test_local_payoff_worked_example():
    spec = worked_portfolio()
    theta1 = (2, 1, 3)
    # oracle: 19.27 * 0.002 - (-1.18) = 1.21854 exactly
    got = local_payoff(theta1, spec, F("0.002"), coalition_won=True)
    assert got == F("19.27") * F("0.002") + F("1.18")
    assert float(got) == pytest.approx(1.21854, abs=1e-12)

    assert local_payoff(theta1, spec, F("0.002"), coalition_won=False) == 0


def test_local_payoff_zero_cases():
    spec = PortfolioSpec(
        securities=("a", "b", "c"),
        quantities=(1, 1, 1),
        agreed_prices=(2, 3, 4),
        anticipated_prices=(2, 3, 4),
        packages=((1, 1, 1),),
    )
    assert local_payoff((1, 1, 1), spec, 0, coalition_won=True) == 0
    with pytest.raises(ValueError):
        local_payoff((1, 1, 1), spec, -0.1, coalition_won=True)


def _random_spec(rng):
    m = int(rng.integers(3, 7))
    q = int(rng.integers(1, 5))
    agreed = tuple(F(int(rng.integers(1, 500)), 100) for _ in range(m))
    anticipated = tuple(F(int(rng.integers(1, 500)), 100) for _ in range(m))
    packages = [[F(0)] * m for _ in range(q)]
    for k in range(m):
        # split each security's quantity over packages
        for j in range(q):
            packages[j][k] = F(int(rng.integers(0, 10)))
        if all(packages[j][k] == 0 for j in range(q)):
            packages[0][k] = F(1)
    quantities = tuple(sum(packages[j][k] for j in range(q)) for k in range(m))
    # every package needs positive value
    for j in range(q):
        if all(x == 0 for x in packages[j]):
            packages[j][0] += 1
            quantities = tuple(
                sum(packages[i][k] for i in range(q)) for k in range(m)
            )
    return PortfolioSpec(
        securities=tuple(f"s{k}" for k in range(m)),
        quantities=quantities,
        agreed_prices=agreed,
        anticipated_prices=anticipated,
        packages=tuple(tuple(p) for p in packages),
    )


def test_weights_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        spec = _random_spec(rng)
        w = derive_weights(spec)
        assert sum(w.weights) == 1
        assert all(x > 0 for x in w.weights)


def test_valuation_weight_additivity_random():
    # sum_j w_j * alpha(theta_j) equals the whole-portfolio valuation
    rng = np.random.default_rng(7)
    for _ in range(200):
        spec = _random_spec(rng)
        w = derive_weights(spec)
        lhs = sum(
            wj * package_valuation(pkg, spec)
            for wj, pkg in zip(w.weights, spec.packages)
        )
        rhs = package_valuation(spec.quantities, spec)
        assert abs(lhs - rhs) < 1e-9
        assert lhs == rhs  # rationals make the identity exact


def test_local_payoff_linearity_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = _random_spec(rng)
        pkg = spec.packages[0]
        fee = F(int(rng.integers(0, 100)), 10_000)
        base = local_payoff(pkg, spec, fee, True)
        doubled_pkg = tuple(2 * x for x in pkg)
        doubled_spec = PortfolioSpec(
            securities=spec.securities,
            quantities=tuple(q + p for q, p in zip(spec.quantities, pkg)),
            agreed_prices=spec.agreed_prices,
            anticipated_prices=spec.anticipated_prices,
            packages=(doubled_pkg,) + spec.packages[1:],
        )
        assert local_payoff(doubled_pkg, doubled_spec, fee, True) == 2 * base
        # linear in fee
        a = local_payoff(pkg, spec, fee, True)
        b = local_payoff(pkg, spec, 2 * fee, True)
        c = local_payoff(pkg, spec, 3 * fee, True)
        assert c - b == b - a


def test_price_change_sign_iff():
    rng = np.random.default_rng(11)
    for _ in range(100):
        spec = _random_spec(rng)
        pc = expected_price_change(spec)
        for k, x in enumerate(pc.pct_change):
            assert (x > 0) == (spec.agreed_prices[k] > spec.anticipated_prices[k])


def test_partition_violation_names_security():
    with pytest.raises(ConfigurationError, match="m2"):
        PortfolioSpec(
            securities=("m1", "m2", "m3"),
            quantities=(2, 2, 2),
            agreed_prices=(1, 1, 1),
            anticipated_prices=(1, 1, 1),
            packages=((1, 1, 1), (1, 0, 1)),
        )


def test_weight_vector_validation():
    with pytest.raises(ConfigurationError):
        WeightVector((F(1, 2), F(1, 4)))  # does not sum to 1
    with pytest.raises(ConfigurationError):
        WeightVector((F(3, 2), F(-1, 2)))
    with pytest.warns(ModelWarning, match=r"1/\(q-1\) = 0.5000 for q = 3 packages"):
        WeightVector((F(3, 5), F(1, 5), F(1, 5))).warn_if_above_package_bound()  # 0.6 > 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # q = 2: the bound is 1, nothing to warn
        WeightVector((F(3, 5), F(2, 5))).warn_if_above_package_bound()
        WeightVector((F(1, 1),)).warn_if_above_package_bound()


def test_broker_profile_validation():
    BrokerProfile(id="L1", role="local", package_index=0)
    BrokerProfile(id="G", role="global")
    with pytest.raises(ConfigurationError):
        BrokerProfile(id="L1", role="local")
    with pytest.raises(ConfigurationError):
        BrokerProfile(id="G", role="global", package_index=1)
    with pytest.raises(ConfigurationError):
        BrokerProfile(id="X", role="arbiter")
