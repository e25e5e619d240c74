import warnings
from decimal import Decimal
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
    is_number,
)

def worked_portfolio():
    # Three securities, three packages; prices chosen so every derived
    # quantity is a small exact rational.
    return PortfolioSpec(
        securities=("m1", "m2", "m3"),
        quantities=(6, 7, 14),
        agreed_prices=(F("2.54"), F("4.89"), F("3.10")),
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
        packages=((1, 2, 3),),
    )
    assert derive_weights(spec).weights == (1,)


def test_portfolio_below_three_securities_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelWarning)
        PortfolioSpec(("a", "b", "c"), (1, 1, 1), (2, 3, 4), ((1, 1, 1),))
    with pytest.warns(ModelWarning, match="only 1 securities") as caught:
        tiny = PortfolioSpec(("a",), (1,), (2,), ((1,),))
    assert tiny.package_values == (2,)
    # The warning names the line that built the spec, not the dataclass __init__.
    assert [w.filename for w in caught] == [__file__]


def _random_spec(rng):
    m = int(rng.integers(3, 7))
    q = int(rng.integers(1, 5))
    agreed = tuple(F(int(rng.integers(1, 500)), 100) for _ in range(m))
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
        packages=tuple(tuple(p) for p in packages),
    )


def test_weights_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        spec = _random_spec(rng)
        w = derive_weights(spec)
        assert sum(w.weights) == 1
        assert all(x > 0 for x in w.weights)


def test_partition_violation_names_security():
    with pytest.raises(ConfigurationError, match="m2"):
        PortfolioSpec(
            securities=("m1", "m2", "m3"),
            quantities=(2, 2, 2),
            agreed_prices=(1, 1, 1),
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


def test_is_number_bounds_are_closed_and_exact_for_every_type():
    """[lo, hi] is closed and compared exactly: a Fraction by its floor
    and ceiling, so one a hair inside or outside a bound is judged right,
    and a numpy float32 meets an int bound past its own range without an
    overflow warning (pytest makes that an error)."""
    tiny = F(1, 10**200)
    inside = (0, 1, 0.0, 1.0, F(0), F(1), F(1, 2), tiny, 1 - tiny,
              np.float64(0.5), np.float32(0.5), np.int64(1))
    outside = (-tiny, 1 + tiny, F(-1, 2), F(3, 2), -1, 2, -0.5, 1.5,
               np.float64(2), np.float32(-0.5), np.int64(2))
    assert all(is_number(x, 0, 1) for x in inside)
    assert not any(is_number(x, 0, 1) for x in outside)
    assert is_number(F(-1, 2), -1, 0) and not is_number(F(-3, 2), -1, 0)
    limit = 10**100
    assert is_number(limit - tiny, -limit, limit) and not is_number(limit + tiny, -limit, limit)
    assert is_number(np.float32(1), -limit, limit) and not is_number(np.float32(1), 2, limit)
    # no bounds: any finite real number
    assert all(is_number(x) for x in (-1e308, 1e308, 10**400, -F(10**400, 3), np.int64(-5)))
    not_numbers = (True, False, np.bool_(True), "1", None, Decimal(1), [1], np.array(1.0),
                   float("nan"), float("inf"), float("-inf"), np.float32("nan"),
                   np.float64("inf"))
    assert not any(is_number(x) for x in not_numbers)
