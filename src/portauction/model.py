"""Portfolio, package, and broker primitives shared by the auction engine.

A portfolio is a nonnegative quantity vector over m securities, partitioned
exactly into packages. Agreed prices are the execution prices contracted
with the seller; package values and weights derive from them. A broker's
valuation is its own break-even fee, given directly.

All types are immutable after construction and every operation is a pure
function, so they are safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

Value = Union[int, float, Fraction]


class ConfigurationError(ValueError):
    """An auction input violates a structural invariant."""


class ModelWarning(UserWarning):
    """Lint-level validation finding that does not block construction."""


def _dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def _div(num, den):
    """Division that stays exact when both operands are int/Fraction."""
    if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
        return Fraction(num, den)
    return num / den


@dataclass(frozen=True)
class PortfolioSpec:
    """A divisible portfolio and its exact partition into packages.

    quantities and agreed_prices have length m; packages is a list of
    quantity vectors of length m whose component-wise sum equals
    quantities exactly. Prefer Fraction entries when inputs are
    rational: derived values then stay exact.
    """

    securities: tuple
    quantities: tuple
    agreed_prices: tuple
    packages: tuple

    def __post_init__(self):
        object.__setattr__(self, "securities", tuple(self.securities))
        object.__setattr__(self, "quantities", tuple(self.quantities))
        object.__setattr__(self, "agreed_prices", tuple(self.agreed_prices))
        object.__setattr__(self, "packages", tuple(tuple(p) for p in self.packages))

        m = len(self.securities)
        if m < 1:
            raise ConfigurationError("portfolio needs at least one security")
        for name, vec in (("quantities", self.quantities), ("agreed_prices", self.agreed_prices)):
            if len(vec) != m:
                raise ConfigurationError(f"{name} has length {len(vec)}, expected {m}")
        self.warn_if_below_three_securities(stacklevel=4)  # past the dataclass __init__
        if any(q < 0 for q in self.quantities):
            raise ConfigurationError("quantities must be nonnegative")
        if any(p <= 0 for p in self.agreed_prices):
            raise ConfigurationError("agreed prices must be strictly positive")

        if not self.packages:
            raise ConfigurationError("at least one package is required")
        for j, pkg in enumerate(self.packages):
            if len(pkg) != m:
                raise ConfigurationError(f"package {j} has length {len(pkg)}, expected {m}")
            if any(q < 0 for q in pkg):
                raise ConfigurationError(f"package {j} has a negative quantity")

        # The partition must be exact, component by component.
        for k in range(m):
            total = sum(pkg[k] for pkg in self.packages)
            if total != self.quantities[k]:
                raise ConfigurationError(
                    f"packages do not partition the portfolio: security "
                    f"{self.securities[k]!r} sums to {total}, expected {self.quantities[k]}"
                )

        for j, value in enumerate(self.package_values):
            if value <= 0:
                raise ConfigurationError(f"package {j} has nonpositive agreed value")

    def warn_if_below_three_securities(self, stacklevel=3) -> None:
        """Warn when the portfolio has fewer than 3 securities: the model
        is stated for 3 or more, but nothing breaks below, so this is a
        lint warning only. stacklevel is warnings.warn's, counted from
        here: the default names the line that called this method's caller."""
        if self.m < 3:
            warnings.warn(
                f"portfolio has only {self.m} securities; the model is stated for 3 or more",
                ModelWarning,
                stacklevel=stacklevel,
            )

    @property
    def m(self) -> int:
        return len(self.securities)

    @property
    def q(self) -> int:
        return len(self.packages)

    # The spec is frozen, so its values are computed once, on first use.
    @cached_property
    def total_value(self):
        """Agreed value of the whole portfolio."""
        return _dot(self.agreed_prices, self.quantities)

    @cached_property
    def package_values(self) -> tuple:
        """Agreed value of each package, in package order."""
        return tuple(_dot(self.agreed_prices, pkg) for pkg in self.packages)


@dataclass(frozen=True)
class WeightVector:
    """Package weights: agreed package value over agreed portfolio value."""

    weights: tuple

    _SUM_TOL = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ConfigurationError("weight vector is empty")
        if any(not (0 < w <= 1) for w in self.weights):
            raise ConfigurationError("each weight must lie in (0, 1]")
        total = sum(self.weights)
        if total != 1 and abs(total - 1) > self._SUM_TOL:  # exact weights skip the float test
            raise ConfigurationError(f"weights sum to {total}, expected 1")

    @property
    def q(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def warn_if_above_package_bound(self) -> None:
        """Warn when some weight exceeds 1/(q-1) for q packages.

        Above that bound the NVCG fees leave the core by individual
        rationality: on every strict coalition win (T < g) the local on
        that package is paid less than its own bid, since
        fee_j - b_j = (g - T)(1/w_j - (q-1)). The rules stay defined either
        way, so this is a lint warning only.
        """
        if self.q < 2:
            return
        bound = Fraction(1, self.q - 1)
        for j, w in enumerate(self.weights):
            if w > bound:
                warnings.warn(
                    f"weight {j} = {float(w):.4f} exceeds 1/(q-1) = {float(bound):.4f} "
                    f"for q = {self.q} packages; NVCG pays that package's local "
                    f"less than its bid on every strict coalition win",
                    ModelWarning,
                    stacklevel=2,
                )


@dataclass(frozen=True)
class BrokerProfile:
    """A participating broker.

    Locals bid on exactly one package (package_index); globals bid on the
    whole portfolio and carry no package_index. valuation is the broker's
    private break-even fee fraction.
    """

    id: str
    role: str  # "local" | "global"
    valuation: Value = 0
    package_index: Optional[int] = None

    def __post_init__(self):
        if self.role not in ("local", "global"):
            raise ConfigurationError(f"broker {self.id!r}: unknown role {self.role!r}")
        if self.role == "local":
            if self.package_index is None or self.package_index < 0:
                raise ConfigurationError(
                    f"local broker {self.id!r} must reference exactly one package"
                )
        elif self.package_index is not None:
            raise ConfigurationError(
                f"global broker {self.id!r} must not reference a package"
            )


def derive_weights(spec: PortfolioSpec) -> WeightVector:
    """Compute package weights from agreed values."""
    total = spec.total_value
    if total <= 0:
        raise ConfigurationError("portfolio has zero agreed value")
    return WeightVector(tuple(_div(value, total) for value in spec.package_values))
