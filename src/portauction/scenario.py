"""Scenario files: schema, validation, and loading.

A scenario is a JSON document (schema_version 1) describing one auction
instance: the portfolio and its packages, the brokers, optional value
distributions per role, the pricing rule, per-broker strategies, seed and
replication count. All fees and valuations in files are quoted in basis
points (keys carry a _bps suffix); numbers parse to exact Fractions so
derived quantities stay bit-stable.

Unknown keys are rejected. Validation failures raise ScenarioValidationError
with one message per finding, each prefixed by its JSON path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from . import sim
from .batch import SEED_LIMIT, check_weight
from .equilibrium import ValueDistribution
from .model import (
    BrokerProfile,
    ConfigurationError,
    PortfolioSpec,
    WeightVector,
    derive_weights,
    is_number,
)
from .pricing import RULES
from .units import BPS

SCHEMA_VERSION = 1


class ScenarioParseError(ValueError):
    """The scenario file is not readable JSON."""


class ScenarioValidationError(ValueError):
    """The scenario parsed but violates the schema or an invariant."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated auction instance."""

    portfolio: PortfolioSpec
    weights: WeightVector
    brokers: tuple
    distributions: dict
    rule: str
    strategies: Optional[sim.StrategyProfile]
    seed: int
    replications: int
    correlated_locals: bool = True
    name: str = ""
    digest: str = ""
    source_path: Optional[str] = None

    def broker(self, broker_id) -> BrokerProfile:
        for b in self.brokers:
            if b.id == broker_id:
                return b
        raise KeyError(broker_id)


def _require_keys(data, allowed, required, path, errors):
    """False, with the findings in errors, unless data is an object holding
    every required key; unknown keys are findings too."""
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object")
        return False
    unknown = set(data) - set(allowed)
    for k in sorted(unknown):
        errors.append(f"{path}: unknown key {k!r}")
    missing = set(required) - set(data)
    for k in sorted(missing):
        errors.append(f"{path}: missing key {k!r}")
    return not missing


def _frac(x):
    """Exact numeric conversion of an int, a Fraction (as JSON floats parse)
    or a finite float, which keeps its exact binary value."""
    if not is_number(x):
        raise TypeError(f"expected a number, got {x!r}")
    return Fraction(x)


def _num_list(xs, path, errors):
    try:
        return tuple(_frac(x) for x in xs)
    except TypeError as e:
        errors.append(f"{path}: {e}")
        return ()


def _parse_portfolio(data, errors):
    path = "$.portfolio"
    allowed = ("securities", "quantities", "agreed_prices", "anticipated_prices", "packages")
    if not _require_keys(data, allowed, allowed, path, errors):
        return None
    for key in ("securities", "packages"):
        if not isinstance(data[key], list):
            errors.append(f"{path}.{key}: expected a list")
            return None
    bad = [(k, s) for k, s in enumerate(data["securities"]) if not isinstance(s, str)]
    for k, s in bad:
        errors.append(f"{path}.securities[{k}]: expected a string, got {s!r}")
    if bad:
        return None
    try:
        return PortfolioSpec(
            securities=tuple(data["securities"]),
            quantities=_num_list(data["quantities"], f"{path}.quantities", errors),
            agreed_prices=_num_list(data["agreed_prices"], f"{path}.agreed_prices", errors),
            anticipated_prices=_num_list(
                data["anticipated_prices"], f"{path}.anticipated_prices", errors
            ),
            packages=tuple(
                _num_list(p, f"{path}.packages[{j}]", errors)
                for j, p in enumerate(data["packages"])
            ),
        )
    except ConfigurationError as e:
        errors.append(f"{path}: {e}")
        return None


# The keys each distribution kind reads besides "kind", and those it needs.
_DISTRIBUTION_KEYS = {
    "power-law": (("upper_bps", "shape"), ("upper_bps", "shape")),
    "uniform": (("lower_bps", "upper_bps"), ("upper_bps",)),
    "empirical": (("sample_bps",), ("sample_bps",)),
}


def _parse_distribution(data, path, errors):
    if data is None:
        return None
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object")
        return None
    if "kind" not in data:
        errors.append(f"{path}: missing key 'kind'")
        return None
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _DISTRIBUTION_KEYS:
        errors.append(f"{path}: unknown kind {kind!r}")
        return None
    allowed, required = _DISTRIBUTION_KEYS[kind]
    found = len(errors)
    _require_keys(data, ("kind", *allowed), required, path, errors)
    if len(errors) > found:
        return None
    try:
        if kind == "power-law":
            if not is_number(data["shape"]):
                errors.append(f"{path}.shape: expected a number, got {data['shape']!r}")
                return None
            return ValueDistribution.power_law(
                upper=float(_frac(data["upper_bps"]) * BPS), shape=float(data["shape"])
            )
        if kind == "uniform":
            return ValueDistribution.uniform(
                lower=float(_frac(data.get("lower_bps", 0)) * BPS),
                upper=float(_frac(data["upper_bps"]) * BPS),
            )
        return ValueDistribution.empirical(
            tuple(float(_frac(x) * BPS) for x in data["sample_bps"])
        )
    except (TypeError, ValueError) as e:
        errors.append(f"{path}: {e}")
    return None


def _parse_brokers(data, n_packages, errors):
    path = "$.brokers"
    brokers = []
    seen = set()
    if not isinstance(data, list) or not data:
        errors.append(f"{path}: expected a nonempty list")
        return ()
    for i, entry in enumerate(data):
        p = f"{path}[{i}]"
        allowed = ("id", "role", "package_index", "valuation_bps")
        if not _require_keys(entry, allowed, ("id", "role"), p, errors):
            continue
        if not isinstance(entry["id"], str):
            errors.append(f"{p}.id: expected a string, got {entry['id']!r}")
            continue
        index = entry.get("package_index")
        if index is not None and (isinstance(index, bool) or not isinstance(index, int)):
            errors.append(f"{p}.package_index: expected an integer, got {index!r}")
            continue
        try:
            broker = BrokerProfile(
                id=entry["id"],
                role=entry["role"],
                package_index=entry.get("package_index"),
                valuation=_frac(entry.get("valuation_bps", 0)) * BPS,
            )
        except (ConfigurationError, KeyError, TypeError) as e:
            errors.append(f"{p}: {e}")
            continue
        if broker.id in seen:
            errors.append(f"{p}: duplicate broker id {broker.id!r}")
        seen.add(broker.id)
        if broker.role == "local" and broker.package_index >= n_packages:
            errors.append(
                f"{p}: package_index {broker.package_index} out of range "
                f"(portfolio has {n_packages} packages)"
            )
        brokers.append(broker)

    covered = {b.package_index for b in brokers if b.role == "local"}
    for j in range(n_packages):
        if j not in covered:
            errors.append(f"{path}: package {j} has no local bidder")
    if not any(b.role == "global" for b in brokers):
        errors.append(f"{path}: no global broker")
    return tuple(brokers)


def scenario_from_dict(data: dict, name="", digest="", source_path=None) -> ScenarioConfig:
    """Validate a parsed scenario document and build the config."""
    errors = []
    allowed = (
        "schema_version", "name", "portfolio", "brokers", "distributions", "rule",
        "strategies", "seed", "replications", "correlated_locals",
    )
    _require_keys(data, allowed, ("schema_version", "portfolio", "brokers", "rule"), "$", errors)
    if data.get("schema_version") not in (None, SCHEMA_VERSION):
        errors.append(f"$.schema_version: unsupported version {data.get('schema_version')!r}")
    if not isinstance(data.get("name", name), str):
        errors.append(f"$.name: expected a string, got {data['name']!r}")

    portfolio = _parse_portfolio(data.get("portfolio"), errors) if "portfolio" in data else None
    weights = None
    if portfolio is not None:
        weights = derive_weights(portfolio)

    rule = data.get("rule")
    if rule not in RULES:
        errors.append(f"$.rule: expected one of {RULES}, got {rule!r}")

    brokers = ()
    if portfolio is not None and "brokers" in data:
        brokers = _parse_brokers(data["brokers"], portfolio.q, errors)

    dists = {"local": None, "global": None}
    dist_cfg = data.get("distributions")
    if dist_cfg is not None and _require_keys(dist_cfg, tuple(dists), (), "$.distributions",
                                              errors):
        for role in dists:
            dists[role] = _parse_distribution(dist_cfg.get(role), f"$.distributions.{role}",
                                              errors)

    strategies = None
    strategy_cfg = data.get("strategies")
    if strategy_cfg is not None and not isinstance(strategy_cfg, dict):
        errors.append("$.strategies: expected an object")
    elif strategy_cfg is not None:
        try:
            strategies = sim.profile_from_config(strategy_cfg, BPS)
        except ConfigurationError as e:
            errors.append(f"$.strategies.{e}")
        if strategies is not None:
            broker_ids = {b.id for b in brokers}
            for bid in strategies.brokers:
                if bid not in broker_ids:
                    errors.append(f"$.strategies: unknown broker id {bid!r}")
            for bid in broker_ids - set(strategies.brokers):
                errors.append(f"$.strategies: no strategy for broker {bid!r}")
            for b in brokers:
                if b.role != "global" or b.id not in strategies.brokers:
                    continue
                for name in ("round1", "round2"):
                    try:
                        check_weight(b.id, getattr(strategies[b.id], name), None)
                    except ConfigurationError as e:
                        errors.append(f"$.strategies.{b.id}.{name}: {e}")

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < SEED_LIMIT:
        errors.append(f"$.seed: expected an integer in [0, 2**128), got {seed!r}")
    replications = data.get("replications", 1)
    if not isinstance(replications, int) or isinstance(replications, bool) or replications < 1:
        errors.append(f"$.replications: expected a positive integer, got {replications!r}")
    correlated = data.get("correlated_locals", True)
    if not isinstance(correlated, bool):
        errors.append(f"$.correlated_locals: expected true or false, got {correlated!r}")

    if errors:
        raise ScenarioValidationError(errors)

    weights.warn_if_above_package_bound()
    return ScenarioConfig(
        portfolio=portfolio,
        weights=weights,
        brokers=brokers,
        distributions=dists,
        rule=rule,
        strategies=strategies,
        seed=seed,
        replications=replications,
        correlated_locals=correlated,
        name=data.get("name", name),
        digest=digest,
        source_path=source_path,
    )


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def loads_scenario(text: str, name="", source_path=None) -> ScenarioConfig:
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ScenarioParseError("top-level value must be an object")
    return scenario_from_dict(
        data, name=name, digest=_digest(text.encode()), source_path=source_path
    )


def load_scenario(path) -> ScenarioConfig:
    """Load and fully validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_scenario(text, source_path=str(path))


def builtin_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenarios bundled with the package."""
    ref = resources.files("portauction").joinpath(f"scenarios/{name}.json")
    if not ref.is_file():
        available = sorted(
            p.name[:-5]
            for p in resources.files("portauction").joinpath("scenarios").iterdir()
            if p.name.endswith(".json")
        )
        raise FileNotFoundError(f"no builtin scenario {name!r}; available: {available}")
    return loads_scenario(ref.read_text(encoding="utf-8"), name=name,
                          source_path=f"builtin:{name}")
