"""Scenario files: schema, validation, and loading.

A scenario is a JSON document (schema_version 1) describing one auction
instance: the portfolio and its packages, the brokers, optional value
distributions per role, the pricing rule, per-broker strategies, seed and
replication count. All fees and valuations in files are quoted in basis
points (keys carry a _bps suffix); numbers parse exactly, decimals to
Fractions and integers to ints, so derived quantities stay bit-stable.

One schema table, checked by _SCENARIO, states each key's type, domain
and whether it is required; distributions and strategies are kind-tagged,
so a key the kind does not read is an unknown key. Every finding is
reported at its JSON path, one message each in a ScenarioValidationError.
The section code then only builds model objects and checks keys against
one another.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
import sys
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional

from .batch import SEED_LIMIT, _lru, check_weight
from .equilibrium import ValueDistribution
from .model import (BrokerProfile, ConfigurationError, PortfolioSpec, WeightVector,
                    derive_weights, is_number)
from .pricing import RULES
from .sim import BrokerStrategy, Strategy, StrategyProfile
from .units import BPS

SCHEMA_VERSION = 1
# Every number in a document is at most LIMIT in magnitude, and every package
# weight at least 2**-52. A VCG fee (g - sum_{j!=i} w_j b_j) / w_i then stays
# below about 1e112, the D-NVCG bonus below about 5e111 (an overbid is below its
# round-1 bid) and a payoff below about 1e213: every fee, cost and payoff of the
# float engines is finite, and every exact Fraction converts to a float.
LIMIT = 10**100
_NO_OFFSET = 0 * BPS

# loads_scenario keeps the configs of the LOADS documents loaded last: more
# than a loop over a few dozen files cycles through. A config is small.
LOADS = 64


class ScenarioParseError(ValueError):
    """The scenario file is not readable JSON."""


class ScenarioValidationError(ValueError):
    """The scenario parsed but violates the schema or an invariant."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated auction instance. It is immutable, distributions
    a read-only mapping: loads_scenario shares one config among every load
    of its document."""

    portfolio: PortfolioSpec
    weights: WeightVector
    brokers: tuple
    distributions: Mapping
    rule: str
    strategies: Optional[StrategyProfile]
    seed: int
    replications: int
    correlated_locals: bool = True
    name: str = ""
    digest: str = ""

    def __post_init__(self):
        object.__setattr__(self, "distributions", MappingProxyType(dict(self.distributions)))


def _exact(x):
    """x as an exact number: an int stays an int, as int arithmetic is
    exact and much faster than Fraction arithmetic. Any other number that
    is_number takes, such as a numpy float32 in a dict, goes through its
    float, since Fraction takes no numpy float but float64."""
    if type(x) is int:
        return x
    return Fraction(x if isinstance(x, (float, Fraction)) else float(x))


def _show(value):
    """A value for a message, a Fraction within the float range as a float."""
    floats = isinstance(value, Fraction) and abs(value) <= sys.float_info.max
    return reprlib.repr(float(value) if floats else value)


# Schema nodes are functions check(value, path, errors) that append one
# message per finding.
def _leaf(ok, wanted):
    def check(value, path, errors):
        if not ok(value):
            errors.append(f"{path}: expected {wanted}, got {_show(value)}")
    return check


def _optional(node):
    """node, or null, which reads as an absent key."""
    return lambda value, path, errors: value is None or node(value, path, errors)


def _integer(lo, hi=LIMIT + 1, wanted="an integer in [{lo}, 1e100]"):
    return _leaf(lambda x: type(x) is int and lo <= x < hi, wanted.format(lo=lo))


def _one_of(values):
    return _leaf(lambda x: isinstance(x, str) and x in values, f"one of {values}")


def _list(item, nonempty=False):
    def check(value, path, errors):
        if not isinstance(value, list) or nonempty and not value:
            errors.append(f"{path}: expected a {'nonempty ' * nonempty}list, got {_show(value)}")
            return
        for i, x in enumerate(value):
            item(x, f"{path}[{i}]", errors)
    return check


def _is_object(value, path, errors):
    if not isinstance(value, dict):
        errors.append(f"{path}: expected an object, got {_show(value)}")
    return isinstance(value, dict)


def _fields(table, kind=None):
    """check(value, path, errors) of an object against table, {key: (node,
    required)} (of the given kind, if tagged). It returns the keys whose
    values passed."""
    nodes = {key: node for key, (node, _) in table.items()}
    required = sorted(key for key, (_, needed) in table.items() if needed)
    unknown = f": unknown key for kind {kind!r}" if kind else ": unknown key"

    def check(value, path, errors):
        passed = set()
        for key, x in value.items():
            if key not in nodes:
                errors.append(f"{path}.{key}{unknown}")
                continue
            found = len(errors)
            nodes[key](x, f"{path}.{key}", errors)
            if len(errors) == found:
                passed.add(key)
        for key in required:
            if key not in value:
                errors.append(f"{path}: missing key {key!r}")
        return passed
    return check


def _object(table):
    """An object checked against table: the check returns the keys whose
    values passed, or False if value is not an object."""
    fields = _fields(table)

    def check(value, path, errors):
        return _is_object(value, path, errors) and fields(value, path, errors)
    return check


def _each(item):
    """An object whose keys the document chooses (broker ids)."""
    def check(value, path, errors):
        for key, x in value.items() if _is_object(value, path, errors) else ():
            item(x, f"{path}.{key}", errors)
    return check


def _kinds(kinds, default=None):
    """A kind-tagged object: kinds maps each kind to the fields it reads
    besides "kind", which is default when absent (required if None)."""
    tables = {kind: _fields({"kind": (_STRING, False), **fields}, kind)
              for kind, fields in kinds.items()}

    def check(value, path, errors):
        if not _is_object(value, path, errors):
            return
        if "kind" not in value and default is None:
            errors.append(f"{path}: missing key 'kind'")
            return
        kind = value.get("kind", default)
        if not (isinstance(kind, str) and kind in tables):
            errors.append(f"{path}.kind: expected one of {tuple(tables)}, got {_show(kind)}")
            return
        tables[kind](value, path, errors)
    return check


_STRING = _leaf(lambda x: isinstance(x, str), "a string")
_BOOL = _leaf(lambda x: isinstance(x, bool), "true or false")
_NUMBER = _leaf(lambda x: is_number(x, -LIMIT, LIMIT), "a number in [-1e100, 1e100]")
_POSITIVE = _leaf(lambda x: is_number(x, 0, LIMIT) and x != 0, "a number in (0, 1e100]")
_NONNEGATIVE = _leaf(lambda x: is_number(x, 0, LIMIT), "a number in [0, 1e100]")

_DISTRIBUTION = _kinds({
    "power-law": {"upper_bps": (_POSITIVE, True),
                  "shape": (_leaf(lambda x: is_number(x, 1, LIMIT) and x != 1,
                                  "a number in (1, 1e100]"), True)},
    "uniform": {"lower_bps": (_NUMBER, False), "upper_bps": (_NUMBER, True)},
    "empirical": {"sample_bps": (_list(_NUMBER, nonempty=True), True)},
})

_STRATEGY_KINDS = {
    "constant": {"value_bps": (_NONNEGATIVE, True)},
    "truthful": {},
    "offset": {"offset_bps": (_NUMBER, False)},
    "equilibrium": {
        "sigma": (_NONNEGATIVE, False),
        "in_qdown": (_BOOL, False),
        "ell": (_integer(0), False),
        # and at least the bidder's own weight: the prudent set includes it
        "sum_w_qdown": (_leaf(lambda x: is_number(x, 0, 1) and x != 0, "a number in (0, 1]"),
                        False),
    },
}

_SCENARIO = _object({
    "schema_version": (_leaf(lambda x: is_number(x) and x == SCHEMA_VERSION,
                             f"schema version {SCHEMA_VERSION}"), True),
    "name": (_STRING, False),
    "portfolio": (_object({
        "securities": (_list(_STRING), True),
        "quantities": (_list(_NONNEGATIVE), True),
        "agreed_prices": (_list(_POSITIVE), True),
        # read by no engine; kept valid under schema_version 1 (_portfolio)
        "anticipated_prices": (_list(_POSITIVE), False),
        "packages": (_list(_list(_NONNEGATIVE)), True),
    }), True),
    "brokers": (_list(_object({
        "id": (_STRING, True),
        "role": (_one_of(("local", "global")), True),
        "package_index": (_optional(_integer(0)), False),
        "valuation_bps": (_NUMBER, False),
    }), nonempty=True), True),
    "distributions": (_optional(_object({  # null: the role keeps its brokers' valuations
        role: (_optional(_DISTRIBUTION), False) for role in ("local", "global")})), False),
    "rule": (_one_of(RULES), True),
    "strategies": (_optional(_each(_object({
        "round1": (_kinds(_STRATEGY_KINDS, default="constant"), True),
        "round2": (_kinds({**_STRATEGY_KINDS, "capped-value": {}}, default="constant"), True),
    }))), False),
    "seed": (_integer(0, SEED_LIMIT, "an integer in [0, 2**128)"), False),
    "replications": (_integer(1), False),
    "correlated_locals": (_BOOL, False),
})


def _portfolio(data, errors):
    """The portfolio and its weights, or (None, None) if they cannot be built."""
    m, anticipated = len(data["securities"]), data.get("anticipated_prices")
    if anticipated is not None and len(anticipated) != m:
        errors.append(f"$.portfolio.anticipated_prices: expected one price per security "
                      f"({m}), got {len(anticipated)}")
    try:
        portfolio = PortfolioSpec(
            securities=tuple(data["securities"]),
            quantities=tuple(map(_exact, data["quantities"])),
            agreed_prices=tuple(map(_exact, data["agreed_prices"])),
            packages=tuple(tuple(map(_exact, p)) for p in data["packages"]),
        )
        weights = derive_weights(portfolio)
    except ConfigurationError as e:
        errors.append(f"$.portfolio: {e}")
        return None, None
    if portfolio.total_value > LIMIT:
        errors.append("$.portfolio: the agreed portfolio value is above 1e100")
    # The float engines price package j at (g - (total - w_j b_j)) / w_j:
    # below the float epsilon w_j b_j is lost in the total.
    errors.extend(f"$.portfolio: package {j}'s weight {_show(w)} is below the float epsilon "
                  f"2**-52" for j, w in enumerate(weights) if float(w) < sys.float_info.epsilon)
    return portfolio, weights


def _brokers(data, q, errors):
    """The brokers that build. The cross-checks read every entry's id and
    role as written, so an entry that fails to build adds no other finding."""
    brokers, seen = [], set()
    for i, entry in enumerate(data):
        if entry["id"] in seen:
            errors.append(f"$.brokers[{i}]: duplicate broker id {entry['id']!r}")
        seen.add(entry["id"])
        try:
            broker = BrokerProfile(
                id=entry["id"],
                role=entry["role"],
                package_index=entry.get("package_index"),
                valuation=_exact(entry.get("valuation_bps", 0)) * BPS,
            )
        except ConfigurationError as e:
            errors.append(f"$.brokers[{i}]: {e}")
            continue
        if broker.role == "local" and broker.package_index >= q:
            errors.append(f"$.brokers[{i}]: package_index {broker.package_index} out of range "
                          f"(portfolio has {q} packages)")
        brokers.append(broker)
    covered = {b.package_index for b in brokers if b.role == "local"}
    errors.extend(f"$.brokers: package {j} has no local bidder"
                  for j in range(q) if j not in covered)
    if not any(entry["role"] == "global" for entry in data):
        errors.append("$.brokers: no global broker")
    return tuple(brokers)


def _distribution(data, path, errors):
    def scaled(x_bps):
        return float(_exact(x_bps) * BPS)
    try:
        if data is None:
            return None
        if data["kind"] == "power-law":
            return ValueDistribution.power_law(upper=scaled(data["upper_bps"]),
                                               shape=float(data["shape"]))
        if data["kind"] == "uniform":
            return ValueDistribution.uniform(lower=scaled(data.get("lower_bps", 0)),
                                             upper=scaled(data["upper_bps"]))
        return ValueDistribution.empirical(tuple(scaled(x) for x in data["sample_bps"]))
    except ValueError as e:
        errors.append(f"{path}: {e}")


def _strategy(data):
    return Strategy(
        kind=data.get("kind", "constant"),
        value=data["value_bps"] * BPS if "value_bps" in data else None,
        offset=data["offset_bps"] * BPS if "offset_bps" in data else _NO_OFFSET,
        sigma=data.get("sigma", 0.0),
        in_qdown=data.get("in_qdown", False),
        ell=data.get("ell", 0),
        sum_w_qdown=data.get("sum_w_qdown"),
    )


def _check_strategies(profile, entries, brokers, weights, errors):
    """Strategies match the written broker entries one to one, and an
    equilibrium bid shades by a local's weight, with a prudent set that
    holds the bidder."""
    ids = {entry["id"] for entry in entries}
    errors.extend(f"$.strategies: unknown broker id {bid!r}"
                  for bid in profile.brokers if bid not in ids)
    for b in brokers:
        rounds = profile.brokers.get(b.id)
        if rounds is None:
            errors.append(f"$.strategies: no strategy for broker {b.id!r}")
            continue
        for name, st in (("round1", rounds.round1), ("round2", rounds.round2)):
            if st.kind != "equilibrium" or b.role == "local" and b.package_index >= len(weights):
                continue  # an out-of-range package_index is reported at the broker
            path = f"$.strategies.{b.id}.{name}"
            weight = weights[b.package_index] if b.role == "local" else None
            try:
                check_weight(b.id, st, weight)
            except ConfigurationError as e:
                errors.append(f"{path}: {e}")
                continue
            if st.in_qdown and st.sum_w_qdown is None:
                errors.append(f"{path}: missing key 'sum_w_qdown' (in_qdown reads it)")
            # in float, with room for round-off: a decimal or a Python float
            # rarely equals an exact weight such as 3/5 or 1/3
            elif st.in_qdown and float(st.sum_w_qdown) < float(weight) * (1 - 2**-52):
                errors.append(f"{path}.sum_w_qdown: expected at least the broker's package "
                              f"weight {_show(weight)}, got {_show(st.sum_w_qdown)}")


def scenario_from_dict(data: dict, name="", digest="") -> ScenarioConfig:
    """Validate a parsed scenario document and build the config."""
    errors = []
    good = _SCENARIO(data, "$", errors) or ()

    portfolio, weights = (_portfolio(data["portfolio"], errors) if "portfolio" in good
                          else (None, None))
    brokers = ()
    if portfolio is not None and "brokers" in good:
        brokers = _brokers(data["brokers"], portfolio.q, errors)
    dist_cfg = data.get("distributions") if "distributions" in good else None
    dists = {role: _distribution(dist_cfg.get(role), f"$.distributions.{role}", errors)
             if dist_cfg is not None else None for role in ("local", "global")}
    strategies = None
    if "strategies" in good and data["strategies"] is not None:
        strategies = StrategyProfile({
            bid: BrokerStrategy(round1=_strategy(rounds["round1"]),
                                round2=_strategy(rounds["round2"]))
            for bid, rounds in data["strategies"].items()})
        if brokers:
            _check_strategies(strategies, data["brokers"], brokers, weights, errors)
    if errors:
        raise ScenarioValidationError(errors)

    weights.warn_if_above_package_bound()
    return ScenarioConfig(
        portfolio=portfolio,
        weights=weights,
        brokers=brokers,
        distributions=dists,
        rule=data["rule"],
        strategies=strategies,
        seed=data.get("seed", 0),
        replications=data.get("replications", 1),
        correlated_locals=data.get("correlated_locals", True),
        name=data.get("name", name),
        digest=digest,
    )


_loaded = OrderedDict()


def loads_scenario(text: str, name="") -> ScenarioConfig:
    """Parse and fully validate a scenario document, once per process: the
    config is kept for the LOADS documents loaded last, keyed by the text's
    sha256 digest and name (the name a document without a "name" key
    takes), and a later load of the same text returns the same config.
    Every load, kept or not, issues the document's ModelWarnings. Parse and
    validation errors are not kept, so they are raised on every load."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    key = (digest, name)
    kept = key in _loaded
    config = _lru(_loaded, key, LOADS, lambda: _parse(text, name, digest))
    if kept:
        config.portfolio.warn_if_below_three_securities()
        config.weights.warn_if_above_package_bound()
    return config


def _parse(text, name, digest):
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as e:
        raise ScenarioParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ScenarioParseError("top-level value must be an object")
    return scenario_from_dict(data, name=name, digest=digest)


def load_scenario(path) -> ScenarioConfig:
    """Load and fully validate a scenario file: its text goes through
    loads_scenario, so a file whose content is unchanged is validated once
    per process, and a rewritten file is loaded afresh."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ScenarioParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    return loads_scenario(text)


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
    return loads_scenario(ref.read_text(encoding="utf-8"), name=name)
