import contextlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portauction import __version__, batch, cli
from portauction.batch import CHUNK
from portauction.mechanism import run_auction, transcript_dict
from portauction.model import ConfigurationError, ModelWarning
from portauction.pricing import RULES, nvcg_fees
from portauction.scenario import (
    LOADS,
    ScenarioParseError,
    ScenarioValidationError,
    builtin_scenario,
    load_scenario,
    loads_scenario,
    scenario_from_dict,
)
from portauction.sim import simulate
from portauction.units import fmt_bps

import pin_simulate


GOLDEN = Path(__file__).parent / "golden"


def _example1_text():
    import importlib.resources as res

    return res.files("portauction").joinpath("scenarios/example1.json").read_text()


def test_builtin_scenarios_load():
    sc = builtin_scenario("example1")
    assert sc.name == "example1"
    assert tuple(sc.weights) == (F(3, 5), F(2, 5))
    assert sc.strategies["L1"].round1.value == F(27, 10_000)
    assert len(sc.digest) == 64

    sc = builtin_scenario("table1")
    assert tuple(sc.weights) == (
        F(18, 100), F(22, 100), F(18, 100), F(20, 100), F(22, 100)
    )
    with pytest.raises(FileNotFoundError):
        builtin_scenario("nope")


def test_builtin_scenarios_load_without_model_warnings():
    names = [p.name[:-5] for p in resources.files("portauction").joinpath("scenarios").iterdir()
             if p.name.endswith(".json")]
    assert len(names) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", ModelWarning)
        for name in names:
            builtin_scenario(name)


def test_weight_lint_marks_the_nvcg_ir_breach(tmp_path):
    """q = 3 and w = (0.6, 0.2, 0.2): 0.6 > 1/(q-1), and NVCG pays broker 0
    less than its bid."""
    data = json.loads(_example1_text())
    data["portfolio"] = {
        "securities": ["A", "B", "C"],
        "quantities": [3, 1, 1],
        "agreed_prices": [1, 1, 1],
        "anticipated_prices": [1, 1, 1],
        "packages": [[3, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    data["brokers"] = [
        {"id": f"L{j}", "role": "local", "package_index": j, "valuation_bps": 10}
        for j in range(3)
    ] + [{"id": "G", "role": "global", "valuation_bps": 12}]
    data.pop("strategies", None)
    p = tmp_path / "q3.json"
    p.write_text(json.dumps(data))
    with pytest.warns(ModelWarning, match=r"weight 0 = 0\.6000 exceeds 1/\(q-1\) = 0\.5000"):
        sc = load_scenario(p)
    assert tuple(sc.weights) == (F(3, 5), F(1, 5), F(1, 5))
    fees = nvcg_fees((10, 10, 10), sc.weights, 12)
    assert fees == (F(28, 3), 16, 16)
    assert fees[0] < 10


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(_example1_text())
    sc = load_scenario(p)
    assert sc.digest == builtin_scenario("example1").digest


def test_a_document_is_loaded_once_per_text_and_name():
    text = _example1_text()
    assert loads_scenario(text) is loads_scenario(text)
    assert builtin_scenario("example1") is builtin_scenario("example1")
    # the name argument names a document without a "name" key
    nameless = json.dumps({k: v for k, v in json.loads(text).items() if k != "name"})
    a, b = loads_scenario(nameless, name="a"), loads_scenario(nameless, name="b")
    assert (a.name, b.name) == ("a", "b")
    assert a == replace(b, name="a")


def test_a_rewritten_file_loads_its_new_content(tmp_path, capsys, monkeypatch):
    """The load and kernel caches are keyed by content: the records of every
    command on a file rewritten in place are those of a process whose
    caches are empty."""
    path = tmp_path / "powerlaw.json"
    commands = (["run"], ["simulate", "-n", "1000"], ["equilibrium"])

    def records():
        outs = [run_cli([c, str(path), *args, "--format", "records"], capsys)
                for c, *args in commands]
        assert [code for code, _, _ in outs] == [0] * len(commands)
        return [out for _, out, _ in outs]

    doc = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    path.write_text(json.dumps(doc))
    first = load_scenario(path)
    assert load_scenario(path) is first
    before = records()
    assert records() == before
    doc["strategies"]["L1"]["round2"] = {"kind": "offset", "offset_bps": 3}
    path.write_text(json.dumps(doc))
    after = records()
    assert all(a != b for a, b in zip(after, before))  # a new scenario_digest
    # L1's round-2 bid moves run's and simulate's results; equilibrium reads no strategy
    assert [json.loads(a)["result"] != json.loads(b)["result"]
            for a, b in zip(after, before)] == [True, True, False]
    monkeypatch.setattr("portauction.scenario._loaded", OrderedDict())
    monkeypatch.setattr("portauction.batch._kernels", OrderedDict())
    assert records() == after
    second = load_scenario(path)
    assert (second.strategies["L1"].round2.kind, second.strategies["L1"].round2.offset) == \
        ("offset", F(3, 10_000))
    assert second == scenario_from_dict(json.loads(path.read_text(), parse_float=F),
                                        digest=second.digest)
    assert first.strategies["L1"].round2.kind == "truthful" and first.digest != second.digest


def test_invalid_documents_raise_on_every_load(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return scenario_from_dict(*args, **kwargs)

    monkeypatch.setattr("portauction.scenario.scenario_from_dict", counted)
    doc = json.loads(_example1_text())
    doc["rule"] = "third-price"
    for text, error in (("{", ScenarioParseError), ("[]", ScenarioParseError),
                        (json.dumps(doc), ScenarioValidationError)):
        for _ in range(2):
            with pytest.raises(error):
                loads_scenario(text)
    assert len(calls) == 2  # the invalid object is validated again on the second load


def test_every_load_issues_the_model_warnings():
    """Two securities and weights (0.6, 0.2, 0.2): both lint warnings, on a
    first load and on a load of the kept config, each naming a source file
    (not the dataclass-generated __init__)."""
    doc = json.loads(_example1_text())
    doc["portfolio"] = {"securities": ["A", "B"], "quantities": [4, 1], "agreed_prices": [1, 1],
                        "packages": [[3, 0], [1, 0], [0, 1]]}
    doc["brokers"] = [{"id": f"L{j}", "role": "local", "package_index": j, "valuation_bps": 10}
                      for j in range(3)] + [{"id": "G", "role": "global", "valuation_bps": 12}]
    doc.pop("strategies", None)
    text = json.dumps(doc)
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loads_scenario(text)
        assert [(w.category, str(w.message)) for w in caught] == [
            (ModelWarning, "portfolio has only 2 securities; the model is stated for 3 or more"),
            (ModelWarning, "weight 0 = 0.6000 exceeds 1/(q-1) = 0.5000 for q = 3 packages; "
                           "NVCG pays that package's local less than its bid on every strict "
                           "coalition win"),
        ]
        assert [w.filename for w in caught if w.filename.startswith("<")] == []


def test_a_document_past_the_bound_loads_again_equal():
    doc = json.loads(_example1_text())
    text = json.dumps(doc)
    first = loads_scenario(text)
    for i in range(LOADS + 1):
        loads_scenario(json.dumps({**doc, "seed": doc["seed"] + 1 + i}))
    again = loads_scenario(text)
    assert again is not first and again == first


def test_loaded_mappings_are_read_only():
    sc = builtin_scenario("powerlaw")
    with pytest.raises(TypeError):
        sc.distributions["local"] = sc.distributions["global"]
    with pytest.raises(TypeError):
        sc.strategies.brokers["L1"] = sc.strategies["L2"]
    with pytest.raises(TypeError):
        del sc.strategies.brokers["G"]


def test_loads_of_one_file_share_its_kernel(tmp_path):
    path = tmp_path / "powerlaw.json"
    path.write_text(json.dumps(_BUNDLED["powerlaw"]))
    assert batch.kernel(load_scenario(path)) is batch.kernel(load_scenario(path))


def test_portfolio_integers_stay_ints():
    """Integer entries stay exact ints and build the same weights as the
    same portfolio written as decimals, which parse to Fractions."""
    data = json.loads(_example1_text())
    ints = scenario_from_dict(data)
    portfolio = data["portfolio"]
    for key in ("quantities", "agreed_prices", "anticipated_prices"):
        portfolio[key] = [float(x) for x in portfolio[key]]
    portfolio["packages"] = [[float(x) for x in p] for p in portfolio["packages"]]
    decimals = loads_scenario(json.dumps(data))
    p = ints.portfolio
    assert {type(x) for x in (*p.quantities, *p.agreed_prices, *p.packages[0])} == {int}
    assert {type(x) for x in decimals.portfolio.quantities} == {F}
    assert decimals.portfolio == p and decimals.weights == ints.weights
    assert {type(w) for w in ints.weights} == {F}


def test_parse_error_has_line_context():
    with pytest.raises(ScenarioParseError, match="line"):
        loads_scenario("{ not json }")


def test_unknown_keys_rejected():
    data = json.loads(_example1_text())
    data["reserve_price"] = 3
    with pytest.raises(ScenarioValidationError, match="reserve_price"):
        loads_scenario(json.dumps(data))


def test_partition_error_names_security():
    data = json.loads(_example1_text())
    data["portfolio"]["packages"][0] = [5, 0, 0]
    with pytest.raises(ScenarioValidationError, match="S1"):
        loads_scenario(json.dumps(data))


def test_validation_errors_accumulate():
    data = json.loads(_example1_text())
    data["rule"] = "third-price"
    data["brokers"][0]["package_index"] = 9
    del data["strategies"]["L2"]
    try:
        loads_scenario(json.dumps(data))
    except ScenarioValidationError as e:
        msgs = "\n".join(e.errors)
        assert "rule" in msgs
        assert "package_index 9" in msgs
        assert "L2" in msgs
    else:
        pytest.fail("expected ScenarioValidationError")


@pytest.mark.parametrize("key, value", [
    ("correlated_locals", "false"),
    ("correlated_locals", 0),
    ("correlated_locals", None),
    ("replications", True),
    ("replications", 2.0),
    ("seed", -1),
    ("seed", 2**128),
])
def test_booleans_and_counts_are_not_coerced(key, value):
    data = json.loads(_example1_text())
    data[key] = value
    with pytest.raises(ScenarioValidationError) as exc:
        loads_scenario(json.dumps(data))
    assert [e.split(": ")[0] for e in exc.value.errors] == [f"$.{key}"]


@pytest.mark.parametrize("keys, value, path", [
    (("output",), {"path": "out.json", "format": "records"}, "$.output"),  # no longer a key
    (("output",), 5, "$.output"),
    (("distributions",), 5, "$.distributions"),
    (("distributions",), [1], "$.distributions"),
    (("distributions", "global"), 5, "$.distributions.global"),
    (("distributions", "global", "shape"), "2", "$.distributions.global.shape"),
    (("brokers", 0), 5, "$.brokers[0]"),
    (("brokers", 0, "package_index"), True, "$.brokers[0].package_index"),
    (("portfolio", "packages"), 5, "$.portfolio.packages"),
    (("portfolio", "securities"), 5, "$.portfolio.securities"),
    (("strategies",), 5, "$.strategies"),
    (("strategies", "L1", "round2", "ell"), "x", "$.strategies.L1.round2.ell"),
    (("strategies", "L1", "round2", "ell"), -1, "$.strategies.L1.round2.ell"),
    (("strategies", "L1", "round2", "in_qdown"), "false", "$.strategies.L1.round2.in_qdown"),
    (("strategies", "L1", "round2", "sigma"), "x", "$.strategies.L1.round2.sigma"),
    (("strategies", "L1", "round2", "sum_w_qdown"), "x", "$.strategies.L1.round2.sum_w_qdown"),
    (("strategies", "L1", "round1", "value_bps"), "x", "$.strategies.L1.round1.value_bps"),
    (("distributions", "global", "sample_bps"), [5],
     "$.distributions.global.sample_bps"),  # not read
    (("distributions", "global", "lower_bps"), 0,
     "$.distributions.global.lower_bps"),  # not read
    (("distributions", "global", "kind"), ["power-law"], "$.distributions.global.kind"),
    (("distributions", "global", "upper_bps"), float("nan"),
     "$.distributions.global.upper_bps"),
    (("distributions", "global", "upper_bps"), float("inf"),
     "$.distributions.global.upper_bps"),
    (("brokers", 0, "valuation_bps"), float("-inf"), "$.brokers[0].valuation_bps"),
    (("brokers", 0, "id"), 5, "$.brokers[0].id"),
    (("brokers", 2, "id"), ["G"], "$.brokers[2].id"),
    (("name",), 5, "$.name"),
    (("portfolio", "securities", 1), 5, "$.portfolio.securities[1]"),
    (("strategies", "G", "round1"), {"kind": "equilibrium", "sigma": 0.001},
     "$.strategies.G.round1"),  # a global has no package weight to shade by
    (("strategies", "G", "round2"), {"kind": "equilibrium"}, "$.strategies.G.round2"),
    (("strategies", "L1", "round2"), {"kind": "equilibrium", "sigma": -0.5},
     "$.strategies.L1.round2.sigma"),
    (("strategies", "L1", "round2"), {"kind": "equilibrium", "sigma": 0.001, "in_qdown": True},
     "$.strategies.L1.round2"),  # dnvcg reads sum_w_qdown for a prudent bidder
    (("strategies", "L1", "round2"),
     {"kind": "equilibrium", "sigma": 0.001, "in_qdown": True, "sum_w_qdown": 1e-320},
     "$.strategies.L1.round2.sum_w_qdown"),  # below L1's own weight 0.6
    (("strategies", "L1", "round1", "sigma"), 0.001, "$.strategies.L1.round1.sigma"),
    pytest.param(("distributions", "global", "upper_bps"), 10**400,
                 "$.distributions.global.upper_bps", id="upper_bps-10**400"),
    pytest.param(("distributions", "global", "shape"), 10**400,
                 "$.distributions.global.shape", id="shape-10**400"),
    pytest.param(("portfolio", "agreed_prices", 0), 10**400,
                 "$.portfolio.agreed_prices[0]", id="agreed_prices-10**400"),
    pytest.param(("strategies", "L1", "round1", "value_bps"), 10**400,
                 "$.strategies.L1.round1.value_bps", id="value_bps-10**400"),
    # unread, but checked as before when present: one positive price per security
    pytest.param(("portfolio", "anticipated_prices"), 0,
                 "$.portfolio.anticipated_prices", id="anticipated_prices-0"),
    pytest.param(("portfolio", "anticipated_prices"), "x",
                 "$.portfolio.anticipated_prices", id="anticipated_prices-x"),
    pytest.param(("portfolio", "anticipated_prices"), [1, 1],
                 "$.portfolio.anticipated_prices", id="anticipated_prices-short"),
    pytest.param(("portfolio", "anticipated_prices"), [1, -1, 1],
                 "$.portfolio.anticipated_prices[1]", id="anticipated_prices-negative"),
    pytest.param(("portfolio", "quantities"), [6, 3], "$.portfolio", id="quantities-short"),
    pytest.param(("portfolio", "packages"), [], "$.portfolio", id="packages-empty"),
    pytest.param(("portfolio", "packages"), [[6, 0, 0], [0, 3, 1], [0, 0, 0]], "$.portfolio",
                 id="packages-all-zero"),
    pytest.param(("brokers", 1, "id"), "L1", "$.brokers[1]", id="duplicate-id"),
    pytest.param(("brokers", 2), {"id": "G", "role": "local", "package_index": 1},
                 "$.brokers", id="no-global"),
    pytest.param(("distributions", "local"), {"kind": "uniform", "lower_bps": 30,
                                              "upper_bps": 10},
                 "$.distributions.local", id="uniform-upper-below-lower"),
    pytest.param(("distributions", "global"), {"upper_bps": 40, "shape": 2},
                 "$.distributions.global", id="distribution-without-kind"),
])
def test_malformed_values_fail_at_their_json_path(keys, value, path, tmp_path, capsys):
    data = json.loads(resources.files("portauction").joinpath("scenarios/powerlaw.json")
                      .read_text())
    *parents, last = keys
    node = data
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ScenarioValidationError) as exc:
        loads_scenario(json.dumps(data))
    assert exc.value.errors[0].split(": ")[0] == path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli(["validate", str(bad)], capsys)
    assert code == 4
    assert f"- {path}: " in err


@pytest.mark.parametrize("index, edit, findings", [
    (2, {"package_index": 0}, ["$.brokers[2]: global broker 'G' must not reference a package"]),
    (0, {"package_index": None}, ["$.brokers[0]: local broker 'L1' must reference exactly one "
                                  "package", "$.brokers: package 0 has no local bidder"]),
])
def test_a_broker_that_fails_to_build_adds_no_other_finding(index, edit, findings):
    """The cross-checks read each entry's id and role as written: the
    global still counts as a global, and its strategy's id is known."""
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    data["brokers"][index].update(edit)
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(data)
    assert list(exc.value.errors) == findings


def _positions(node, path=()):
    """The path of every value below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _positions(value, path + (key,))


_BUNDLED = {name: json.loads(resources.files("portauction")
                             .joinpath(f"scenarios/{name}.json").read_text())
            for name in ("example1", "table1", "powerlaw")}
_WORDS = ["kind", "equilibrium", "uniform", "empirical", "global", "sigma", "in_qdown",
          "sum_w_qdown", "upper_bps", "lower_bps", "sample_bps", "value_bps", "offset_bps"]
_NUMBERS = st.integers(-2, 40) | st.sampled_from(
    [10**400, -10**400, 1e308, -1e308, 1e100, -1e100, 1e99, 5e-324, 0.5])
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=2) | st.sampled_from(_WORDS),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3)),
    max_leaves=5)
_NONFINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_fuzzed_scenarios_fail_validation_or_run(data, tmp_path_factory):
    """One value of a bundled scenario replaced by arbitrary JSON: the
    document fails validation at a JSON path or runs; it never exits 5, and
    no output holds inf or nan."""
    name = data.draw(st.sampled_from(sorted(_BUNDLED)))
    doc = json.loads(json.dumps(_BUNDLED[name]))
    *parents, last = data.draw(st.sampled_from(list(_positions(doc))))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = data.draw(_NUMBERS | _JSON)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))

    def call(*args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main([*args]), out.getvalue(), err.getvalue()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelWarning)
        code, _, err = call("validate", str(path))
        if code == 4:
            assert "  - $" in err
            return
        assert code == 0, err
        # a document may leave its strategies out (null reads as absent);
        # run and simulate then ask for them
        expected = (0, "") if doc.get("strategies") is not None else (
            4, "validation error: no strategy profile supplied\n")
        for args in (("run",), ("run", "--format", "records"), ("simulate", "-n", "20"),
                     ("simulate", "-n", "20", "--format", "records")):
            code, out, err = call(args[0], str(path), *args[1:])
            assert (code, err) == expected
            assert not _NONFINITE.search(out), out


def test_python_floats_parse_exactly():
    # A document built in Python may hold floats where JSON text gives
    # Fractions: each parses to its exact binary value.
    data = json.loads(resources.files("portauction").joinpath("scenarios/powerlaw.json")
                      .read_text())
    data["distributions"]["local"] = {"kind": "uniform", "lower_bps": 0.5, "upper_bps": 30.25}
    data["distributions"]["global"]["upper_bps"] = 40.5
    data["brokers"][0]["valuation_bps"] = 0.1
    data["portfolio"]["agreed_prices"] = [1.5, 1.0, 1.0]
    sc = scenario_from_dict(data)
    assert sc.brokers[0].valuation == F(0.1) * F(1, 10_000)
    assert sc.portfolio.agreed_prices == (F(3, 2), 1, 1)
    # binary fractions read the same from either form
    del data["brokers"][0]["valuation_bps"]
    assert scenario_from_dict(data).distributions == loads_scenario(json.dumps(data)).distributions


def test_prudent_set_of_the_bidder_alone_loads_as_written():
    # sum_w_qdown written as the bidder's own weight, 3/5 here, as a Python
    # float or in JSON text: neither equals the exact weight
    doc = pin_simulate._equilibrium()
    sc = scenario_from_dict(doc)
    assert sc.weights[0] == F(3, 5)
    assert sc.strategies["L1"].round2.sum_w_qdown == 0.6
    assert scenario_from_dict(json.loads(json.dumps(doc), parse_float=F)).strategies == \
        loads_scenario(json.dumps(doc)).strategies

    # a weight of 1/3, which no decimal matches
    data = json.loads(_example1_text())
    data["portfolio"] = {"securities": ["A", "B", "C"], "quantities": [1, 1, 1],
                         "agreed_prices": [1, 1, 1], "anticipated_prices": [1, 1, 1],
                         "packages": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    data["brokers"] = [{"id": f"L{j}", "role": "local", "package_index": j} for j in range(3)] \
        + [{"id": "G", "role": "global"}]
    data["strategies"] = {b["id"]: {"round1": {"kind": "truthful"},
                                    "round2": {"kind": "truthful"}} for b in data["brokers"]}
    prudent = {"kind": "equilibrium", "sigma": 0.001, "in_qdown": True}
    for sum_w_qdown in (0.3333333333333333, 1 / 3):
        data["strategies"]["L0"]["round2"] = {**prudent, "sum_w_qdown": sum_w_qdown}
        assert scenario_from_dict(data).weights[0] == F(1, 3)
        assert loads_scenario(json.dumps(data)).weights[0] == F(1, 3)
    data["strategies"]["L0"]["round2"] = {**prudent, "sum_w_qdown": 0.333333333333333}
    with pytest.raises(ScenarioValidationError) as exc:
        loads_scenario(json.dumps(data))
    assert exc.value.errors == ("$.strategies.L0.round2.sum_w_qdown: expected at least the "
                                "broker's package weight 0.3333333333333333, got "
                                "0.333333333333333",)


def test_null_optional_keys_read_as_absent():
    data = json.loads(resources.files("portauction").joinpath("scenarios/powerlaw.json")
                      .read_text())
    base = scenario_from_dict(data)
    g = next(i for i, b in enumerate(data["brokers"]) if b["role"] == "global")
    data["brokers"][g]["package_index"] = None
    data["schema_version"] = 1.0
    assert scenario_from_dict(data) == base
    assert scenario_from_dict(json.loads(json.dumps(data), parse_float=F)) == base
    for key in ("distributions", "strategies"):
        data[key] = None
        sc = scenario_from_dict(data)
        del data[key]
        assert sc == scenario_from_dict(data)
    assert sc.strategies is None and sc.distributions == {"local": None, "global": None}


@pytest.mark.parametrize("name", ["example1", "table1", "powerlaw"])
def test_anticipated_prices_are_optional_and_unread(name, capsys, tmp_path):
    """schema_version 1 keeps anticipated_prices as an optional key that no
    engine reads: without it a bundled scenario validates and runs to the
    same records, apart from the document's digest."""
    data = json.loads(resources.files("portauction").joinpath(f"scenarios/{name}.json")
                      .read_text())
    del data["portfolio"]["anticipated_prices"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", str(path)], capsys)[0] == 0
    digest = builtin_scenario(name).digest
    for args in (["run"], ["simulate", "-n", "200"]):
        code, want, _ = run_cli([args[0], name, *args[1:], "--format", "records"], capsys)
        assert code == 0
        code, got, _ = run_cli([args[0], str(path), *args[1:], "--format", "records"], capsys)
        assert code == 0
        stripped = json.loads(got)["scenario_digest"]
        assert stripped != digest
        assert got.replace(stripped, digest) == want


def test_seed_takes_any_philox_key():
    data = json.loads(_example1_text())
    for seed in (0, 2**128 - 1):
        data["seed"] = seed
        assert loads_scenario(json.dumps(data)).seed == seed


@pytest.mark.parametrize("value", [True, False])
def test_correlated_locals_takes_a_json_boolean(value):
    data = json.loads(_example1_text())
    data["correlated_locals"] = value
    assert loads_scenario(json.dumps(data)).correlated_locals is value


def test_bps_quantities_parse_exactly():
    sc = builtin_scenario("table1")
    assert sc.strategies["L3"].round1.value == F(36, 10_000)
    assert sc.brokers[0].valuation == 0


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _strict_json(text):
    """The records document, failing on the NaN and Infinity that
    json.loads would accept."""
    def reject(constant):
        raise AssertionError(f"records hold {constant}")
    return json.loads(text, parse_constant=reject)


def test_cli_run_table(capsys):
    code, out, _ = run_cli(["run", "example1", "--rule", "dnvcg"], capsys)
    assert code == 0
    assert "winner: coalition" in out
    assert "L1=28, L2=13" in out


def test_cli_run_records(capsys):
    code, out, _ = run_cli(["run", "example1", "--format", "records"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "run"
    assert doc["engine_version"]
    assert doc["scenario_digest"]
    assert doc["seed"] == 7
    assert doc["result"]["outcome"]["winner"] == "coalition"


def test_the_module_entry_point_writes_strict_json_records(capsys):
    """python -m portauction.cli in a fresh process writes the records that
    cli.main writes in this one, as strict JSON, and exits 0."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    args = ["run", "powerlaw", "--format", "records"]
    proc = subprocess.run([sys.executable, "-m", "portauction.cli", *args],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert _strict_json(proc.stdout)["command"] == "run"
    assert proc.stdout == run_cli(args, capsys)[1]


def test_cli_run_rule_runs_the_scenario_under_that_rule(capsys):
    code, out, _ = run_cli(
        ["run", "example1", "--rule", "dnvcg", "--format", "records"], capsys)
    assert code == 0
    scenario = replace(builtin_scenario("example1"), rule="dnvcg")
    assert json.loads(out)["result"] == transcript_dict(run_auction(scenario))


def test_fees_past_the_float_range_fail_validation(capsys, tmp_path):
    """A global drawn up to 1e308 bps, and fixed there in round 1, is past
    the 1e100 bound: every command exits 4 at both JSON paths, printing
    nothing."""
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    data["distributions"]["global"]["upper_bps"] = 1e308
    data["strategies"]["G"]["round1"]["value_bps"] = 1e308
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    for args in (["validate"], ["run", "--format", "records"], ["run"]):
        code, out, err = run_cli([args[0], str(path), *args[1:]], capsys)
        assert (code, out) == (4, ""), err
        assert "  - $.distributions.global.upper_bps: " in err
        assert "  - $.strategies.G.round1.value_bps: " in err


def _extreme_doc(drawn):
    """Package weights about 1 and 2e-15, both locals truthful at 1e300
    bps, and a global at 1e308 bps, drawn from a power law or fixed: its
    float fees would overflow to -inf and NaN, and its exact fees would
    exceed the float range."""
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    data["portfolio"].update(quantities=[10**15, 1, 1], packages=[[10**15, 0, 0], [0, 1, 1]])
    for b in data["brokers"]:
        b["valuation_bps"] = 1e308 if b["role"] == "global" else 1e300
    data["rule"] = "nvcg"
    data["strategies"] = {b["id"]: {"round1": {"kind": "truthful"}, "round2": {"kind": "truthful"}}
                          for b in data["brokers"]}
    if drawn:
        data["distributions"]["global"]["upper_bps"] = 1e308
    else:
        del data["distributions"]
    return data


@pytest.mark.parametrize("drawn, args", [
    pytest.param(True, ["run"], id="run-nonfinite"),
    pytest.param(True, ["simulate", "-n", "20"], id="simulate-nonfinite"),
    pytest.param(False, ["run"], id="run-exact-overflow"),
])
def test_cli_records_are_strict_json(drawn, args, capsys, tmp_path):
    """A document whose fees JSON cannot hold is past the 1e100 bound: it
    fails validation at its first such value, and neither format writes
    anything."""
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(_extreme_doc(drawn)))
    finding = "  - $.brokers[0].valuation_bps: expected a number in [-1e100, 1e100], got 1e+300\n"
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 4
    assert finding in err
    out = tmp_path / "out.txt"
    for fmt in ("records", "table"):
        code, stdout, err = run_cli([args[0], str(path), *args[1:], "--format", fmt,
                                     "--out", str(out)], capsys)
        assert (code, stdout) == (4, "")
        assert finding in err
        assert not out.exists()


_ABOVE = int(math.nextafter(1e100, math.inf))  # the next float above 1e100, exactly


@pytest.mark.parametrize("keys, at_limit, above, path", [
    pytest.param(("brokers", 0, "valuation_bps"), "1e100", repr(float(_ABOVE)),
                 "$.brokers[0].valuation_bps", id="valuation_bps"),
    pytest.param(("brokers", 0, "valuation_bps"), "-1e100", repr(-float(_ABOVE)),
                 "$.brokers[0].valuation_bps", id="valuation_bps-negative"),
    pytest.param(("strategies", "L1", "round2", "ell"), str(10**100), str(_ABOVE),
                 "$.strategies.L1.round2.ell", id="ell"),
    # three securities at one price p: the portfolio value is 10 p
    pytest.param(("portfolio", "agreed_prices"), "[1e99, 1e99, 1e99]",
                 "[{0}, {0}, {0}]".format(f"{_ABOVE // 10}.{_ABOVE % 10}"),
                 "$.portfolio", id="portfolio-value"),
])
def test_numbers_are_at_most_1e100(keys, at_limit, above, path):
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    data["strategies"]["L1"]["round2"] = {"kind": "equilibrium", "sigma": 0.001}
    *parents, last = keys
    node = data
    for key in parents:
        node = node[key]
    node[last] = "@"
    text = json.dumps(data)
    loads_scenario(text.replace('"@"', at_limit))
    with pytest.raises(ScenarioValidationError) as exc:
        loads_scenario(text.replace('"@"', above))
    assert [e.split(": ")[0] for e in exc.value.errors] == [path]


@pytest.mark.parametrize("rule", ["vcg", "nvcg", "dnvcg"])
@pytest.mark.parametrize("drawn", [True, False], ids=["drawn", "fixed"])
def test_documents_at_the_bound_print_finite_numbers(rule, drawn, capsys, tmp_path):
    """Fees near the largest the bound admits, about 2e115 bps: package
    weights about 1 and 4.4e-16, L1 valuing its package at 0, L2 and the
    global at 1e100 bps (the global drawn up to 1e100 or fixed), every
    round-1 bid at 1e100 bps. Every command exits 0 and prints only finite
    numbers, and no float engine overflows on the way."""
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    data["portfolio"].update(quantities=[2**52, 1, 1], packages=[[2**52, 0, 0], [0, 1, 1]])
    data["rule"] = rule
    for b in data["brokers"]:
        b["valuation_bps"] = 0 if b["id"] == "L1" else 1e100
        data["strategies"][b["id"]]["round1"] = {"value_bps": 1e100}
    if drawn:
        data["distributions"]["global"]["upper_bps"] = 1e100
    else:
        del data["distributions"]
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(data))
    for args in (["run"], ["run", "--format", "records"], ["simulate", "-n", "50"],
                 ["simulate", "-n", "50", "--format", "records"]):
        code, out, err = run_cli([args[0], str(path), *args[1:]], capsys)
        assert code == 0, err
        assert not _NONFINITE.search(out), out


@pytest.mark.parametrize("fee_bps, text", [
    (17.5, "17.5"), (F(-1, 3), "-0.33"), (-0.0, "0"), (0.29, "0.28"),
])
def test_fmt_bps(fee_bps, text):
    assert fmt_bps(fee_bps) == text


def test_cli_simulate(capsys, tmp_path):
    out_path = tmp_path / "m.json"
    code, _, _ = run_cli(
        ["simulate", "powerlaw", "-n", "50", "--seed", "3",
         "--format", "records", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["replications"] == 50
    assert 0 <= doc["result"]["coalition_win_rate"] <= 1


def _drawn_values_scenario(tmp_path):
    """Two locals per package with drawn values and a power-law global:
    the run engine's bids and diagnostics come out of numpy draws."""
    data = json.loads(_example1_text())
    data["brokers"] = [
        {"id": "L1", "role": "local", "package_index": 0},
        {"id": "L1b", "role": "local", "package_index": 0},
        {"id": "L2", "role": "local", "package_index": 1},
        {"id": "L2b", "role": "local", "package_index": 1},
        {"id": "G", "role": "global"},
    ]
    data["distributions"] = {
        "local": {"kind": "uniform", "lower_bps": 5, "upper_bps": 30},
        "global": {"kind": "power-law", "upper_bps": 40, "shape": 2.0},
    }
    truthful = {"round1": {"kind": "offset", "offset_bps": 2}, "round2": {"kind": "truthful"}}
    data["strategies"] = {b["id"]: truthful for b in data["brokers"][:4]}
    data["strategies"]["G"] = {"round1": {"kind": "constant", "value_bps": 40},
                               "round2": {"kind": "capped-value"}}
    data["correlated_locals"] = False
    path = tmp_path / "drawn.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_cli_records_with_drawn_values_round_trip(command, capsys, tmp_path):
    path = _drawn_values_scenario(tmp_path)
    for seed in range(3):
        code, out, err = run_cli([command, str(path), "--seed", str(seed),
                                  "--format", "records"], capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
        if command == "run":
            assert isinstance(doc["result"]["outcome"]["diagnostics"]["tie"], bool)
        else:
            assert isinstance(doc["result"]["frontier_gap_max"], float)


@pytest.mark.parametrize("name", ["powerlaw", "market"])
def test_cli_run_is_replication_zero_of_simulate(name, capsys, tmp_path):
    """Under every rule; the market's locals play equilibrium and offset bids."""
    if name == "powerlaw":
        ref, config = name, builtin_scenario(name)
    else:
        path = tmp_path / "market.json"
        path.write_text(json.dumps(pin_simulate._market()))
        ref, config = str(path), load_scenario(path)
    for rule, seed in itertools.product(RULES, range(4)):
        code, out, err = run_cli(["run", ref, "--seed", str(seed), "--rule", rule,
                                  "--format", "records"], capsys)
        assert code == 0, err
        run = _strict_json(out)["result"]
        assert run["rule"] == rule
        code, out, err = run_cli(["simulate", ref, "-n", "1", "--seed", str(seed),
                                  "--rule", rule, "--format", "records"], capsys)
        assert code == 0, err
        result = _strict_json(out)["result"]
        assert result["rule"] == rule
        won = result["coalition_win_rate"] == 1.0
        assert (run["outcome"]["winner"] == "coalition") is won
        g2 = run["ledger"]["round2"][run["qualification"]["qualified_global"]]
        assert g2 == pin_simulate.replications(replace(config, rule=rule), 1, seed)[
            "global_bid2"][0]
        if (name, rule, seed) == ("powerlaw", config.rule, 0):
            assert not won and round(g2 * 10_000, 2) == 13.35


@pytest.mark.parametrize("k", [0, 5, CHUNK - 1, CHUNK + 1])
def test_cli_run_replication_is_that_replication_of_simulate(k, capsys):
    code, out, err = run_cli(["run", "powerlaw", "--seed", "3", "--replication", str(k),
                              "--format", "records"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["replication"] == k
    run = doc["result"]
    details = pin_simulate.replications(builtin_scenario("powerlaw"), k + 1, 3)
    assert (run["outcome"]["winner"] == "coalition") is details["won"][k]
    assert run["ledger"]["round2"][run["qualification"]["qualified_global"]] == \
        details["global_bid2"][k]


def test_cli_run_replication_table_and_bounds(capsys):
    code, default, _ = run_cli(["run", "powerlaw"], capsys)
    assert code == 0
    assert run_cli(["run", "powerlaw", "--replication", "0"], capsys)[1] == default
    assert "replication" not in default
    code, out, _ = run_cli(["run", "powerlaw", "--replication", "5"], capsys)
    assert code == 0
    assert "\nreplication: 5\n" in out
    code, out, err = run_cli(["run", "powerlaw", "--replication", "-1"], capsys)
    assert (code, out) == (3, "")
    assert "--replication" in err
    # batch.rows jumps the stream in constant time, however far the row
    code, out, err = run_cli(["run", "powerlaw", "--replication", str(10**12),
                              "--format", "records"], capsys)
    assert code == 0, err
    assert _strict_json(out)["replication"] == 10**12


def test_replication_past_the_philox_period_is_rejected(capsys):
    """Philox's 256-bit counter wraps after 2**258 doubles, so powerlaw's
    rows of 7 end at 2**258 // 7: the next would replay row 0's draws."""
    last = 2**258 // 7 - 1
    sc = builtin_scenario("powerlaw")
    assert run_auction(sc, replication=last).rng_seed == sc.seed
    with pytest.raises(ConfigurationError, match="replication"):
        run_auction(sc, replication=last + 1)
    code, out, err = run_cli(["run", "powerlaw", "--replication", str(last),
                              "--format", "records"], capsys)
    assert code == 0, err
    assert json.loads(out)["replication"] == last
    code, out, err = run_cli(["run", "powerlaw", "--replication", str(last + 1)], capsys)
    assert (code, out) == (3, "")
    assert "--replication" in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_simulate_count_below_one_is_a_parse_error(count, capsys):
    code, out, err = run_cli(["simulate", "powerlaw", "-n", count], capsys)
    assert (code, out) == (3, "")
    assert "--replications" in err


def test_cli_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_calls_share_no_parsed_values(capsys, tmp_path):
    fresh = vars(cli.build_parser().parse_args(["run", "powerlaw"]))
    out = tmp_path / "run.json"
    code, stdout, err = run_cli(["run", "powerlaw", "--rule", "nvcg", "--seed", "5",
                                 "--replication", "2", "--format", "records",
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (0, ""), err
    first = out.read_text()
    doc = json.loads(first)
    assert (doc["result"]["rule"], doc["seed"], doc["replication"]) == ("nvcg", 5, 2)

    code, stdout, err = run_cli(["run", "powerlaw", "--format", "records"], capsys)
    assert code == 0, err
    doc = json.loads(stdout)
    scenario = builtin_scenario("powerlaw")
    assert scenario.rule != "nvcg"
    assert (doc["result"]["rule"], doc["seed"], doc["replication"]) == \
        (scenario.rule, scenario.seed, 0)
    assert out.read_text() == first
    assert vars(cli.build_parser().parse_args(["run", "powerlaw"])) == fresh


def test_cli_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "powerlaw", "--rule", "third-price"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run_cli(["run", "powerlaw"], capsys)
    assert code == 0
    assert "winner: " in out


def test_cli_version_after_run(capsys):
    assert run_cli(["run", "powerlaw"], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"portauction {__version__}\n"


def test_cli_help_reads_the_terminal_width_when_formatted(monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setenv("COLUMNS", "40")
    narrow = parser.format_help()
    monkeypatch.setenv("COLUMNS", "200")
    wide = parser.format_help()
    assert len(narrow.splitlines()) > len(wide.splitlines())


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_cli_seed_is_a_philox_key(command, capsys):
    extra = ["-n", "5"] if command == "simulate" else []
    for seed, want in ((-1, 3), (2**128, 3), (0, 0), (2**128 - 1, 0)):
        code, _, err = run_cli([command, "powerlaw", "--seed", str(seed), *extra], capsys)
        assert code == want, err
        if want:
            assert "--seed" in err


def test_cli_equilibrium_sweep(capsys):
    code, out, _ = run_cli(
        ["equilibrium", "powerlaw", "--sweep", "shape=2,3;q=2;alpha_bps=15"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("rule,shape,q,alpha_bps,bid_bps")
    assert len(lines) == 3
    for row in lines[1:]:
        bid = float(row.split(",")[4])
        assert abs(bid - 15.0) < 1e-6


@pytest.mark.parametrize("term", [
    "q=0", "q=-1", "q=1e400", "q=2.5", "q=nan", "alpha_bps=nan", "alpha_bps=inf",
    "q=1001", "shape=1", "shape=0.5", "shape=inf", "upper_bps=0", "upper_bps=-40",
    "upper_bps=inf", "shape=2,3;q=2,0", "q=inf", "shape=nan", "upper_bps=nan",
])
def test_cli_sweep_rejects_values_outside_their_domain(term, capsys):
    code, out, err = run_cli(["equilibrium", "powerlaw", "--sweep", term], capsys)
    assert code == 3
    assert out == ""
    last = term.split(";")[-1]
    assert repr(last) in err
    # Every value must be finite, so every domain's message says so.
    assert f"{last.split('=')[0]} must be a finite" in err


@pytest.mark.parametrize("args, where", [
    pytest.param(["--sweep", "upper_bps=1e-300"], "sweep point shape=2.0, q=2, "
                 "alpha_bps=20.0, upper_bps=1e-300", id="upper_bps=1e-300"),
    pytest.param(["--sweep", "shape=1e300"], "sweep point shape=1e+300, q=2, "
                 "alpha_bps=20.0, upper_bps=40.0", id="shape=1e300"),
    # a finite bid with an infinite residual
    pytest.param(["--sweep", "alpha_bps=1e308;upper_bps=1"], "sweep point shape=2.0, q=2, "
                 "alpha_bps=1e+308, upper_bps=1.0", id="alpha_bps=1e308"),
    pytest.param([], "the scenario", id="scenario"),
])
def test_cli_equilibrium_outside_the_float_range_is_a_validation_error(args, where, capsys,
                                                                       tmp_path):
    """A solve that raises an arithmetic error or returns a non-finite bid
    or residual exits 4 naming its grid point. The scenario-level case is
    powerlaw with upper_bps 1e90 and shape 4, whose density overflows."""
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    data["distributions"]["global"].update(upper_bps=1e90, shape=4)
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(data))
    scenario = "powerlaw" if args else str(path)
    code, out, err = run_cli(["equilibrium", scenario, *args], capsys)
    assert (code, out) == (4, "")
    assert f"  - {where}: the equilibrium solve leaves the float range (" in err


def test_cli_sweep_takes_whole_float_package_counts(capsys):
    code, out, _ = run_cli(
        ["equilibrium", "powerlaw", "--sweep", "shape=2;q=3.0;alpha_bps=15"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "3"


@pytest.mark.parametrize("argv", [
    ["run", "powerlaw"],
    ["run", "powerlaw", "--format", "records"],
    ["equilibrium", "powerlaw", "--sweep", "shape=1.5,2;q=2,3"],
    ["reproduce", "example1", "--format", "records"],
], ids=["run-table", "run-records", "equilibrium-sweep", "reproduce"])
def test_cli_out_overwrites_a_longer_file_in_place(argv, capsys, tmp_path):
    """--out leaves exactly the output's bytes, however long the file was,
    in the same inode and under every hard link to it."""
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    out, link = tmp_path / "out.txt", tmp_path / "link.txt"
    out.write_bytes(b"x" * 100_000)
    os.link(out, link)
    inode = out.stat().st_ino
    assert run_cli([*argv, "--out", str(out)], capsys) == (0, "", "")
    assert out.read_bytes() == link.read_bytes() == stdout.encode()
    assert out.stat().st_ino == inode


def test_cli_out_finishes_a_partial_write(capsys, monkeypatch, tmp_path):
    """os.write may write only part of what it is given; --out writes the rest."""
    _, stdout, _ = run_cli(["run", "powerlaw"], capsys)
    out = tmp_path / "out.txt"
    write = os.write
    with monkeypatch.context() as m:
        m.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        code = cli.main(["run", "powerlaw", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == stdout.encode()


def test_cli_out_writes_devices_pipes_and_links_through(capsys, tmp_path):
    """--out writes a device and a pipe untrimmed, and a symlink's target,
    leaving the link a link."""
    argv = ["validate", "table1"]
    _, stdout, _ = run_cli(argv, capsys)
    assert run_cli([*argv, "--out", os.devnull], capsys) == (0, "", "")
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(b"x" * 100_000)
    link.symlink_to(target)
    assert run_cli([*argv, "--out", str(link)], capsys) == (0, "", "")
    assert link.is_symlink()
    assert target.read_bytes() == stdout.encode()
    if Path("/dev/fd").is_dir():  # a pipe opened by name
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as reader, os.fdopen(write_end, "wb") as writer:
            assert run_cli([*argv, "--out", f"/dev/fd/{write_end}"], capsys) == (0, "", "")
            writer.close()
            assert reader.read() == stdout.encode()


@pytest.mark.skipif(os.name != "posix", reason="POSIX mode bits")
def test_cli_out_keeps_an_existing_mode_and_makes_new_files_under_the_umask(capsys, tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("old")
    out.chmod(0o600)
    assert run_cli(["validate", "table1", "--out", str(out)], capsys)[0] == 0
    assert out.stat().st_mode & 0o777 == 0o600
    fresh = tmp_path / "fresh.txt"
    umask = os.umask(0o027)
    try:
        assert run_cli(["validate", "table1", "--out", str(fresh)], capsys)[0] == 0
    finally:
        os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o640


def test_cli_out_to_a_directory_is_a_runtime_failure(capsys, tmp_path):
    code, stdout, err = run_cli(["validate", "table1", "--out", str(tmp_path)], capsys)
    assert (code, stdout) == (5, "")
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cli_validate(capsys, tmp_path):
    code, out, _ = run_cli(["validate", "table1"], capsys)
    assert code == 0
    assert "valid" in out
    report = tmp_path / "report.txt"
    assert run_cli(["validate", "table1", "--out", str(report)], capsys) == (0, "", "")
    assert report.read_text() == out
    # validate writes one report, so it takes no --format
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "table1", "--format", "records"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_cli_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(["run", "missing-file.json"], capsys)
    assert code == 3
    assert "parse error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 3

    invalid = tmp_path / "invalid.json"
    data = json.loads(_example1_text())
    data["rule"] = "nope"
    invalid.write_text(json.dumps(data))
    code, _, err = run_cli(["run", str(invalid)], capsys)
    assert code == 4
    assert "validation error" in err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    code, _, err = run_cli(["validate", str(not_object)], capsys)
    assert code == 3
    assert "top-level value must be an object" in err

    # a directory, text that is not UTF-8 and an unknown name are parse errors
    code, _, err = run_cli(["validate", str(tmp_path)], capsys)
    assert code == 3
    assert "cannot read scenario file" in err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')  # latin-1 text
    code, _, err = run_cli(["validate", str(latin1)], capsys)
    assert code == 3
    assert "not UTF-8 text" in err
    code, _, err = run_cli(["validate", "builtin:powerlaw"], capsys)
    assert code == 3
    assert "no scenario file or builtin named 'builtin:powerlaw'" in err

    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])  # argparse usage error
    assert exc.value.code == 2

    code, _, err = run_cli(
        ["reproduce", "example1", "--out", str(tmp_path / "no-such-dir" / "x.txt")],
        capsys,
    )
    assert code == 5  # runtime failure (unwritable output path)


def test_cli_simulate_rule_simulates_the_scenario_under_that_rule(capsys):
    code, out, err = run_cli(["simulate", "powerlaw", "--rule", "vcg", "-n", "300",
                              "--format", "records"], capsys)
    assert code == 0, err
    sc = builtin_scenario("powerlaw")
    m = simulate(replace(sc, rule="vcg"), n=300, seed=sc.seed)
    assert json.loads(out)["result"] == {
        "rule": "vcg",
        "replications": 300,
        "coalition_win_rate": m.coalition_win_rate,
        "mean_seller_cost_bps": m.mean_seller_cost * 10_000,
        "core_violation_count": m.core_violation_count,
        "frontier_gap_max": m.frontier_gap_max,
        "clamped_round2_count": m.clamped_round2_count,
        "mean_broker_payoff": m.mean_broker_payoff,
    }


def _powerlaw_file(tmp_path, **changes):
    """A copy of powerlaw with the given top-level keys replaced."""
    path = tmp_path / "powerlaw-changed.json"
    path.write_text(json.dumps({**_BUNDLED["powerlaw"], **changes}))
    return str(path)


def test_cli_simulate_without_strategies_is_a_validation_error(capsys, tmp_path):
    path = _powerlaw_file(tmp_path, strategies=None)
    code, out, err = run_cli(["simulate", path, "-n", "10"], capsys)
    assert (code, out) == (4, "")
    assert "no strategy profile supplied" in err


def test_cli_equilibrium_solves_the_scenario_point(capsys):
    """Without --sweep: powerlaw's own distribution, weights and common
    local valuation, 20 bps, where the symmetric bid is truthful."""
    code, out, err = run_cli(["equilibrium", "powerlaw"], capsys)
    assert code == 0, err
    header, *rows = out.splitlines()
    assert header == "rule,shape,q,alpha_bps,bid_bps,residual,converged,iterations"
    assert len(rows) == 1
    rule, shape, q, alpha, bid, _, converged, _ = rows[0].split(",")
    assert (rule, shape, q, alpha, float(bid), converged) == \
        ("dnvcg", "2.0", "2", "20.0", 20.0, "True")
    code, out, err = run_cli(["equilibrium", "powerlaw", "--format", "records"], capsys)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["rule"] == "dnvcg"
    assert [(r["bid_bps"], r["converged"]) for r in result["rows"]] == [(20.0, True)]


@pytest.mark.parametrize("global_dist, alpha_bps, sweep", [
    ({"kind": "uniform", "lower_bps": 10, "upper_bps": 40}, 20, []),
    ({"kind": "empirical", "sample_bps": [12, 18, 25, 31, 38]}, 15, []),
    (None, 20, ["--sweep", "q=1;alpha_bps=17"]),
], ids=["uniform", "empirical", "one-package"])
def test_cli_equilibrium_is_truthful_where_the_global_density_is_zero(
        global_dist, alpha_bps, sweep, capsys, tmp_path):
    """At a zero bid the coalition total sits where the global's density is
    zero (below the uniform's or the sample's range, or at zero with one
    package), so the first-order residual vanishes there too; the
    symmetric bid is still the locals' valuation."""
    data = json.loads(json.dumps(_BUNDLED["powerlaw"]))
    if global_dist is not None:
        data["distributions"]["global"] = global_dist
    for broker in data["brokers"]:
        if broker["role"] == "local":
            broker["valuation_bps"] = alpha_bps
    path = tmp_path / "truthful.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["equilibrium", str(path), *sweep, "--format", "records"],
                             capsys)
    assert code == 0, err
    rows = json.loads(out)["result"]["rows"]
    want = 17.0 if sweep else float(alpha_bps)
    assert [(r["bid_bps"], r["converged"], r["iterations"]) for r in rows] == [(want, True, 0)]


@pytest.mark.parametrize("term, named", [
    ("shape", "'shape'"), ("foo=1", "'foo'"), ("shape=x", "'shape=x'"),
    ("shape=", "'shape='"), (";", "sweep grid is empty"),
    ("q=2;q=3;alpha_bps=15", "'q=3'"),
])
def test_cli_sweep_parse_errors_name_the_term(term, named, capsys):
    code, out, err = run_cli(["equilibrium", "powerlaw", "--sweep", term], capsys)
    assert (code, out) == (3, "")
    assert named in err


@pytest.mark.parametrize("args", [[], ["--sweep", "shape=2,3"]])
def test_cli_equilibrium_reads_vcg_as_nvcg(args, capsys, tmp_path):
    path = _powerlaw_file(tmp_path, rule="vcg")
    code, out, err = run_cli(["equilibrium", path, *args, "--format", "records"], capsys)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["rule"] == "nvcg"
    assert {r["rule"] for r in result["rows"]} == {"nvcg"}


def test_cli_sweep_over_a_uniform_global_needs_shape_and_upper(capsys, tmp_path):
    path = _powerlaw_file(tmp_path, distributions={
        "global": {"kind": "uniform", "lower_bps": 0, "upper_bps": 40}})
    for sweep in ("q=2,3", "shape=2", "upper_bps=40"):
        code, out, err = run_cli(["equilibrium", path, "--sweep", sweep], capsys)
        assert (code, out) == (4, "")
        assert "shape=/upper_bps=" in err
    code, out, err = run_cli(["equilibrium", path, "--sweep", "shape=2;upper_bps=40"], capsys)
    assert code == 0, err


def test_cli_equilibrium_starts_from_the_common_local_valuation(capsys, tmp_path):
    """Every solve starts from the locals' one valuation unless alpha_bps=
    is swept, so locals at 20 and 25 bps need a swept alpha_bps, and so do
    locals that draw their values, whose valuation_bps (0 when omitted) no
    engine reads."""
    unequal = json.loads(json.dumps(_BUNDLED["powerlaw"]["brokers"]))
    unequal[1]["valuation_bps"] = 25
    omitted = [{k: v for k, v in b.items() if k != "valuation_bps"}
               for b in _BUNDLED["powerlaw"]["brokers"]]
    drawn = {**_BUNDLED["powerlaw"]["distributions"],
             "local": {"kind": "empirical", "sample_bps": [10, 20, 30]}}
    for changes, named in (({"brokers": unequal}, "[20.0, 25.0]"),
                           ({"brokers": omitted, "distributions": drawn},
                            "distributions.local")):
        path = _powerlaw_file(tmp_path, **changes)
        for args in ([], ["--sweep", "shape=2,3"], ["--sweep", "q=3"]):
            code, out, err = run_cli(["equilibrium", path, *args], capsys)
            assert (code, out) == (4, ""), changes
            assert named in err and "alpha_bps" in err
        code, out, err = run_cli(["equilibrium", path, "--sweep", "shape=2;alpha_bps=20"],
                                 capsys)
        assert code == 0, err
        assert out.splitlines()[1].startswith("dnvcg,2.0,2,20.0,")


def test_cli_equilibrium_needs_distribution(capsys):
    code, _, err = run_cli(["equilibrium", "example1"], capsys)
    assert code == 4
    assert "distribution" in err


# value-level anchors so a wrongly regenerated golden file cannot pass
GOLDEN_TOKENS = {
    "example1": ("nvcg    27        14.5      22", "dnvcg   28        13        22"),
    "example2": ("24.08", "25.77", "delta: 10"),
    "figure1": ("frontier segment: (25, 17.5) -> (30, 10)",
                "nvcg point: (27, 14.5)  [on frontier]"),
    "figure2": ("(21, 22.55)", "(23, 25)"),
}


# (command, golden file), each file written by the CLI before a refactor of
# the command path, so a change to any command's bytes shows here.
GOLDEN_COMMANDS = [
    *(pytest.param(["reproduce", t], f"{t}.txt", id=t)
      for t in ("example1", "example2", "figure1", "figure2")),
    pytest.param(["run", "powerlaw"], "run-powerlaw.txt", id="run-table"),
    pytest.param(["run", "powerlaw", "--format", "records"], "run-powerlaw.records.json",
                 id="run-records"),
    pytest.param(["run", "table1", "--rule", "dnvcg", "--seed", "5", "--replication", "2",
                  "--format", "records"], "run-table1-dnvcg.records.json", id="run-replication"),
    pytest.param(["simulate", "powerlaw", "-n", "3000", "--seed", "13"],
                 "simulate-powerlaw.csv", id="simulate-csv"),
    pytest.param(["simulate", "powerlaw", "-n", "3000", "--seed", "13", "--format", "records"],
                 "simulate-powerlaw.records.json", id="simulate-records"),
    pytest.param(["equilibrium", "powerlaw"], "equilibrium-powerlaw.csv", id="equilibrium-csv"),
    pytest.param(["equilibrium", "powerlaw", "--sweep", "shape=2,3;q=2,3;alpha_bps=15",
                  "--format", "records"], "equilibrium-powerlaw-sweep.records.json",
                 id="equilibrium-sweep-records"),
    pytest.param(["validate", "table1"], "validate-table1.txt", id="validate"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_COMMANDS)
def test_reproduce_golden_files(argv, golden, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()
    for token in GOLDEN_TOKENS.get(argv[1], ()):
        assert token in out


@pytest.mark.parametrize("target", ["example1", "example2", "figure1", "figure2"])
def test_reproduce_records_golden_files(target, capsys):
    code, out, _ = run_cli(["reproduce", target, "--format", "records"], capsys)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{target}.records.json").read_bytes()


def test_reproduce_records_content(capsys):
    code, out, _ = run_cli(["reproduce", "example2", "--format", "records"], capsys)
    assert code == 0
    doc = json.loads(out)
    rec = doc["result"]
    assert rec["fees_bps"]["nvcg"] == pytest.approx([23.888888888888889, 22.363636363636363,
                                                     25.888888888888889, 25.5,
                                                     27.363636363636363])
    assert rec["fees_bps"]["dnvcg"][1] == pytest.approx(22.55718475073314)
    assert any("25.55" in a for a in rec["annotations"])


@pytest.mark.parametrize("argv", [
    ["run", "powerlaw"],
    ["simulate", "powerlaw", "-n", "100"],
    # Two full chunks summed by extraction, then 5 rows through fsum.
    pytest.param(["simulate", "powerlaw", "-n", str(2 * CHUNK + 5)], id="simulate-powerlaw-long"),
    ["equilibrium", "powerlaw"],
    *(["reproduce", t] for t in ("example1", "example2", "figure1", "figure2")),
], ids=lambda argv: "-".join(argv[:2]))
def test_records_share_one_envelope(argv, capsys):
    code, out, _ = run_cli([*argv, "--format", "records"], capsys)
    assert code == 0
    doc = _strict_json(out)
    envelope = {"command", "engine_version", "scenario_digest", "seed", "result"}
    assert doc.keys() == envelope | ({"replication"} if argv[0] == "run" else set())
    if argv[0] == "run":
        assert doc["replication"] == 0
    if argv[0] == "simulate":
        assert doc["result"]["replications"] == int(argv[3])
    assert doc["command"] == argv[0] and doc["engine_version"] == __version__
    assert not {"engine_version", "scenario_digest"} & doc["result"].keys()
    # Every document names its scenario but the figures, drawn from the examples.
    assert (doc["scenario_digest"] is None) == argv[1].startswith("figure")


def test_reproduce_figure2_includes_pinned_point(capsys):
    code, out, _ = run_cli(["reproduce", "figure2"], capsys)
    assert code == 0
    assert "(21, 22.55)" in out
    assert "annotations" not in out  # computed series matches the plot data
