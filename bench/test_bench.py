"""Tests of the benchmark itself (not of the library).

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import portauction  # noqa: E402
from portauction import mechanism, pricing  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::portauction.model.ModelWarning")


@pytest.mark.parametrize("cls", [workloads.CrowdedMarket, workloads.CliExact])
def test_generated_inputs_are_a_pure_function_of_the_seed(cls, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = cls(5, dirs[0]).digests
    again = cls(5, dirs[1]).digests
    other = cls(6, dirs[2]).digests
    assert first == again
    assert set(first) == set(other)
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_files_force_ties_and_fallbacks(seed, tmp_path):
    wl = workloads.CliExact(seed, tmp_path)
    seen = {"tie": 0, "fallback": 0, "coalition": 0}
    for path in wl.files:
        config = wl._config(path)
        for k in range(4):
            o = mechanism.run_auction(config, seed=k).outcome
            seen["tie"] += o.diagnostics["tie"]
            seen["fallback"] += o.diagnostics["dnvcg_fallback_empty_qdown"]
            seen["coalition"] += o.winner == "coalition"
    assert all(seen.values()), seen


def test_crowded_market_shape(tmp_path):
    wl = workloads.CrowdedMarket(0, tmp_path)
    brokers = wl.config.brokers
    assert len(brokers) == 18
    assert sum(b.role == "global" for b in brokers) == 3
    assert not wl.config.correlated_locals
    m = portauction.sim.simulate(wl.config, n=4000, seed=1)
    assert 0.15 < m.clamped_round2_count / m.replications < 0.4


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_children():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 10
        wrapped_leaf()
        clock.now += 1
        wrapped_leaf()

    wrapped_leaf = t.wrap("leaf", leaf)
    wrapped_middle = t.wrap("middle", middle)

    def operation():
        clock.now += 2
        wrapped_middle()
        clock.now += 3

    t.span("op.test", operation)
    self_ns = t.self_ns()
    assert self_ns == {"op.test": 5, "middle": 11, "leaf": 10}
    assert t.root_wall_ns() == {"op.test": 26}
    assert sum(self_ns.values()) == 26
    assert t.records[("leaf", "middle", "op.test")][0] == 2


def test_errors_are_counted_and_reraised():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.span("op.test", t.wrap("boom", boom))
    assert t.totals("errors") == {"boom": 1, "op.test": 1}


def _targets_traced():
    found = []
    for bindings in tracer.TARGETS.values():
        for module_name, attr_path in bindings:
            hit = tracer._resolve(module_name, attr_path)
            if hit is not None and tracer.is_traced(hit[2]):
                found.append(f"{module_name}.{attr_path}")
    return found


def test_wrappers_are_removed_on_exit_and_on_error():
    originals = {(m, a): tracer._resolve(m, a)[2]
                 for bindings in tracer.TARGETS.values() for m, a in bindings}
    t = tracer.Tracer()
    with t.installed():
        assert pricing.vcg_fees is not originals[("portauction.pricing", "vcg_fees")]
        assert len(_targets_traced()) == len(originals)
    assert _targets_traced() == []
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("inside")
    assert _targets_traced() == []
    for (m, a), fn in originals.items():
        assert tracer._resolve(m, a)[2] is fn


def test_no_wrapper_installed_during_a_timed_run():
    seen = []

    class Probe:
        def cycle(self, c):
            return [workloads.Op("probe", "g", 1, lambda: seen.append(_targets_traced()),
                                 lambda _: None)]

    ledger, _ = run.measure(Probe(), seconds=0.05)
    assert ledger.failed == 0 and seen and all(found == [] for found in seen)


def test_removed_function_is_reported_absent():
    t = tracer.Tracer()
    targets = {"sim.gone": [("portauction.sim", "no_such_function")],
               "pricing.vcg_fees": [("portauction.pricing", "vcg_fees")]}
    with t.installed(targets):
        pricing.vcg_fees((1, 1), (0.5, 0.5), 3)
    assert t.absent == ["sim.gone"]
    assert t.totals("errors") == {"pricing.vcg_fees": 0}
