"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from portauction import cli, reproduce
from portauction.equilibrium import (
    ValueDistribution,
    optimality_residual,
    solve_symmetric_equilibrium,
)
from portauction.pricing import (
    dnvcg_fees,
    marginal_fee,
    nvcg_fees,
    validate_core_point,
    vcg_fees,
    weighted_total,
)
from portauction.scenario import scenario_from_dict
from portauction.sim import Strategy, compare_strategies

from test_pricing import oracle_in_core


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def _best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# 1. Example 1 reproduction
# ---------------------------------------------------------------------------

def test_example1_reproduction():
    with criterion("example-1 reproduction (exact fees, < 1 ms)"):
        w = (F(3, 5), F(2, 5))
        b1, b2, g2 = (27, 19), (25, 10), 22

        def compute():
            return (
                vcg_fees(b2, w, g2),
                nvcg_fees(b2, w, g2),
                dnvcg_fees(b1, b2, w, g2).fees,
            )

        cv, nv, dv = compute()
        assert cv == (30, F(35, 2))
        assert nv == (27, F(29, 2))
        assert dv == (28, 13)
        # frontier rules hit the global bid exactly; VCG pays its own total
        assert abs(weighted_total(nv, w) - 22) <= 1e-9
        assert abs(weighted_total(dv, w) - 22) <= 1e-9
        assert weighted_total(nv, w) == 22 and weighted_total(dv, w) == 22
        assert weighted_total(cv, w) == 25

        compute()  # warm
        assert _best_time(compute) < 1e-3


# ---------------------------------------------------------------------------
# 2. Example 2 / Table 1 reproduction
# ---------------------------------------------------------------------------

TABLE1_REF = {
    "weights": (0.18, 0.22, 0.18, 0.2, 0.22),
    "bids1": (25, 30, 36, 36, 30),
    "bids2": (20, 21, 22, 23, 26),
    "global_bid2": 25,
    "vcg": (33.88, 32.36, 35.89, 35.5, 37.36),
    "intervals": ((20, 33.88), (21, 32.36), (22, 35.89), (23, 35.5), (26, 37.36)),
    "nvcg": (23.88, 22.36, 25.88, 25.5, 27.36),
    # broker 2 uses the companion plot's value; the table's 25.55 is flagged
    "dnvcg": (24.08, 22.55, 25.77, 25, 27.55),
}


def test_example2_table_reproduction():
    with criterion("example-2 / table reproduction (±0.01, typo flagged, < 1 ms)"):
        w = (F(18, 100), F(22, 100), F(18, 100), F(20, 100), F(22, 100))
        b1 = TABLE1_REF["bids1"]
        b2 = TABLE1_REF["bids2"]
        g2 = TABLE1_REF["global_bid2"]

        def compute():
            return (
                vcg_fees(b2, w, g2),
                nvcg_fees(b2, w, g2),
                dnvcg_fees(b1, b2, w, g2).fees,
            )

        cv, nv, dv = compute()
        for got, ref in zip(cv, TABLE1_REF["vcg"]):
            assert abs(float(got) - ref) <= 0.01
        for (lo, hi), (rlo, rhi) in zip(
            ((b, c) for b, c in zip(b2, cv)), TABLE1_REF["intervals"]
        ):
            assert abs(float(lo) - rlo) <= 0.01
            assert abs(float(hi) - rhi) <= 0.01
        for got, ref in zip(nv, TABLE1_REF["nvcg"]):
            assert abs(float(got) - ref) <= 0.01
        for got, ref in zip(dv, TABLE1_REF["dnvcg"]):
            assert abs(float(got) - ref) <= 0.01

        # the report flags the inconsistent table entry for broker 2
        report = reproduce.build("example2")
        assert any("25.55" in a and "typo" in a for a in report.records["annotations"])

        compute()  # warm
        assert _best_time(compute) < 1e-3


# ---------------------------------------------------------------------------
# 3. Frontier property on random instances
# ---------------------------------------------------------------------------

def test_frontier_property_10k():
    with criterion("frontier identity on 10,000 random instances (1e-9, < 5 s)"):
        rng = np.random.default_rng(314)
        t0 = time.perf_counter()
        for _ in range(10_000):
            q = int(rng.integers(2, 9))
            raw = rng.random(q) + 0.05
            w = tuple(float(x) for x in raw / raw.sum())
            b2 = tuple(float(x) for x in rng.uniform(0, 30, q))
            g2 = float(weighted_total(b2, w) + rng.uniform(0.1, 6.0))
            b1 = list(b + float(x) for b, x in zip(b2, rng.uniform(0, 12, q)))
            b1[0] = b2[0]  # at least one prudent round-1 bid
            nv = nvcg_fees(b2, w, g2)
            dv = dnvcg_fees(tuple(b1), b2, w, g2)
            assert not dv.fell_back
            assert abs(weighted_total(nv, w) - g2) <= 1e-9
            assert abs(weighted_total(dv.fees, w) - g2) <= 1e-9
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 4. Marginal-fee closed forms
# ---------------------------------------------------------------------------

def test_marginal_fee_closed_forms_1k():
    with criterion("marginal fees match closed forms on 1,000 instances (< 5 s)"):
        rng = np.random.default_rng(2718)
        t0 = time.perf_counter()
        done = 0
        while done < 1_000:
            q = int(rng.integers(2, 7))
            raw = rng.random(q) + 0.1
            w = tuple(float(x) for x in raw / raw.sum())
            b2 = tuple(float(x) for x in rng.uniform(1, 30, q))
            margin = float(rng.uniform(0.5, 5.0))
            g2 = float(weighted_total(b2, w)) + margin
            cv = vcg_fees(b2, w, g2)
            # broker 0 prudent with headroom, broker 1 a clear overbidder
            b1 = [c + 0.5 * margin for c in cv]
            b1[0] = b2[0]
            out = dnvcg_fees(tuple(b1), b2, w, g2)
            step = 1e-4 * margin * min(w) / max(w)
            if b2[0] <= step:
                continue
            got_d = marginal_fee("dnvcg", 0, tuple(b1), b2, w, g2, step)
            ell = len(out.q_up)
            w_down = sum(w[i] for i in out.q_down)
            closed_d = w[0] * (ell / w_down + (q - 1))
            assert abs(got_d - closed_d) <= 1e-6 * abs(closed_d)
            got_n = marginal_fee("nvcg", 0, None, b2, w, g2, step)
            closed_n = w[0] * (q - 1)
            assert abs(got_n - closed_n) <= 1e-6 * abs(closed_n)
            done += 1
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 5. Equilibrium fixed point over the parameter grid
# ---------------------------------------------------------------------------

def test_equilibrium_fixed_point_grid():
    with criterion("equilibrium fixed point over the shape/q grid (< 10 s)"):
        t0 = time.perf_counter()
        alpha = 0.41
        for lam, q in itertools.product((1.5, 2.0, 3.0, 5.0), (2, 3, 5)):
            d = ValueDistribution.power_law(upper=1.0, shape=lam)
            for rule in ("nvcg", "dnvcg"):
                kwargs = (
                    dict(in_qdown=True, ell=1, sum_w_qdown=(q - 1) / q)
                    if rule == "dnvcg"
                    else {}
                )
                sol = solve_symmetric_equilibrium(d, alpha, [1.0 / q] * q)
                assert sol.converged
                assert abs(sol.bid - alpha) < 1e-6
                at_alpha = optimality_residual(
                    rule, alpha, alpha, 1.0 / q, (q - 1) / q * alpha, d, q, **kwargs
                )
                assert abs(at_alpha) < 1e-12
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 6. Core-oracle equivalence
# ---------------------------------------------------------------------------

def test_core_oracle_equivalence_10k():
    with criterion("core validator agrees with subset-enumeration oracle "
                   "on 10,000 instances (< 10 s)"):
        rng = np.random.default_rng(1618)
        t0 = time.perf_counter()
        disagreements = 0
        for trial in range(10_000):
            q = int(rng.integers(2, 7))
            raw = [int(x) for x in rng.integers(1, 30, q)]
            den = sum(raw)
            w = tuple(F(x, den) for x in raw)
            b2 = tuple(F(int(x), 10) for x in rng.integers(0, 300, q))
            g2 = weighted_total(b2, w) + F(int(rng.integers(1, 60)), 10)
            b1 = tuple(b + F(int(x), 10) for b, x in zip(b2, rng.integers(0, 120, q)))
            kind = trial % 4
            if kind == 0:
                fees = nvcg_fees(b2, w, g2)
            elif kind == 1:
                fees = dnvcg_fees((b2[0],) + b1[1:], b2, w, g2).fees
            elif kind == 2:
                fees = vcg_fees(b2, w, g2)
            else:
                fees = tuple(
                    b + F(int(x), 10) for b, x in zip(b2, rng.integers(-40, 80, q))
                )
            report = validate_core_point(fees, b2, w, g2)
            disagreements += report.in_core != oracle_in_core(fees, b2, w, g2)
        assert disagreements == 0
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 7. Dominance checks (statistical)
# ---------------------------------------------------------------------------

def _dominance_scenario():
    data = {
        "schema_version": 1,
        "name": "dominance",
        "portfolio": {
            "securities": ["A", "B", "C"],
            "quantities": [6, 3, 1],
            "agreed_prices": [1, 1, 1],
            "anticipated_prices": [1, 1, 1],
            "packages": [[6, 0, 0], [0, 3, 1]],
        },
        "brokers": [
            {"id": "L1", "role": "local", "package_index": 0, "valuation_bps": 20},
            {"id": "L2", "role": "local", "package_index": 1, "valuation_bps": 20},
            {"id": "G", "role": "global", "valuation_bps": 0},
        ],
        "distributions": {
            "global": {"kind": "power-law", "upper_bps": 40, "shape": 2.0}
        },
        "rule": "dnvcg",
        "strategies": {
            # L1's round-1 bid sits at (just below) its expected VCG fee
            # of about 31.3 bps for this configuration
            "L1": {"round1": {"kind": "constant", "value_bps": 31},
                   "round2": {"kind": "truthful"}},
            "L2": {"round1": {"kind": "constant", "value_bps": 32},
                   "round2": {"kind": "truthful"}},
            "G": {"round1": {"kind": "constant", "value_bps": 40},
                  "round2": {"kind": "capped-value"}},
        },
        "seed": 0,
        "replications": 1,
    }
    return scenario_from_dict(data)


def test_dominance_checks_100k():
    with criterion("unilateral deviations never help by > 3 SE "
                   "(2 x 100,000 paired replications, < 60 s)"):
        t0 = time.perf_counter()
        sc = _dominance_scenario()
        base = sc.strategies

        # round-1 overbid above the expected VCG fee
        dev = base.with_strategy(
            "L1", round1=Strategy(kind="constant", value=F(38, 10_000))
        )
        r = compare_strategies(sc, base, dev, n=100_000, seed=2021)
        assert r.mean_difference <= 3 * r.paired_se
        assert not r.improves_significantly

        # round-2 bid below the broker's valuation
        dev = base.with_strategy(
            "L1", round2=Strategy(kind="offset", offset=F(-6, 10_000))
        )
        r = compare_strategies(sc, base, dev, n=100_000, seed=2022)
        assert r.mean_difference <= 3 * r.paired_se
        assert not r.improves_significantly

        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 8. Byte-identical determinism of machine-readable output
# ---------------------------------------------------------------------------

def _capture(args, tmp_path, tag):
    out = tmp_path / f"{tag}.out"
    code = cli.main(args + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


def test_byte_identical_determinism(tmp_path):
    with criterion("identical inputs and seed give byte-identical output"):
        cases = [
            ["run", "example1", "--format", "records", "--seed", "5"],
            ["run", "table1", "--rule", "dnvcg", "--format", "records"],
            ["simulate", "powerlaw", "-n", "500", "--seed", "13",
             "--format", "records"],
            ["simulate", "powerlaw", "-n", "500", "--seed", "13"],
            ["equilibrium", "powerlaw", "--sweep", "shape=2,3;q=2,3;alpha_bps=15",
             "--format", "records"],
            ["reproduce", "example2", "--format", "records"],
            ["reproduce", "figure2"],
        ]
        for k, args in enumerate(cases):
            first = _capture(args, tmp_path, f"{k}a")
            second = _capture(args, tmp_path, f"{k}b")
            assert first == second, f"output differs for {args}"
            # sanity: records documents parse and carry the replay envelope
            if "--format" in args:
                doc = json.loads(first)
                assert doc["engine_version"]
