"""Pinned outputs of the equilibrium solver.

Every field of `solve_symmetric_equilibrium` (and a few direct
`optimality_residual` values) on a fixed matrix of cases, floats written
with float.hex so a comparison is exact to the bit, plus the sha256 of the
CSV that `portauction equilibrium powerlaw --sweep <grid>` writes. The
matrix covers the benchmark's 25-point sweep grid, unequal and
partly-equal weights, uniform and empirical distributions, alpha <= 0,
alpha beyond either end of the support and a single broker; the
residual cases cover both rules and D-NVCG prudent bidders (ell, W_down).

    PYTHONPATH=src python tests/pin_equilibrium.py      # rewrite the pins

tests/test_equilibrium.py::test_solver_outputs_match_pins recomputes every
case and requires tests/golden/equilibrium_pins.json to be, byte for byte,
the render() that main writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

from portauction import cli
from portauction.equilibrium import (
    ValueDistribution,
    optimality_residual,
    solve_symmetric_equilibrium,
)

PINS = Path(__file__).parent / "golden" / "equilibrium_pins.json"

# The grid of the benchmark's `equilibrium --sweep` operations.
SWEEP_GRID = "shape=1.5,2,3,4,5;q=2,3,4,6,8;alpha_bps=17"
SWEEP_SHAPES = (1.5, 2.0, 3.0, 4.0, 5.0)
SWEEP_QS = (2, 3, 4, 6, 8)

POWER = ValueDistribution.power_law(upper=40.0, shape=2.0)
STEEP = ValueDistribution.power_law(upper=1.0, shape=3.5)
UNIFORM = ValueDistribution.uniform(lower=2.0, upper=30.0)
EMPIRICAL = ValueDistribution.empirical(
    (3.0, 5.5, 7.0, 7.0, 9.25, 11.0, 14.5, 18.0, 18.0, 21.0, 26.5, 30.0, 33.0, 39.0))


def _solver_cases():
    """(name, dist, alpha, weights)."""
    cases = []
    for shape, q in itertools.product(SWEEP_SHAPES, SWEEP_QS):
        cases.append((f"grid/shape={shape}/q={q}",
                      ValueDistribution.power_law(upper=40.0, shape=shape), 17.0,
                      [1.0 / q] * q))
    weights = {
        "unequal2": [0.6, 0.4],
        "unequal3": [0.5, 0.3, 0.2],
        "partly-equal3": [0.25, 0.25, 0.5],
        "partly-equal4": [0.2, 0.4, 0.2, 0.2],
    }
    for label, w in weights.items():
        cases.append((f"weights/{label}", POWER, 17.0, w))
        cases.append((f"weights/{label}/steep", STEEP, 0.37, w))
    for label, dist in (("uniform", UNIFORM), ("empirical", EMPIRICAL)):
        cases.append((f"{label}/equal", dist, 17.0, [1 / 3] * 3))
        cases.append((f"{label}/unequal", dist, 12.5, [0.6, 0.4]))
    cases += [
        ("alpha/zero", POWER, 0.0, [0.5, 0.5]),
        ("alpha/negative", POWER, -3.0, [0.6, 0.4]),
        ("boundary/alpha-above-support", POWER, 55.0, [0.5, 0.5]),
        ("boundary/uniform-alpha-below-support", UNIFORM, 1.0, [0.5, 0.5]),
        ("single-broker", POWER, 17.0, [1.0]),
    ]
    return cases


def _residual_cases():
    """(name, arguments of optimality_residual, keyword arguments)."""
    return [
        ("nvcg/below", ("nvcg", 12.0, 17.0, 0.5, 8.5, POWER, 2), {}),
        ("nvcg/at-alpha", ("nvcg", 17.0, 17.0, 1 / 3, 34 / 3, POWER, 3), {}),
        ("nvcg/above-support", ("nvcg", 45.0, 17.0, 0.5, 8.5, POWER, 2), {}),
        ("dnvcg/prudent", ("dnvcg", 15.0, 17.0, 0.6, 6.8, POWER, 2),
         {"in_qdown": True, "ell": 1, "sum_w_qdown": 0.6}),
        ("dnvcg/not-prudent", ("dnvcg", 15.0, 17.0, 0.6, 6.8, POWER, 2),
         {"in_qdown": False, "ell": 1, "sum_w_qdown": 0.6}),
        ("uniform", ("nvcg", 10.0, 17.0, 0.4, 9.0, UNIFORM, 2), {}),
        ("empirical", ("nvcg", 10.0, 17.0, 0.4, 9.0, EMPIRICAL, 2), {}),
    ]


def sweep_csv() -> bytes:
    """The bytes `portauction equilibrium powerlaw --sweep SWEEP_GRID` writes."""
    argv = ["equilibrium", "powerlaw", "--sweep", SWEEP_GRID]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", out])
        if code != 0:
            raise AssertionError(f"equilibrium --sweep exited {code}")
        with open(out, "rb") as fh:
            return fh.read()


def compute_pins() -> dict:
    pins = {}
    for name, dist, alpha, weights in _solver_cases():
        sol = solve_symmetric_equilibrium(dist, alpha, weights)
        pins[f"solve:{name}"] = {
            "bid": float(sol.bid).hex(),
            "residual": float(sol.residual).hex(),
            "converged": sol.converged,
            "at_boundary": sol.at_boundary,
            "iterations": sol.iterations,
        }
    for name, args, kwargs in _residual_cases():
        pins[f"residual:{name}"] = float(optimality_residual(*args, **kwargs)).hex()
    pins["sweep-csv:scenario-rule"] = hashlib.sha256(sweep_csv()).hexdigest()
    return pins


def render() -> str:
    """The golden file's text: the pins as sorted, indented JSON."""
    return json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n"


def main():
    PINS.write_text(render())
    print(f"wrote {PINS}")


if __name__ == "__main__":
    main()
