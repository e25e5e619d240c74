"""Fee unit helpers.

Fees are stored internally as dimensionless fractions of notional value.
All human-facing I/O (scenario files, CLI tables, reports) quotes them in
basis points; 1 bp = 1e-4.
"""

from __future__ import annotations

import math
from fractions import Fraction

BPS = Fraction(1, 10_000)


def to_bps(fee):
    """Express a fee fraction in basis points."""
    return fee * 10_000


def fmt_bps(fee_bps) -> str:
    """Format a bps quantity truncated (not rounded) to two decimals.

    Truncation matches the convention of the bundled reference tables;
    trailing zeros and a trailing dot are stripped ("17.50" -> "17.5").
    A float whose scaled value overflows is truncated exactly, and a
    non-finite float prints as inf, -inf or nan.
    """
    if isinstance(fee_bps, float) and not math.isfinite(fee_bps):
        return str(fee_bps)
    try:
        n = int(fee_bps * 100)  # int() truncates toward zero, exact on Fraction
    except OverflowError:  # the float product overflowed to inf
        n = int(Fraction(fee_bps) * 100)
    sign = "-" if n < 0 else ""
    n = abs(n)
    s = f"{n // 100}.{n % 100:02d}".rstrip("0").rstrip(".")
    return sign + s if s else "0"
