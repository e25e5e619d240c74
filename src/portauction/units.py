"""Fee unit helpers.

Fees are stored internally as dimensionless fractions of notional value.
All human-facing I/O (scenario files, CLI tables, reports) quotes them in
basis points; 1 bp = 1e-4.
"""

from __future__ import annotations

from fractions import Fraction

BPS = Fraction(1, 10_000)


def to_bps(fee):
    """Express a fee fraction in basis points."""
    return fee * 10_000


def fmt_bps(fee_bps, places: int = 2) -> str:
    """Format a bps quantity truncated (not rounded) to `places` decimals.

    Truncation matches the convention of the bundled reference tables;
    trailing zeros and a trailing dot are stripped ("17.50" -> "17.5").
    """
    scale = 10**places
    n = int(fee_bps * scale)  # int() truncates toward zero, exact on Fraction
    sign = "-" if n < 0 else ""
    n = abs(n)
    s = f"{n // scale}.{n % scale:0{places}d}".rstrip("0").rstrip(".")
    return sign + s if s else "0"
