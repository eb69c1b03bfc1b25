"""Exact rational plumbing for resolution comparisons.

Every comparison that steers control flow (resolution ordering, zero tests
of merge gains) is done on integer ratios, never on floats.  Python ints
are unbounded, so cross-multiplied comparisons are always exact.
"""

from __future__ import annotations

from fractions import Fraction


def positive_fraction(t, name: str = "t") -> Fraction:
    """Read ``t`` as an exact positive Fraction.

    A float is read as its shortest decimal form, so 0.1 means 1/10, as
    the CLI's "0.1" does; strings use the usual Fraction grammar ("0.7"
    and "7/10" both give 7/10).
    """
    f = Fraction(str(t) if isinstance(t, float) else t)
    if f <= 0:
        raise ValueError(f"{name} must be positive, got {t!r}")
    return f
