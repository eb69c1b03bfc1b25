"""Exact rational plumbing for resolution comparisons.

Every comparison that steers control flow (resolution ordering, zero tests
of merge gains) is done on integer ratios, never on floats.  Python ints
are unbounded, so cross-multiplied comparisons are always exact.  Values
become floats only through ``to_float``, which ``rounded`` turns into
text; exact ints of any length become text through ``int_text``.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def positive_fraction(t, name: str = "t") -> Fraction:
    """Read ``t`` as an exact positive Fraction.

    A float is read as its shortest decimal form, so 0.1 means 1/10, as
    the CLI's "0.1" does; strings use the usual Fraction grammar ("0.7"
    and "7/10" both give 7/10).  Anything else that is not a number, "1/0"
    and None included, raises ValueError naming ``name``.
    """
    try:
        f = Fraction(str(t) if isinstance(t, float) else t)
    except (TypeError, ValueError, ZeroDivisionError):
        why = too_long(t) or f"must be a number, got {t!r}"
        raise ValueError(f"{name} {why}") from None
    if f <= 0:
        raise ValueError(f"{name} must be positive, got {t!r}")
    return f


def too_long(token) -> str | None:
    """Why a string ``token`` with more digits than ``int`` reads from text
    (``sys.get_int_max_str_digits()``, 4,300 by default) is refused: a short
    prefix of it and the limit.  None for any other token."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 when there is no limit
    if limit and isinstance(token, str) and sum(map(str.isdigit, token)) > limit:
        return f"{token[:20]!r}... has more than {limit:,} digits"
    return None


def to_float(x, den: int | None = None) -> float:
    """The correctly rounded float of ``x``, or of ``x / den`` for an int
    ``x`` and a positive int ``den`` (int division is correctly rounded, as
    ``float`` of a Fraction is).  Raises OverflowError when the exact value
    is outside the float range: above the largest float, or nonzero and
    below ``sys.float_info.min``, where floats lose digits and reach 0.  An
    exact 0 gives 0.0."""
    f = float(x) if den is None else x / den
    if x and abs(f) <= sys.float_info.min and abs(Fraction(x) / (den or 1)) < sys.float_info.min:
        raise OverflowError("nonzero value too small for a float")
    return f


def rounded(x, den: int | None = None, digits: int = 12) -> str:
    """``to_float(x, den)`` to ``digits`` significant digits: every printed
    number rounds here, so a pair prints as its Fraction would."""
    return f"{to_float(x, den):.{digits}g}"


def int_text(n: int) -> str:
    """The decimal text of the int ``n`` at any length.  ``str`` refuses
    more than ``sys.get_int_max_str_digits()`` digits; a longer ``n`` is
    split in halves, each written below that limit, and the process-wide
    setting is left alone."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 when there is no limit
    if not limit or n.bit_length() < 3 * limit:  # each digit takes more than 3 bits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half its digits, 0.301 per bit
    high, low = divmod(abs(n), 10 ** half)
    return "-" * (n < 0) + int_text(high) + int_text(low).zfill(half)
