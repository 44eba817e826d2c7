"""Exact rational scalars and their text: parsing, formatting, decimal rendering.

Every quantity the recurrence engine and the walk oracle produce is a rational
number, so ``Scalar`` is an alias for :class:`fractions.Fraction` and all
arithmetic stays exact.  The oracle computes in Fractions throughout.  The
engine computes in Python integers, each a family value times a fixed power
of the context's denominators (see :mod:`bipcorr.recurrence`), and turns
them into Fractions only where it returns them, so it pays no gcd per
operation.  Floats appear only in the Monte Carlo module.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

Scalar = Fraction


def parse_scalar(text: str) -> Fraction:
    """Parse ``"a"`` or ``"a/b"`` (optionally signed) into a Scalar."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def format_scalar(x: Fraction) -> str:
    """Render a Scalar as ``"a"`` or ``"a/b"`` in lowest terms."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def to_decimal(x: Fraction, digits: int = 12) -> str:
    """Decimal rendering of a Scalar with ``digits`` significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    x = Fraction(x)
    ctx = decimal.Context(prec=digits)
    return str(ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))
