"""Exact rational scalars and the handful of numeric helpers the engines share.

Every quantity the recurrence engine and the walk oracle produce is a rational
number, so ``Scalar`` is an alias for :class:`fractions.Fraction` and all
arithmetic stays exact.  The oracle computes in Fractions throughout.  The
engine computes in Python integers, each a family value times a fixed power
of the context's denominators (see :mod:`bipcorr.recurrence`), and turns
them into Fractions only where it returns them, so it pays no gcd per
operation.  Floats appear only in the Monte Carlo module.

The binomial helper returns a plain ``int``, which mixes exactly with
Fractions and costs far less to multiply than a Fraction would.  It differs
from :func:`math.comb` in one way that matters: ``binomial(n, k)`` is 0
whenever ``k < 0`` or ``k > n``.  The recurrence equations are written with
unconstrained inner summation indices and rely on out-of-range binomial
factors vanishing instead of on explicit range guards.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

Scalar = Fraction


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) as an int, 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


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
