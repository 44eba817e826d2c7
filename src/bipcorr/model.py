"""Ensemble parameters and weight-moment sequences.

The random matrix under study is N x N, symmetric, and bipartite: indices are
split into part 1 of size floor(alpha*N) and part 2 of size N - floor(alpha*N),
and only entries connecting the two parts may be nonzero.  Each cross entry is
independently present with probability p/N, and a present entry carries weight
a_ij / sqrt(p) where the a_ij are i.i.d. with an even distribution.

Everything downstream needs only three ingredients, collected here:

* ``ModelParams``: the pair (alpha, p) as exact rationals, with
  alpha1 = alpha and alpha2 = 1 - alpha the limiting part fractions.
* ``MomentSequence``: the even weight moments V_2, V_4, ... (odd moments
  vanish by symmetry and are never stored).
* ``edge_factor``: the contribution of one skeleton edge traversed
  ``multiplicity`` times in total, V_mult / p^(mult/2 - 1).  This is the only
  place the moments and p meet, so the recurrence engine and the walk oracle
  cannot disagree about weights.

``validate`` is the explicit gate used by engines and the CLI; construction of
the dataclasses themselves stays permissive so that invalid inputs can be
reported with machine-readable codes instead of failing half-way into a
computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rational import Scalar, format_scalar, parse_scalar


class ModelError(Exception):
    """Base for validation failures; carries a machine-readable ``code``."""

    code = "model_error"


class InvalidParamsError(ModelError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class InsufficientMomentsError(ModelError):
    code = "insufficient_moments"

    def __init__(self, required_order: int, available_order: int):
        super().__init__(
            f"need even weight moments through order {required_order}, "
            f"have them through order {available_order}"
        )
        self.required_order = required_order
        self.available_order = available_order


@dataclass(frozen=True)
class ModelParams:
    """Part fraction alpha and sparsity parameter p, both exact rationals."""

    alpha: Scalar
    p: Scalar

    def __post_init__(self):
        # Hashing two Fractions is slow, and caches keyed by the context
        # hash it on every lookup; ``MomentSequence`` does the same.
        object.__setattr__(self, "_hash", hash((self.alpha, self.p)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def alpha1(self) -> Scalar:
        return self.alpha

    @property
    def alpha2(self) -> Scalar:
        return 1 - self.alpha


class MomentSequence:
    """Even moments V_2, V_4, ..., V_{2J} of the weight distribution."""

    def __init__(self, even_moments: Sequence[Scalar]):
        self._values = tuple(Fraction(v) for v in even_moments)
        self._hash = hash(self._values)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self._values

    @property
    def max_order(self) -> int:
        """Highest even order 2J available (0 when the sequence is empty)."""
        return 2 * len(self._values)

    def moment(self, order: int) -> Fraction:
        """V_order for even order >= 2."""
        if order < 2 or order % 2 != 0:
            raise ValueError(f"moment order must be even and >= 2, got {order}")
        if order > self.max_order:
            raise InsufficientMomentsError(order, self.max_order)
        return self._values[order // 2 - 1]

    def require(self, order: int) -> None:
        """Check availability of all even moments through ``order``."""
        if order > self.max_order:
            raise InsufficientMomentsError(order, self.max_order)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentSequence":
        try:
            raw = data["even_moments"]
        except (TypeError, KeyError):
            raise ValueError('moments file must contain an "even_moments" list')
        if not isinstance(raw, list):
            raise ValueError('"even_moments" must be a list of rational strings')
        return cls([parse_scalar(str(item)) for item in raw])

    def __eq__(self, other) -> bool:
        return isinstance(other, MomentSequence) and self._values == other._values

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(format_scalar(v) for v in self._values)
        return f"MomentSequence([{inner}])"


def edge_factor(moments: MomentSequence, params: ModelParams, multiplicity: int) -> Fraction:
    """Weight of one skeleton edge with total traversal count ``multiplicity``.

    Equals V_multiplicity / p^(multiplicity/2 - 1).  The multiplicity of an
    edge in a closed walk system is always even and at least 2; anything else
    is a caller bug, not a data condition.
    """
    if multiplicity < 2 or multiplicity % 2 != 0:
        raise ValueError(f"edge multiplicity must be even and >= 2, got {multiplicity}")
    half = multiplicity // 2
    return moments.moment(multiplicity) / params.p ** (half - 1)


def required_moment_order(k: int, m: int) -> int:
    """Highest moment order needed for the coefficient n_{k,m}.

    A single shared edge can absorb every step of both walks, so computing
    n_{k,m} for even k, m needs V up through order k + m.  If either index is
    odd the coefficient vanishes identically and no moments are consumed.
    """
    if k % 2 != 0 or m % 2 != 0:
        return 0
    return k + m


def validate(params: ModelParams, moments: MomentSequence, k: int, m: int) -> None:
    """Reject invalid parameter sets before any computation starts.

    Raises ``InvalidParamsError`` (codes ``alpha_out_of_range``,
    ``p_out_of_range``, ``moment_out_of_range``, ``bad_indices``) or
    ``InsufficientMomentsError``.  An even moment of a real weight is never
    negative; zero is allowed, since ``constant:0`` is the law a = 0.
    """
    if not 0 < params.alpha < 1:
        raise InvalidParamsError(
            "alpha_out_of_range",
            f"alpha out of range: need 0 < alpha < 1, got {format_scalar(Fraction(params.alpha))}",
        )
    if params.p <= 0:
        raise InvalidParamsError(
            "p_out_of_range",
            f"p out of range: need p > 0, got {format_scalar(Fraction(params.p))}",
        )
    for j, value in enumerate(moments.values, start=1):
        if value < 0:
            raise InvalidParamsError(
                "moment_out_of_range",
                f"even moment out of range: need V_{2 * j} >= 0, got {format_scalar(value)}",
            )
    if k < 1 or m < 1:
        raise InvalidParamsError("bad_indices", f"moment indices must be >= 1, got k={k}, m={m}")
    moments.require(required_moment_order(k, m))


def _double_factorial_odd(n: int) -> int:
    """(2j-1)!! for n = 2j-1; 1 when n <= 0."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def moments_preset(name: str, count: int) -> MomentSequence:
    """Expand a named preset into an explicit list of ``count`` even moments.

    Supported names: ``rademacher`` (V_2j = 1), ``constant:c`` (weights
    identically c, V_2j = c^2j), ``gaussian:s`` (centered normal with standard
    deviation s, V_2j = s^2j * (2j-1)!!).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    base, _, arg = name.partition(":")
    base = base.strip()
    if base == "rademacher":
        if arg:
            raise ValueError("rademacher preset takes no argument")
        return MomentSequence([Fraction(1)] * count)
    if base == "constant":
        c = parse_scalar(arg)
        return MomentSequence([c ** (2 * j) for j in range(1, count + 1)])
    if base == "gaussian":
        sigma = parse_scalar(arg)
        return MomentSequence(
            [sigma ** (2 * j) * _double_factorial_odd(2 * j - 1) for j in range(1, count + 1)]
        )
    raise ValueError(f"unknown moments preset: {name!r}")


def load_moments_file(path: str) -> MomentSequence:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return MomentSequence.from_json_dict(data)
