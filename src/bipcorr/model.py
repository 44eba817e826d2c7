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
  are never stored: a closed walk crosses each edge of a tree skeleton an
  even number of times, so they do not enter the limit).
* ``edge_factor``: the contribution of one skeleton edge traversed
  ``multiplicity`` times in total, V_mult / p^(mult/2 - 1).  This is the only
  place the moments and p meet, so the recurrence engine and the walk oracle
  cannot disagree about weights.

``WeightLaw`` owns the weight-law spec language (``rademacher``,
``constant:c``, ``gaussian:s``, ``two-point:v1,q,v2``): it alone parses a
spec, for ``--moments`` through ``moments_preset`` and for the sampler's
``--dist`` alike, so every law the sampler draws has its exact moments here.

``validate`` is the explicit gate used by the CLI; an engine applies its two
halves, ``validate_context`` on its first coefficient and
``validate_indices`` on every one.  Construction of the dataclasses
themselves stays permissive so that invalid inputs can be reported with
machine-readable codes instead of failing half-way into a computation.
"""

from __future__ import annotations

import json
import math
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
    """Reject invalid parameter sets before any computation starts: the
    context, then the indices.

    Raises ``InvalidParamsError`` (codes ``alpha_out_of_range``,
    ``p_out_of_range``, ``moment_out_of_range``, ``bad_indices``) or
    ``InsufficientMomentsError``.
    """
    validate_context(params, moments)
    validate_indices(moments, k, m)


def validate_context(params: ModelParams, moments: MomentSequence) -> None:
    """Reject alpha, p or an even moment out of range.  An even moment of a
    real weight is never negative; zero is allowed, since ``constant:0`` is
    the law a = 0."""
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


def validate_indices(moments: MomentSequence, k: int, m: int) -> None:
    """Reject moment indices below 1, and a pair whose coefficient needs
    moments beyond ``moments``."""
    if k < 1 or m < 1:
        raise InvalidParamsError("bad_indices", f"moment indices must be >= 1, got k={k}, m={m}")
    moments.require(required_moment_order(k, m))


class WeightLaw:
    """A weight law parsed from its spec, with its even moments exactly.

    This is the one parser of the spec language: ``moments_preset`` reads
    the moments of a law for routes 1 and 2, and the sampler of
    :mod:`bipcorr.simulate` draws from the same parsed law.  The specs:

    * ``rademacher``: a = +-1, V_2j = 1;
    * ``constant:c``: a = c, V_2j = c^2j;
    * ``gaussian:s``: centered normal with standard deviation s,
      V_2j = s^2j (2j-1)!!;
    * ``two-point:v1,q,v2``: v1 with probability q, else v2,
      V_2j = q v1^2j + (1-q) v2^2j, with 0 <= q <= 1.

    The arguments are rational literals, kept as exact Fractions in ``args``.
    """

    def __init__(self, spec: str):
        kind, _, arg = spec.partition(":")
        kind = kind.strip()
        if kind == "rademacher":
            if arg:
                raise ValueError("rademacher takes no argument")
            args = ()
        elif kind in ("constant", "gaussian"):
            args = (parse_scalar(arg),)
        elif kind == "two-point":
            parts = arg.split(",")
            if len(parts) != 3:
                raise ValueError("two-point needs v1,q,v2")
            args = tuple(parse_scalar(s) for s in parts)
            if not 0 <= args[1] <= 1:
                raise ValueError(f"two-point probability out of range: {args[1]}")
        else:
            raise ValueError(f"unknown weight law: {spec!r}")
        self.kind = kind
        self.args = args

    def even_moment(self, j: int) -> Fraction:
        """V_2j, exactly."""
        if self.kind == "rademacher":
            return Fraction(1)
        if self.kind == "constant":
            return self.args[0] ** (2 * j)
        if self.kind == "gaussian":
            return self.args[0] ** (2 * j) * math.prod(range(1, 2 * j, 2))
        v1, q, v2 = self.args
        return q * v1 ** (2 * j) + (1 - q) * v2 ** (2 * j)


def moments_preset(name: str, count: int) -> MomentSequence:
    """The first ``count`` even moments V_2, ..., V_2count of ``WeightLaw(name)``."""
    if count < 0:
        raise ValueError("count must be >= 0")
    law = WeightLaw(name)
    return MomentSequence([law.even_moment(j) for j in range(1, count + 1)])


def load_moments_file(path: str) -> MomentSequence:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return MomentSequence.from_json_dict(data)
