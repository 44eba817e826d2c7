"""Closed recurrence system for the correlator coefficients n_{k,m}.

``CoefficientEngine`` evaluates the same family values the enumeration oracle
defines by filtering (see :mod:`bipcorr.families` for the catalog), but by
recursion instead of enumeration, which is what makes coefficients beyond
enumeration reach affordable.  The two routes share only the family catalog
and ``edge_factor``; agreement between them is checked by the test suite and
the ``crosscheck`` CLI command.

How the recursion peels a walk pair
-----------------------------------
Every equation splits a family at the root r of the gray walk along the first
gray edge (r, v).  Writing f for half the number of traversals of (r, v), the
edge contributes ``edge_factor(2f) = V_2f / p^(f-1)``, and the rest of the
pair falls apart into an "upper" piece beyond v and a "lower" piece at r,
both of which are again family values with strictly smaller half-lengths.
The combinatorial factors are binomial codes: a walk that departs the root
r_g times, f of them through the cut edge, distributes those departures in
``binomial(r_g - 1, f - 1)`` ways when its final return is forced through the
cut edge (or ``binomial(r_g, f)`` style variants when it is not), and the
upper walk interleaves with blue excursions in ``binomial(f + v - 1, f - 1)``
ways.  Out-of-range binomials vanish, which silently kills every branch that
would need a negative count; no explicit range guards appear in the sums.

Equation shapes
---------------
Three shapes cover fourteen of the seventeen equations.  The sum table
``_SUMS`` (EQ_C, NEQ_C, NEQ_C_G, NEQ_C_R, NEQ_ANYC_S) adds other families at
the same key.  The gray peel (S1, S1S, EQ_C_G, NEQ_C_GD, NEQ_ANYC_SGD,
NEQ_C_GU) cuts an edge only gray uses; its rows in ``_GRAY`` differ in the
lower family and the upper sum.  The red peel (EQ_C_R, NEQ_C_RU, NEQ_C_RD)
cuts an edge both walks use; its rows in ``_RED`` also differ in the blue
root code.  EQ_ANYC, NEQ_ANYC_SN and TOP have equations of their own.

Upper sums
----------
The five upper sums depend only on their arguments, yet the peels ask for the
same ones many times (at n_{12,12}, ``_rooted_at_v`` is asked 22,332 times for
882 distinct arguments).  Each engine caches them in its own dict, keyed by
the method and its arguments; no cache is shared between engines, because the
values depend on the engine's params and moments.  A hit reads no family
value, so it adds no memo key and leaves the memo's insertion order as it was.

Scaled integers
---------------
Every family value is a sum, over tree-skeleton walk pairs, of one vertex
factor alpha_c per vertex times one factor w(f) = ``edge_factor(2f)`` per
edge.  Write alpha_c = a_c / q with q the denominator of alpha, and pick an
integer c (the numerator of p times the lcm of the moment denominators) so
that W(f) = w(f) * c^f * q^(f-1) is an integer for every f.  A pair with E
edges of half-multiplicities f_e and total half-length L = sum f_e has E + 1
vertices, so its weight times q^(L+1) * c^L is an integer.  The engine
therefore stores, for a family value of total half-length L, the integer

    X = value * q^(L+1) * c^L

and converts to a Fraction only at the public boundary (``s_value``,
``correlator_coefficient``, ``memo_items``).  In both peels the cut edge, the
lower piece and the upper piece split the half-length as L = f + L_lower +
L_upper, so the scales of the three factors multiply to the scale of the
key: the equations keep their shape, with W(f) in place of w(f), and the
empty walk S1(l=0, r=0) becomes a_c.  The one other place that changes is
the EQ_ANYC glue of two single walks at a common root, value s1 * s2 /
alpha_c: scaled, it is X1 * X2 // a_c.  That division is exact because every
term of X1 carries the root's vertex factor a_c; the engine checks the
remainder all the same, also under ``python -O``.

Termination
-----------
Recursive references either strictly decrease the total half-length
l_g + l_b, or keep it fixed and move to a strictly earlier evaluation stage
(``families.STAGE``).  The engine checks this ordering on every reference,
also under ``python -O``, so an accidentally circular edit fails loudly
instead of looping.  The check covers cached upper sums too: each entry keeps
the rank of its highest reference, and every hit checks that rank against the
current parent as if it had referenced those keys again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import families as fam
from .model import ModelParams, MomentSequence, edge_factor, validate
from .rational import binomial

_STAGE = fam.STAGE

# Families whose value is the plain sum of other families at the same key.
_SUMS = {
    fam.EQ_C: (fam.EQ_C_G, fam.EQ_C_R),
    fam.NEQ_C: (fam.NEQ_C_G, fam.NEQ_C_R),
    fam.NEQ_C_G: (fam.NEQ_C_GU, fam.NEQ_C_GD),
    fam.NEQ_C_R: (fam.NEQ_C_RU, fam.NEQ_C_RD),
    fam.NEQ_ANYC_S: (fam.NEQ_C_R, fam.NEQ_ANYC_SGD, fam.NEQ_ANYC_SN),
}


def _upper_sum(top_tag: str, total):
    """Cache an upper sum per engine, keyed by the method and its arguments.

    ``top_tag`` is the latest-stage family the sum reads and ``total(*args)``
    the total half-length of every key it reads, so an entry, which keeps
    that total, has the rank ``(total, stage of top_tag)`` of its highest
    reference.  A hit skips the ``_value`` calls that would have checked
    those references against the parent, so the hit checks this rank instead.
    """
    stage = _STAGE[top_tag]

    def decorate(method):
        def cached(self, *args):
            key = (method, *args)
            entry = self._uppers.get(key)
            if entry is None:
                entry = self._uppers[key] = (method(self, *args), total(*args))
            elif self._stack and (entry[1], stage) >= self._stack[-1]:
                raise AssertionError(
                    f"recursion order violated: cached upper sum "
                    f"{method.__name__}{args} at rank {(entry[1], stage)} "
                    f"referenced from rank {self._stack[-1]}"
                )
            return entry[0]

        return cached

    return decorate


class CoefficientEngine:
    """Exact evaluator for family values and correlator coefficients."""

    def __init__(self, params: ModelParams, moments: MomentSequence):
        self.params = params
        self.moments = moments
        alpha = Fraction(params.alpha)
        self._q = alpha.denominator
        self._a = {1: alpha.numerator, 2: self._q - alpha.numerator}
        self._c = Fraction(params.p).numerator * math.lcm(
            *(v.denominator for v in moments.values)
        )
        self._memo: dict = {}
        self._uppers: dict = {}
        self._edge_weights: dict = {}
        self._stack: list = []
        self._dispatch = {
            **dict.fromkeys(_SUMS, self._eval_sum),
            **dict.fromkeys(self._GRAY, self._gray_peel),
            **dict.fromkeys(self._RED, self._red_peel),
            fam.EQ_ANYC: self._eval_eq_anyc,
            fam.NEQ_ANYC_SN: self._eval_neq_anyc_sn,
            fam.TOP: self._eval_top,
        }

    # -- public API --------------------------------------------------------

    def s_value(self, key: fam.FamilyKey) -> Fraction:
        fam.validate_key(key)
        return self._unscaled(key, self._value(key))

    def correlator_coefficient(self, k: int, m: int) -> Fraction:
        """n_{k,m}: the large-N limit of N * Cov(moment k, moment m)."""
        validate(self.params, self.moments, k, m)
        if k % 2 != 0 or m % 2 != 0:
            return Fraction(0)
        key = fam.top_key(k // 2, m // 2)
        return self._unscaled(key, self._value(key))

    def correlator_table(self, kmax: int, mmax: int) -> dict:
        """All coefficients for 1 <= k <= kmax, 1 <= m <= mmax."""
        return {
            (k, m): self.correlator_coefficient(k, m)
            for k in range(1, kmax + 1)
            for m in range(1, mmax + 1)
        }

    # -- memo table --------------------------------------------------------

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def memo_items(self) -> Iterable:
        """(key, value) pairs in evaluation order, the values as Fractions."""
        return ((key, self._unscaled(key, value)) for key, value in self._memo.items())

    # -- scaled integers ---------------------------------------------------

    def _scale(self, total: int) -> int:
        """q^(L+1) * c^L, the scaled integer of half-length L over its value."""
        return self._q ** (total + 1) * self._c**total

    def _unscaled(self, key: fam.FamilyKey, value: int) -> Fraction:
        """The family value that the scaled integer ``value`` of ``key`` stands for."""
        return Fraction(value, self._scale(key.l_g + (key.l_b or 0)))

    # -- evaluation machinery ---------------------------------------------

    def _value(self, key: fam.FamilyKey) -> int:
        tag, _, l_g, l_b, _, _ = key
        rank = (l_g + (l_b or 0), _STAGE[tag])
        if self._stack:
            parent = self._stack[-1]
            if rank >= parent:
                raise AssertionError(
                    f"recursion order violated: {key} at rank {rank} "
                    f"referenced from rank {parent}"
                )
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._stack.append(rank)
        try:
            value = self._dispatch[tag](key)
        finally:
            self._stack.pop()
        self._store(key, value)
        return value

    def _store(self, key: fam.FamilyKey, value: int) -> None:
        existing = self._memo.get(key)
        if existing is not None and existing != value:
            raise AssertionError(
                f"memo conflict for {key}: stored {existing}, new {value}"
            )
        self._memo[key] = value

    def _w(self, half_multiplicity: int) -> int:
        """Scaled edge weight W(f) for an edge traversed 2f times."""
        f = half_multiplicity
        cached = self._edge_weights.get(f)
        if cached is None:
            scaled = edge_factor(self.moments, self.params, 2 * f) * self._c**f * self._q**(f - 1)
            if scaled.denominator != 1:
                raise AssertionError(
                    f"scaled edge weight for multiplicity {2 * f} is not an integer: "
                    f"{scaled} at c={self._c}, q={self._q}"
                )
            cached = self._edge_weights[f] = scaled.numerator
        return cached

    # Tags here are code constants, so keys skip the tag checks of
    # ``fam.single_key``/``fam.double_key``: this is the hottest path.

    def _s1(self, component: int, l: int, r: int) -> int:
        return self._value(fam.FamilyKey(fam.S1, component, l, None, r, None))

    def _s1s(self, component: int, l: int, r: int) -> int:
        return self._value(fam.FamilyKey(fam.S1S, component, l, None, r, None))

    def _dbl(self, tag: str, component: int, l_g: int, l_b: int, r_g: int, r_b: int) -> int:
        return self._value(fam.FamilyKey(tag, component, l_g, l_b, r_g, r_b))

    # -- sum equations -----------------------------------------------------

    def _eval_sum(self, key: fam.FamilyKey) -> int:
        _, c, lg, lb, rg, rb = key
        return sum(self._dbl(tag, c, lg, lb, rg, rb) for tag in _SUMS[key.tag])

    # -- gray peel: blue does not use the cut edge --------------------------

    def _gray_peel(self, key: fam.FamilyKey) -> int:
        tag, c, l, lb, r, rb = key
        lower_tag, upper = self._GRAY[tag]
        if tag == fam.S1 and l == 0:
            return self._a[c] if r == 0 else 0
        # With a single-walk lower piece, the blue walk lives beyond the cut
        # edge and cannot touch r.
        if r > l or (lb is not None and rb > lb) or (lower_tag == fam.S1 and rb):
            return 0
        # The blue half-length goes to the piece that holds the blue walk, so
        # upper sums of single walks are cached once per (opp, f, u).
        if lower_tag == fam.S1:
            low_lb, low_rb, up_lb = None, None, lb
        else:
            low_lb, low_rb, up_lb = lb, rb, None
        opp = 3 - c
        total = 0
        for f in range(1, r + 1):
            outer = binomial(r - 1, f - 1) * self._w(f)
            for u in range(0, l - r + 1):
                lower = self._value(fam.FamilyKey(lower_tag, c, l - u - f, low_lb, r - f, low_rb))
                if not lower:
                    continue
                total += outer * lower * upper(self, opp, f, u, up_lb)
        return total

    # Upper sums of the gray peel: the walks beyond v, whose f returns over
    # the cut edge interleave with their own departures from v.

    @_upper_sum(fam.S1, lambda opp, f, u, lb: u)
    def _upper_s1(self, opp: int, f: int, u: int, lb: int | None) -> int:
        upper = 0
        for v in range(0, u + 1):
            upper += binomial(f + v - 1, f - 1) * self._s1(opp, u, v)
        return upper

    @_upper_sum(fam.S1S, lambda opp, f, u, lb: u)
    def _upper_s1_s1s(self, opp: int, f: int, u: int, lb: int | None) -> int:
        upper = 0
        for v in range(0, u + 1):
            upper += binomial(f + v, f) * self._s1(opp, u, v)
            upper += binomial(f + v - 1, f) * self._s1s(opp, u, v)
        return upper

    @_upper_sum(fam.NEQ_C, lambda opp, f, u, lb: u + lb)
    def _upper_pair(self, opp: int, f: int, u: int, lb: int) -> int:
        upper = 0
        for vg in range(0, u + 1):
            code_vg = binomial(f + vg - 1, f - 1)
            for vb in range(0, lb + 1):
                upper += code_vg * (
                    self._dbl(fam.EQ_C, opp, u, lb, vg, vb)
                    + self._dbl(fam.NEQ_C, opp, u, lb, vg, vb)
                )
        return upper

    # tag -> (lower family at r, upper sum beyond v)
    _GRAY = {
        fam.S1: (fam.S1, _upper_s1),
        fam.S1S: (fam.S1, _upper_s1_s1s),
        fam.EQ_C_G: (fam.EQ_C, _upper_s1),
        fam.NEQ_C_GD: (fam.NEQ_C, _upper_s1),
        fam.NEQ_ANYC_SGD: (fam.NEQ_ANYC_S, _upper_s1),
        fam.NEQ_C_GU: (fam.S1, _upper_pair),
    }

    # -- red peel: blue uses the cut edge too -------------------------------

    def _red_peel(self, key: fam.FamilyKey) -> int:
        tag, c, lg, lb, rg, rb = key
        blue_code, lower_tag, upper = self._RED[tag]
        if rg > lg or rb > lb:
            return 0
        opp = 3 - c
        total = 0
        for fg in range(1, rg + 1):
            code_g = binomial(rg - 1, fg - 1)
            for fb in range(1, rb + 1):
                outer = code_g * blue_code(rb, fb) * self._w(fg + fb)
                if not outer:
                    continue
                for ug in range(0, lg - rg + 1):
                    for ub in range(0, lb - rb + 1):
                        lower = self._dbl(
                            lower_tag, c, lg - ug - fg, lb - ub - fb, rg - fg, rb - fb
                        )
                        if not lower:
                            continue
                        total += outer * lower * upper(self, opp, fg, fb, ug, ub)
        return total

    # Upper sums of the red peel: the pair beyond v, whose fg gray and fb
    # blue returns over the cut edge interleave with their departures from v.

    @_upper_sum(fam.EQ_ANYC, lambda opp, fg, fb, ug, ub: ug + ub)
    def _rooted_at_v(self, opp: int, fg: int, fb: int, ug: int, ub: int) -> int:
        upper = 0
        for vg in range(0, ug + 1):
            code_vg = binomial(fg + vg - 1, fg - 1)
            for vb in range(0, ub + 1):
                upper += code_vg * binomial(fb + vb - 1, fb - 1) * self._dbl(
                    fam.EQ_ANYC, opp, ug, ub, vg, vb
                )
        return upper

    @_upper_sum(fam.NEQ_ANYC_S, lambda opp, fg, fb, ug, ub: ug + ub)
    def _rooted_at_or_beyond_v(self, opp: int, fg: int, fb: int, ug: int, ub: int) -> int:
        upper = 0
        for vg in range(0, ug + 1):
            code_vg = binomial(fg + vg - 1, fg - 1)
            for vb in range(0, ub + 1):
                # Either the upper pair shares the root v, or the blue root
                # lies deeper and the upper blue walk merely visits v.
                upper += code_vg * (
                    binomial(fb + vb, fb) * self._dbl(fam.EQ_ANYC, opp, ug, ub, vg, vb)
                    + binomial(fb + vb - 1, fb) * self._dbl(fam.NEQ_ANYC_S, opp, ug, ub, vg, vb)
                )
        return upper

    # tag -> (blue root code, lower family at r, upper sum beyond v)
    _RED = {
        # Blue is rooted at r as well, but its final departure need not use
        # the cut edge, hence the unshifted code count.
        fam.EQ_C_R: (binomial, fam.EQ_ANYC, _rooted_at_v),
        # Blue root sits beyond the cut edge, so blue's final departure from
        # r must return through it.
        fam.NEQ_C_RU: (lambda r, f: binomial(r - 1, f - 1), fam.EQ_ANYC, _rooted_at_or_beyond_v),
        # Blue root on the r side: blue's final departure from r must stay
        # below, leaving fb unconstrained slots among rb - 1.
        fam.NEQ_C_RD: (lambda r, f: binomial(r - 1, f), fam.NEQ_ANYC_S, _rooted_at_v),
    }

    # -- equations of their own shape --------------------------------------

    def _eval_eq_anyc(self, key: fam.FamilyKey) -> int:
        c, lg, lb, rg, rb = key.component, key.l_g, key.l_b, key.r_g, key.r_b
        # Pairs with no shared edge and a common root are exactly the pairs of
        # independent single walks glued at the root; the root's vertex factor
        # must not be counted twice.
        glued, rest = divmod(self._s1(c, lg, rg) * self._s1(c, lb, rb), self._a[c])
        if rest:
            raise AssertionError(
                f"glue at {key} is not divisible by the root factor a_{c} = {self._a[c]}"
            )
        return self._dbl(fam.EQ_C, c, lg, lb, rg, rb) + glued

    def _eval_neq_anyc_sn(self, key: fam.FamilyKey) -> int:
        if key.l_g != 0 or key.r_g != 0:
            return 0
        return self._s1s(key.component, key.l_b, key.r_b)

    def _eval_top(self, key: fam.FamilyKey) -> int:
        lg, lb = key.l_g, key.l_b
        total = 0
        for component in (1, 2):
            for rg in range(0, lg + 1):
                for rb in range(0, lb + 1):
                    total += self._dbl(fam.EQ_C, component, lg, lb, rg, rb)
                    total += self._dbl(fam.NEQ_C, component, lg, lb, rg, rb)
        return total
