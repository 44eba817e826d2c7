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
The combinatorial factors are binomial codes C(n, k) = ``math.comb(n, k)``:
a walk that departs the root r_g times, f of them through the cut edge,
distributes those departures in C(r_g - 1, f - 1) ways when its final return
is forced through the cut edge (or C(r_g, f) style variants when it is not),
and the upper walk interleaves with blue excursions in C(f + v - 1, f - 1)
ways.  C(n, k) is 0 for k > n (NEQ_C_RD's C(r_b - 1, r_b), or ``_AT_V`` at
v = 0), and it raises on a negative argument, which no loop range passes.

Equation shapes
---------------
Three shapes cover every equation but EQ_ANYC's.  The sum equation adds the
keys ``_summands`` lists: a ``_SUMS`` row its parts at the same key, TOP EQ_C
and NEQ_C over component and roots, NEQ_ANYC_SN the single walk S1S of its
blue slots if the gray walk is empty.  The gray peel (S1, S1S, EQ_C_G,
NEQ_C_GD, NEQ_ANYC_SGD, NEQ_C_GU) cuts an edge only gray uses, the red peel
(EQ_C_R, NEQ_C_RU, NEQ_C_RD) one both walks use; the rows of ``_GRAY`` and
``_RED`` differ in lower family and upper sum, and red rows in the blue code.

Upper sums
----------
Beyond v the peels weigh an upper piece: the family values at v, each times
binomial codes that interleave the f returns over the cut edge with the
departures from v.  One generator, ``_upper``, evaluates every such sum from
a row of the table ``_UPPERS``, which lists in read order the families read
at v with their gray and blue codes.

The sums depend only on their arguments, yet the peels ask for the same ones
many times (at n_{12,12}, ``rooted_at_v`` is asked 22,332 times for 882
distinct arguments).  Each engine caches their values in its own dict,
keyed by the row's name and the arguments; no cache is shared between
engines, because the values depend on the engine's params and moments.  A
peel reads a cached sum inline, as it reads a memo value; only on a miss
does it run ``_upper``, with ``yield from``, so the keys the sum still lacks
go to the same work stack as the peel's own.  A hit reads no family value,
so it adds no memo key and leaves the memo's insertion order as it was.

Structural zeros
----------------
A closed walk of positive half-length leaves every vertex it visits: its
root at the first step, any other vertex right after each arrival.  So two
shapes force a family value to 0:

(G) A key other than TOP with r_g = 0 < l_g is 0.  Proof: the walk in the
    gray slots is rooted at r (for S1S it visits r), so it leaves r.
(B) In the families whose blue walk is rooted at r or passes through r
    (EQ_C, EQ_C_G, EQ_C_R, EQ_ANYC, NEQ_C_R, NEQ_C_RU, NEQ_C_RD, NEQ_ANYC_S,
    NEQ_ANYC_SGD, NEQ_ANYC_SN), a key with r_b = 0 < l_b is 0.  Proof: the
    blue walk visits r, so it leaves r.  In NEQ_C, NEQ_C_G, NEQ_C_GU and
    NEQ_C_GD the blue walk need not visit r, and (B) does not hold.

The equations do not read such keys; their loop ranges leave them out, so
no read pays a lookup for the rule.  ``range(x > 0, x + 1)`` starts at 1
whenever x is positive.

- ``_gray_peel``: at f = r the lower walk has no departure left, so only
  u = l - r is read (G).
- ``_red_peel``: likewise only ug = lg - rg at fg = rg (G), and only
  ub = lb - rb at fb = rb (B: both lower tags, EQ_ANYC and NEQ_ANYC_S, root
  or pass the blue walk at r).
- ``_upper``: vg starts at 1 when ug > 0 (G); a family in ``_BLUE_AT_ROOT``
  (EQ_C, EQ_ANYC and NEQ_ANYC_S among those the rows read) is not read at
  vb = 0 < ub (B), but NEQ_C is.
- ``_summands``: TOP's rg starts at 1 when lg > 0 (G); EQ_C is not read at
  rb = 0 < lb (B), but NEQ_C is.

The ``_SUMS`` rows read every part at their own key.  A key asked for
directly, through ``s_value``, is evaluated by its own equation, giving 0.

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

Work stack and termination
--------------------------
Recursive references either strictly decrease the total half-length
l_g + l_b, or keep it fixed and move to a strictly earlier evaluation stage
(``families.STAGE``).  A key's rank packs the pair into one int,
``total << 5 | stage`` (every stage is below 32), so integer order is the
order of the pair.

Each equation is a generator.  Where it needs a family value it reads the
memo inline; only on a miss does it ``yield`` the key.  ``_value`` keeps the
pending equations on an explicit list: it pushes the equation of each key
yielded, stores the value when that generator returns, and sends the value
back to the generator below.  So a memo hit pushes no equation, and a deep
key is limited by memory, not by the interpreter's recursion limit.

The order is checked where it can fail, also under ``python -O``, so an
accidentally circular edit fails loudly instead of looping.  ``_value``
checks every key it pushes, which is every miss, so ranks strictly decrease
down the stack.  The sum equation and EQ_ANYC read keys at their own total,
where only the stage table orders them; each checks once per call the latest
key it will read, memo hits included.  The peels need no check: the cut edge
takes f >= 1 of the total, and an upper sum reads at most the total minus r.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import families as fam
from .model import ModelParams, MomentSequence, edge_factor, validate

_STAGE = fam.STAGE

# Families whose value is the plain sum of other families at the same key.
_SUMS = {
    fam.EQ_C: (fam.EQ_C_G, fam.EQ_C_R),
    fam.NEQ_C: (fam.NEQ_C_G, fam.NEQ_C_R),
    fam.NEQ_C_G: (fam.NEQ_C_GU, fam.NEQ_C_GD),
    fam.NEQ_C_R: (fam.NEQ_C_RU, fam.NEQ_C_RD),
    fam.NEQ_ANYC_S: (fam.NEQ_C_R, fam.NEQ_ANYC_SGD, fam.NEQ_ANYC_SN),
}


def _summands(key: tuple) -> list:
    """The keys whose values add up to a sum family's value, in read order."""
    tag, c, lg, lb, rg, rb = key
    if tag == fam.NEQ_ANYC_SN:
        return [(fam.S1S, c, lb, None, rb, None)] if lg == 0 == rg else []
    if tag != fam.TOP:
        return [(part, c, lg, lb, rg, rb) for part in _SUMS[tag]]
    return [
        (part, component, lg, lb, rg, rb)
        for component in (1, 2)
        for rg in range(lg > 0, lg + 1)
        for rb in range(0, lb + 1)
        for part in ((fam.EQ_C, fam.NEQ_C) if rb or not lb else (fam.NEQ_C,))
    ]


# Rule (B) of the module docstring: the families whose blue walk is rooted at
# r or passes through r, where a key with r_b = 0 < l_b is 0.
_BLUE_AT_ROOT = frozenset({
    fam.EQ_C, fam.EQ_C_G, fam.EQ_C_R, fam.EQ_ANYC, fam.NEQ_C_R, fam.NEQ_C_RU,
    fam.NEQ_C_RD, fam.NEQ_ANYC_S, fam.NEQ_ANYC_SGD, fam.NEQ_ANYC_SN,
})

# Binomial codes: the orders of f returns over the cut edge and v departures
# from v whose last step is over the cut edge, at v, or either.
_OVER_CUT, _AT_V, _EITHER = (
    lambda f, v: math.comb(f + v - 1, f - 1),
    lambda f, v: math.comb(f + v - 1, f),
    lambda f, v: math.comb(f + v, f),
)

# Upper sums: name -> the families read at v, in read order, each with its
# gray code and its blue code (None, counted 1, where blue does not cross the
# cut edge).
_UPPERS = {
    "s1": ((fam.S1, _OVER_CUT, None),),
    # The walk is rooted at v, or deeper and merely visits v.
    "s1_s1s": ((fam.S1, _EITHER, None), (fam.S1S, _AT_V, None)),
    "pair": ((fam.EQ_C, _OVER_CUT, None), (fam.NEQ_C, _OVER_CUT, None)),
    "rooted_at_v": ((fam.EQ_ANYC, _OVER_CUT, _OVER_CUT),),
    # The pair shares the root v, or the blue root is deeper and blue merely
    # visits v.
    "rooted_at_or_beyond_v": (
        (fam.EQ_ANYC, _OVER_CUT, _EITHER),
        (fam.NEQ_ANYC_S, _OVER_CUT, _AT_V),
    ),
}

# Gray peel: tag -> (lower family at r, upper sum beyond v).
_GRAY = {
    fam.S1: (fam.S1, "s1"),
    fam.S1S: (fam.S1, "s1_s1s"),
    fam.EQ_C_G: (fam.EQ_C, "s1"),
    fam.NEQ_C_GD: (fam.NEQ_C, "s1"),
    fam.NEQ_ANYC_SGD: (fam.NEQ_ANYC_S, "s1"),
    fam.NEQ_C_GU: (fam.S1, "pair"),
}

# Red peel: tag -> (blue root code, lower family at r, upper sum beyond v).
_RED = {
    # Blue is rooted at r as well, but its final departure need not use
    # the cut edge, hence the unshifted code count.
    fam.EQ_C_R: (math.comb, fam.EQ_ANYC, "rooted_at_v"),
    # Blue root sits beyond the cut edge, so blue's final departure from
    # r must return through it.
    fam.NEQ_C_RU: (lambda r, f: math.comb(r - 1, f - 1), fam.EQ_ANYC, "rooted_at_or_beyond_v"),
    # Blue root on the r side: blue's final departure from r must stay
    # below, leaving fb unconstrained slots among rb - 1.
    fam.NEQ_C_RD: (lambda r, f: math.comb(r - 1, f), fam.NEQ_ANYC_S, "rooted_at_v"),
}


def _rank(key: tuple) -> int:
    """``total << 5 | stage`` of a key."""
    return (key[2] + (key[3] or 0)) << 5 | _STAGE[key[0]]


def _order_violated(ref: tuple, rank: int, parent: int):
    """Raise for a reference to ``ref``, at ``rank``, from a key at ``parent``."""
    raise AssertionError(
        f"recursion order violated: {fam.FamilyKey._make(ref)} at rank {divmod(rank, 32)} "
        f"referenced from rank {divmod(parent, 32)}"
    )


def _check_order(key: tuple, refs) -> None:
    """Raise unless the latest of ``refs``, the keys an equation of ``key``
    reads at its own total half-length, ranks below ``key``."""
    if refs:
        ref = max(refs, key=_rank)
        if (ref_rank := _rank(ref)) >= (rank := _rank(key)):
            _order_violated(ref, ref_rank, rank)


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
        self._dispatch = {
            **dict.fromkeys((*_SUMS, fam.NEQ_ANYC_SN, fam.TOP), self._eval_sum),
            **dict.fromkeys(_GRAY, self._gray_peel),
            **dict.fromkeys(_RED, self._red_peel),
            fam.EQ_ANYC: self._eval_eq_anyc,
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
        for key, value in self._memo.items():
            key = fam.FamilyKey._make(key)
            yield key, self._unscaled(key, value)

    # -- scaled integers ---------------------------------------------------

    def _scale(self, total: int) -> int:
        """q^(L+1) * c^L, the scaled integer of half-length L over its value."""
        return self._q ** (total + 1) * self._c**total

    def _unscaled(self, key: fam.FamilyKey, value: int) -> Fraction:
        """The family value that the scaled integer ``value`` of ``key`` stands for."""
        return Fraction(value, self._scale(key.l_g + (key.l_b or 0)))

    # -- evaluation machinery ---------------------------------------------
    #
    # Keys inside the engine are plain tuples laid out as ``fam.FamilyKey``,
    # which hash and compare equal to the named keys of the public API.  Each
    # equation is a generator called with its key, and every read of a family
    # value in it follows one pattern: build the key, ``memo.get``, and
    # ``yield`` the key only on a miss.

    def _value(self, key: tuple) -> int:
        """The scaled value of ``key``, evaluating what it lacks on a work stack."""
        value = self._memo.get(key)
        if value is not None:
            return value
        dispatch = self._dispatch
        stack = [(key, _rank(key), dispatch[key[0]](key))]
        while stack:
            key, rank, frame = stack[-1]
            try:
                ref = frame.send(value)
            except StopIteration as done:
                value = done.value
                self._store(key, value)
                stack.pop()
                continue
            ref_rank = _rank(ref)
            if ref_rank >= rank:
                _order_violated(ref, ref_rank, rank)
            stack.append((ref, ref_rank, dispatch[ref[0]](ref)))
            value = None
        return value

    def _store(self, key: tuple, value: int) -> None:
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

    # -- the sum equation: TOP, NEQ_ANYC_SN and the _SUMS rows -------------

    def _eval_sum(self, key: tuple):
        refs = _summands(key)
        _check_order(key, refs)
        memo = self._memo
        total = 0
        for ref in refs:
            value = memo.get(ref)
            if value is None:
                value = yield ref
            total += value
        return total

    # -- gray peel: blue does not use the cut edge --------------------------

    def _gray_peel(self, key: tuple):
        tag, c, l, lb, r, rb = key
        lower_tag, upper = _GRAY[tag]
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
        memo, uppers = self._memo, self._uppers
        opp = 3 - c
        total = 0
        for f in range(1, r + 1):
            outer = math.comb(r - 1, f - 1) * self._w(f)
            # Cutting all r departures leaves the lower walk none, so (G)
            # allows it only the empty walk.
            for u in range(0, l - r + 1) if f < r else (l - r,):
                ref = (lower_tag, c, l - u - f, low_lb, r - f, low_rb)
                lower = memo.get(ref)
                if lower is None:
                    lower = yield ref
                if not lower:
                    continue
                above = uppers.get((upper, opp, f, None, u, up_lb))
                if above is None:
                    above = yield from self._upper(upper, opp, f, None, u, up_lb)
                total += outer * lower * above
        return total

    # -- red peel: blue uses the cut edge too -------------------------------

    def _red_peel(self, key: tuple):
        tag, c, lg, lb, rg, rb = key
        blue_code, lower_tag, upper = _RED[tag]
        if rg > lg or rb > lb:
            return 0
        memo, uppers = self._memo, self._uppers
        opp = 3 - c
        # Cutting all departures of a walk leaves its lower walk none, so (G)
        # and, as both lower tags root or pass the blue walk at r, (B) allow
        # it only the empty walk.
        blues = [
            (fb, code, range(0, lb - rb + 1) if fb < rb else (lb - rb,))
            for fb in range(1, rb + 1)
            if (code := blue_code(rb, fb))
        ]
        total = 0
        for fg in range(1, rg + 1):
            code_g = math.comb(rg - 1, fg - 1)
            ugs = range(0, lg - rg + 1) if fg < rg else (lg - rg,)
            for fb, code_b, ubs in blues:
                outer = code_g * code_b * self._w(fg + fb)
                if not outer:
                    continue
                for ug in ugs:
                    for ub in ubs:
                        ref = (lower_tag, c, lg - ug - fg, lb - ub - fb, rg - fg, rb - fb)
                        lower = memo.get(ref)
                        if lower is None:
                            lower = yield ref
                        if not lower:
                            continue
                        above = uppers.get((upper, opp, fg, fb, ug, ub))
                        if above is None:
                            above = yield from self._upper(upper, opp, fg, fb, ug, ub)
                        total += outer * lower * above
        return total

    # -- upper sums: the walks beyond v ------------------------------------

    def _upper(self, name: str, opp: int, fg: int, fb, ug: int, ub):
        """Evaluate upper sum ``name`` and cache it.

        fg gray and fb blue returns over the cut edge interleave with the vg
        and vb departures from v.  fb is None where blue does not cross the
        cut edge, and ub and vb where the row reads single walks.
        """
        reads = _UPPERS[name]
        memo = self._memo
        upper = 0
        for vg in range(ug > 0, ug + 1):
            for vb in (None,) if ub is None else range(0, ub + 1):
                for tag, gray_code, blue_code in reads:
                    if vb == 0 < ub and tag in _BLUE_AT_ROOT:
                        continue
                    ref = (tag, opp, ug, ub, vg, vb)
                    value = memo.get(ref)
                    if value is None:
                        value = yield ref
                    code = gray_code(fg, vg)
                    if blue_code is not None:
                        code *= blue_code(fb, vb)
                    upper += code * value
        self._uppers[(name, opp, fg, fb, ug, ub)] = upper
        return upper

    # -- EQ_ANYC: the equation of its own shape ----------------------------

    def _eval_eq_anyc(self, key: tuple):
        _, c, lg, lb, rg, rb = key
        gray_ref = (fam.S1, c, lg, None, rg, None)
        blue_ref = (fam.S1, c, lb, None, rb, None)
        shared_ref = (fam.EQ_C, c, lg, lb, rg, rb)
        _check_order(key, (gray_ref, blue_ref, shared_ref))
        memo = self._memo
        gray = memo.get(gray_ref)
        if gray is None:
            gray = yield gray_ref
        blue = memo.get(blue_ref)
        if blue is None:
            blue = yield blue_ref
        # Pairs with no shared edge and a common root are exactly the pairs of
        # independent single walks glued at the root; the root's vertex factor
        # must not be counted twice.
        glued, rest = divmod(gray * blue, self._a[c])
        if rest:
            raise AssertionError(
                f"glue at {fam.FamilyKey._make(key)} is not divisible by the root factor "
                f"a_{c} = {self._a[c]}"
            )
        shared = memo.get(shared_ref)
        if shared is None:
            shared = yield shared_ref
        return shared + glued
