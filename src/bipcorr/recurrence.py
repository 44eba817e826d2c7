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
The fourteen double families at one site (c, l_g, l_b, r_g, r_b) are all
peeled over the same cut edge (r, v), and they read the same lower sites.
So the engine evaluates a site, not a family: one generator, ``_site``,
computes the fourteen values in one pass and returns them as a tuple in the
order of ``SITE_TAGS``.

- The gray peel cuts an edge only gray uses.  One (f, u) loop gives EQ_C_G,
  NEQ_C_GD and NEQ_ANYC_SGD: each step reads one lower site, for its EQ_C,
  NEQ_C and NEQ_ANYC_S, and one ``s1`` upper sum.  NEQ_C_GU, whose lower
  piece is the single walk S1, is a loop of its own.
- The red peel cuts an edge both walks use.  One (fg, fb, ug, ub) loop gives
  EQ_C_R, NEQ_C_RU and NEQ_C_RD, which differ in their blue code: each step
  reads one lower site, for its EQ_ANYC and NEQ_ANYC_S, and one pair of
  upper sums, ``rooted_at_v`` and ``rooted_at_or_beyond_v``.  It keeps three
  sums per (fg, fb) and weighs each with the cut edge and its codes once.
- The rest is straight-line code: the sums (EQ_C, NEQ_C_G, NEQ_C_R, NEQ_C,
  NEQ_ANYC_S), the EQ_ANYC glue and NEQ_ANYC_SN, the single walk S1S of the
  blue slots if the gray walk is empty.

The single walks S1 and S1S stay one entry each per (tag, c, l, r); their
gray peel, ``_peel_single``, is the loop NEQ_C_GU runs as well.  TOP adds
EQ_C and NEQ_C over component and roots, one site read each.

Upper sums
----------
Beyond v the peels weigh an upper piece: the family values at v, each times
binomial codes that interleave the f returns over the cut edge with the
departures from v.  For a gray cut edge, ``_upper`` evaluates the sums of
single walks from a row of the table ``_UPPERS``, which lists in read order
the families read at v with their gray codes, and ``pair``, the sum of
EQ_C and NEQ_C over the sites at v that NEQ_C_GU weighs.  For a red cut
edge, ``_rooted`` evaluates both sums the red peel weighs, ``rooted_at_v``
and ``rooted_at_or_beyond_v``, in one pass over the sites at v, and returns
them as a pair.

The sums depend only on their arguments, yet the peels ask for the same ones
many times (at n_{12,12}, the red peel asks for 12,462 pairs of sums and
882 are distinct).  Each engine caches their values in its own dict,
keyed by the sum's name and its arguments; no cache is shared between
engines, because the values depend on the engine's params and moments.  A
peel reads a cached sum inline, as it reads a memo value; only on a miss
does it run ``_upper`` or ``_rooted``, with ``yield from``, so the keys the
sum still lacks go to the same work stack as the peel's own.  A hit reads no
family value, so it adds no memo entry and leaves the memo's insertion order
as it was.

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

- The gray peels: at f = r the lower walk has no departure left, so only
  u = l - r is read (G).
- The red peel: likewise only ug = lg - rg at fg = rg (G), and only
  ub = lb - rb at fb = rb (B: both lower families, EQ_ANYC and NEQ_ANYC_S,
  root or pass the blue walk at r).
- The upper sums: vg starts at 1 when ug > 0 (G).  EQ_C, EQ_ANYC and
  NEQ_ANYC_S are not read at vb = 0 < ub (B): ``_rooted``'s vb starts at 1
  when ub > 0, and ``pair`` reads only NEQ_C there.
- The EQ_ANYC glue reads no single walk at r_b = 0 < l_b (B), where EQ_ANYC
  is EQ_C.
- TOP: r_g starts at 1 when l_g > 0 (G); EQ_C is not read at r_b = 0 < l_b
  (B), but NEQ_C is.

A site asked for directly, through ``s_value``, is evaluated by its own
equations, giving 0 where a rule says so.

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
The memo holds three kinds of entry, each with its own generator: a single
walk (``_single``), keyed as its ``FamilyKey``; a site (``_site``), keyed
(c, l_g, l_b, r_g, r_b) and holding a 14-tuple; and TOP (``_top``), keyed as
its ``FamilyKey``.  Every reference either strictly lowers the total
half-length l_g + l_b, or keeps it and moves to an earlier kind: single
walks before sites before TOP.  A site reads single walks at its own total
(the glue and NEQ_ANYC_SN when a walk is empty), TOP reads the sites at its
total, and every peel step lowers the total by f >= 1.  An entry's rank
packs the pair into one int, ``total << 2 | kind``, so integer order is the
order of the pair.

Where a generator needs a value it reads the memo inline; only on a miss
does it ``yield`` the key.  ``_value`` keeps the pending generators on an
explicit list: it pushes the generator of each key yielded, stores the value
when that generator returns, and sends the value back to the generator
below.  So a memo hit pushes no generator, and a deep key is limited by
memory, not by the interpreter's recursion limit.

``_value`` checks the rank of every key it pushes, which is every miss,
also under ``python -O``, so ranks strictly decrease down the stack and an
accidentally circular edit fails loudly instead of looping.  A hit needs no
check: the kind and total of each read are fixed by the code that reads,
not by a table an edit could reorder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import families as fam
from .model import ModelParams, MomentSequence, edge_factor, validate

# The double families of one site, each sum after its parts; a site's memo
# value lists them in this order.
SITE_TAGS = (
    fam.EQ_C_G, fam.EQ_C_R, fam.EQ_C, fam.EQ_ANYC,
    fam.NEQ_C_GU, fam.NEQ_C_GD, fam.NEQ_C_RU, fam.NEQ_C_RD,
    fam.NEQ_C_G, fam.NEQ_C_R, fam.NEQ_C,
    fam.NEQ_ANYC_SGD, fam.NEQ_ANYC_SN, fam.NEQ_ANYC_S,
)
_SLOT = {tag: slot for slot, tag in enumerate(SITE_TAGS)}
_EQ_C, _EQ_ANYC, _NEQ_C, _NEQ_ANYC_S = (
    _SLOT[fam.EQ_C], _SLOT[fam.EQ_ANYC], _SLOT[fam.NEQ_C], _SLOT[fam.NEQ_ANYC_S]
)
_ZERO_SITE = (0,) * len(SITE_TAGS)


class Site(NamedTuple):
    """The fields a site's fourteen families share; names a site in messages."""

    component: int
    l_g: int
    l_b: int
    r_g: int
    r_b: int


# Binomial codes: the orders of f returns over the cut edge and v departures
# from v whose last step is over the cut edge, at v, or either.
_OVER_CUT, _AT_V, _EITHER = (
    lambda f, v: math.comb(f + v - 1, f - 1),
    lambda f, v: math.comb(f + v - 1, f),
    lambda f, v: math.comb(f + v, f),
)

# Upper sums of single walks beyond a gray cut edge: name -> the families
# read at v, in read order, each with its gray code.
_UPPERS = {
    "s1": ((fam.S1, _OVER_CUT),),
    # The walk is rooted at v, or deeper and merely visits v.
    "s1_s1s": ((fam.S1, _EITHER), (fam.S1S, _AT_V)),
}

# Kinds of memo entry, in the order they are evaluated at one total.
_SINGLE, _SITE, _TOP = range(3)


def _rank(key: tuple) -> int:
    """``total << 2 | kind`` of a memo key."""
    if len(key) == 5:
        return (key[1] + key[2]) << 2 | _SITE
    return (key[2] + (key[3] or 0)) << 2 | (_TOP if key[0] == fam.TOP else _SINGLE)


def _order_violated(ref: tuple, rank: int, parent: int):
    """Raise for a reference to ``ref``, at ``rank``, from a key at ``parent``."""
    name = Site._make(ref) if len(ref) == 5 else fam.FamilyKey._make(ref)
    raise AssertionError(
        f"recursion order violated: {name} at rank {divmod(rank, 4)} "
        f"referenced from rank {divmod(parent, 4)}"
    )


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

    # -- public API --------------------------------------------------------

    def s_value(self, key: fam.FamilyKey) -> Fraction:
        fam.validate_key(key)
        if key.tag in fam.DOUBLE_TAGS:
            return self._unscaled(key, self._value(key[1:])[_SLOT[key.tag]])
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
        """The number of family values the memo holds, 14 per site."""
        return sum(len(SITE_TAGS) if len(key) == 5 else 1 for key in self._memo)

    def memo_items(self) -> Iterable:
        """(key, value) pairs in evaluation order, the values as Fractions; a
        site gives its fourteen families in the order of ``SITE_TAGS``."""
        for key, value in self._memo.items():
            if len(key) == 5:
                for tag, family_value in zip(SITE_TAGS, value):
                    family_key = fam.FamilyKey(tag, *key)
                    yield family_key, self._unscaled(family_key, family_value)
            else:
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
    # Keys inside the engine are plain tuples: a single walk or TOP laid out
    # as ``fam.FamilyKey``, which hashes and compares equal to the named key
    # of the public API, and a site as (c, l_g, l_b, r_g, r_b).  Every read
    # follows one pattern: build the key, ``memo.get``, and ``yield`` the key
    # only on a miss.

    def _value(self, key: tuple):
        """The scaled value of ``key``, evaluating what it lacks on a work stack."""
        value = self._memo.get(key)
        if value is not None:
            return value
        stack = [(key, _rank(key), self._equation(key))]
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
            stack.append((ref, ref_rank, self._equation(ref)))
            value = None
        return value

    def _equation(self, key: tuple):
        """The generator that evaluates ``key``."""
        if len(key) == 5:
            return self._site(key)
        return self._top(key) if key[0] == fam.TOP else self._single(key)

    def _store(self, key: tuple, value) -> None:
        existing = self._memo.get(key)
        if existing is not None and existing != value:
            raise AssertionError(
                f"memo conflict for {key}: stored {existing}, new {value}"
            )
        self._memo[key] = value

    def _get(self, ref: tuple):
        """Read ``ref`` for a generator, yielding it on a miss."""
        value = self._memo.get(ref)
        if value is None:
            value = yield ref
        return value

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

    # -- single walks and TOP ----------------------------------------------

    def _single(self, key: tuple):
        tag, c, l, _, r, _ = key
        if tag == fam.S1 and l == 0:
            return self._a[c] if r == 0 else 0
        if r > l:
            return 0
        return (yield from self._peel_single(c, l, r, "s1" if tag == fam.S1 else "s1_s1s", None))

    def _peel_single(self, c: int, l: int, r: int, upper: str, ub):
        """The gray peel with the single walk S1 as lower piece, the upper sum
        ``upper`` beyond v, and ``ub`` its blue half-length (None if none)."""
        memo, uppers = self._memo, self._uppers
        opp = 3 - c
        total = 0
        for f in range(1, r + 1):
            inner = 0
            # Cutting all r departures leaves the lower walk none, so (G)
            # allows it only the empty walk.
            for u in range(0, l - r + 1) if f < r else (l - r,):
                ref = (fam.S1, c, l - u - f, None, r - f, None)
                lower = memo.get(ref)
                if lower is None:
                    lower = yield ref
                if not lower:
                    continue
                above = uppers.get((upper, opp, f, u, ub))
                if above is None:
                    above = yield from self._upper(upper, opp, f, u, ub)
                inner += lower * above
            total += math.comb(r - 1, f - 1) * self._w(f) * inner
        return total

    def _top(self, key: tuple):
        _, _, lg, lb, _, _ = key
        memo = self._memo
        total = 0
        for c in (1, 2):
            for rg in range(lg > 0, lg + 1):
                for rb in range(0, lb + 1):
                    ref = (c, lg, lb, rg, rb)
                    site = memo.get(ref)
                    if site is None:
                        site = yield ref
                    total += site[_EQ_C] + site[_NEQ_C] if rb or not lb else site[_NEQ_C]
        return total

    # -- a site: the fourteen double families -------------------------------

    def _site(self, key: tuple):
        c, lg, lb, rg, rb = key
        if rg > lg or rb > lb:
            return _ZERO_SITE
        memo, uppers, w = self._memo, self._uppers, self._w
        opp = 3 - c

        # Gray peel, blue below the cut edge: EQ_C_G, NEQ_C_GD, NEQ_ANYC_SGD.
        eq_g = down_g = visit_g = 0
        for f in range(1, rg + 1):
            eq = down = visit = 0
            for u in range(0, lg - rg + 1) if f < rg else (lg - rg,):
                ref = (c, lg - u - f, lb, rg - f, rb)
                lower = memo.get(ref)
                if lower is None:
                    lower = yield ref
                lower_eq, lower_neq, lower_visit = lower[_EQ_C], lower[_NEQ_C], lower[_NEQ_ANYC_S]
                if not (lower_eq or lower_neq or lower_visit):
                    continue
                above = uppers.get(("s1", opp, f, u, None))
                if above is None:
                    above = yield from self._upper("s1", opp, f, u, None)
                eq += lower_eq * above
                down += lower_neq * above
                visit += lower_visit * above
            outer = math.comb(rg - 1, f - 1) * w(f)
            eq_g += outer * eq
            down_g += outer * down
            visit_g += outer * visit

        # Gray peel, blue beyond the cut edge: NEQ_C_GU.  The lower piece is a
        # single walk, so blue cannot touch r.
        up_g = 0 if rb else (yield from self._peel_single(c, lg, rg, "pair", lb))

        # Red peel: EQ_C_R, with blue rooted at r as well but free to leave
        # last by another edge; NEQ_C_RU, with the blue root beyond the cut
        # edge, so blue's last departure from r returns through it; NEQ_C_RD,
        # with the blue root on the r side, so blue's last departure from r
        # stays below.  Cutting all departures of a walk leaves its lower walk
        # none, so (G) and, as both lower families root or pass the blue walk
        # at r, (B) allow it only the empty walk.
        blues = [
            (fb, math.comb(rb, fb), math.comb(rb - 1, fb - 1), math.comb(rb - 1, fb),
             range(0, lb - rb + 1) if fb < rb else (lb - rb,))
            for fb in range(1, rb + 1)
        ]
        eq_r = up_r = down_r = 0
        for fg in range(1, rg + 1):
            code_g = math.comb(rg - 1, fg - 1)
            ugs = range(0, lg - rg + 1) if fg < rg else (lg - rg,)
            low_rg = rg - fg
            for fb, code_eq, code_up, code_down, ubs in blues:
                eq = up = down = 0
                low_rb = rb - fb
                for ug in ugs:
                    low_lg = lg - ug - fg
                    for ub in ubs:
                        ref = (c, low_lg, lb - ub - fb, low_rg, low_rb)
                        lower = memo.get(ref)
                        if lower is None:
                            lower = yield ref
                        lower_anyc, lower_visit = lower[_EQ_ANYC], lower[_NEQ_ANYC_S]
                        if not (lower_anyc or lower_visit):
                            continue
                        rooted = uppers.get(("rooted", opp, fg, fb, ug, ub))
                        if rooted is None:
                            rooted = yield from self._rooted(opp, fg, fb, ug, ub)
                        at_v, beyond = rooted
                        eq += lower_anyc * at_v
                        up += lower_anyc * beyond
                        down += lower_visit * at_v
                weight = code_g * w(fg + fb)
                eq_r += weight * code_eq * eq
                up_r += weight * code_up * up
                down_r += weight * code_down * down

        eq_c = eq_g + eq_r
        eq_anyc = eq_c
        if rb or not lb:
            # Pairs with no shared edge and a common root are exactly the
            # pairs of independent single walks glued at the root; the root's
            # vertex factor must not be counted twice.
            gray = yield from self._get((fam.S1, c, lg, None, rg, None))
            blue = yield from self._get((fam.S1, c, lb, None, rb, None))
            glued, rest = divmod(gray * blue, self._a[c])
            if rest:
                raise AssertionError(
                    f"glue at {fam.FamilyKey(fam.EQ_ANYC, *key)} is not divisible by the "
                    f"root factor a_{c} = {self._a[c]}"
                )
            eq_anyc += glued
        empty = (yield from self._get((fam.S1S, c, lb, None, rb, None))) if lg == 0 == rg else 0
        neq_g = up_g + down_g
        neq_r = up_r + down_r
        return (
            eq_g, eq_r, eq_c, eq_anyc,
            up_g, down_g, up_r, down_r,
            neq_g, neq_r, neq_g + neq_r,
            visit_g, empty, neq_r + visit_g + empty,
        )

    # -- upper sums: the walks beyond v ------------------------------------

    def _upper(self, name: str, opp: int, f: int, u: int, ub):
        """Evaluate and cache an upper sum of a gray cut edge: a row of
        ``_UPPERS`` if ub is None, else ``pair``, EQ_C plus NEQ_C of the sites
        at v with blue half-length ub.

        The f gray returns over the cut edge interleave with the vg gray
        departures from v.
        """
        memo = self._memo
        upper = 0
        for vg in range(u > 0, u + 1):
            if ub is None:
                for tag, code in _UPPERS[name]:
                    ref = (tag, opp, u, None, vg, None)
                    value = memo.get(ref)
                    if value is None:
                        value = yield ref
                    upper += code(f, vg) * value
                continue
            code = _OVER_CUT(f, vg)
            for vb in range(0, ub + 1):
                ref = (opp, u, ub, vg, vb)
                site = memo.get(ref)
                if site is None:
                    site = yield ref
                upper += code * (site[_EQ_C] + site[_NEQ_C] if vb or not ub else site[_NEQ_C])
        self._uppers[(name, opp, f, u, ub)] = upper
        return upper

    def _rooted(self, opp: int, fg: int, fb: int, ug: int, ub: int):
        """Evaluate and cache the upper sums of a red cut edge, a pair.

        ``rooted_at_v``: the pair shares the root v.  ``rooted_at_or_beyond_v``:
        it does, or the blue root is deeper and blue merely visits v.  fg gray
        and fb blue returns over the cut edge interleave with the vg and vb
        departures from v.  Both read EQ_ANYC and NEQ_ANYC_S at v, which (B)
        makes 0 at vb = 0 < ub.
        """
        memo = self._memo
        at_v = beyond = 0
        for vg in range(ug > 0, ug + 1):
            gray = _OVER_CUT(fg, vg)
            for vb in range(ub > 0, ub + 1):
                ref = (opp, ug, ub, vg, vb)
                site = memo.get(ref)
                if site is None:
                    site = yield ref
                anyc = gray * site[_EQ_ANYC]
                at_v += _OVER_CUT(fb, vb) * anyc
                beyond += _EITHER(fb, vb) * anyc + _AT_V(fb, vb) * gray * site[_NEQ_ANYC_S]
        rooted = self._uppers[("rooted", opp, fg, fb, ug, ub)] = (at_v, beyond)
        return rooted
