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
is forced through the cut edge (gray), or C(r_b, f) ways when it is not
(blue), and the upper walk interleaves with the f returns over the cut edge
in C(f + v - 1, f - 1) ways.

Moving the blue root
--------------------
Fix a gray walk and the blue edges of a tree pair, each with the number of
times blue crosses it each way.  Every closed blue walk with these crossings
departs a vertex x the same number of times, d(x); the d(x) add up to 2 l_b,
and d(r) = r_b.  Read cyclically from one of its departures from x, a walk
from y becomes a walk from x with one marked departure from y, the old
start, and reading it from the mark undoes this.  So N(y) d(x) = N(x) d(y),
where N(x) counts the walks from x.  The weight of a pair, its shared edges,
whether blue crosses (r, v) and every site field depend on the edges alone.
So if r_b > 0, a family whose blue root ranges over a set X of vertices
without r is its twin rooted at r, times the sum of d(x) over X, over r_b:

- X all vertices but r, with 2 l_b - r_b departures: rho = (2 l_b - r_b) /
  r_b moves EQ_C to NEQ_C, EQ_C_G to NEQ_C_G, EQ_C_R to NEQ_C_R and EQ_ANYC
  to NEQ_ANYC_S; with an empty gray walk, S1S(c, l, r) = S1 (2l - r) / r.
- X the vertices beyond v: a term of the red peel crosses the cut edge fb
  times each way and has blue half-length ub beyond v, so 2 ub + fb
  departures.  NEQ_C_RU weighs each EQ_C_R term with them, over r_b.

Equation shapes
---------------
The fourteen double families at one site (c, l_g, l_b, r_g, r_b) are
evaluated together: one generator, ``_site``, returns them as a tuple in the
order of ``SITE_TAGS``.  It peels only what moving the blue root cannot
give, with two loops: the gray peel ``_gray_peel``, one (f, u) loop over a
cut edge only gray uses, and the red peel, one (fg, fb, ug, ub) loop over a
cut edge both walks use.  Each step of the gray peel reads one family of one
lower site at r and one upper sum beyond v: the single walks at v, or
``pair`` at the blue half-length ub beyond v.  Three cases:

- l_b = 0: the blue walk is empty at r, so EQ_ANYC is the single walk
  S1(c, l_g, r_g) and every other family is 0.  S1 is a_c at l_g = 0, else
  the gray peel reading the EQ_ANYC of the lower sites with l_b = 0 (single
  walks) and the single walks at v.
- r_b = 0 < l_b: the blue walk never visits r, so only NEQ_C_GD and NEQ_C_GU
  and their sums are not 0.  The gray peel reading the NEQ_C of the lower
  sites (c, ., l_b, ., 0) and the single walks at v gives NEQ_C_GD; reading
  the single walks at r, as S1 does, and ``pair`` at ub = l_b, it gives
  NEQ_C_GU.
- r_b > 0: the gray peel reading the EQ_C of the lower sites
  (c, ., l_b, ., r_b) and the single walks at v gives EQ_C_G.  The red peel
  gives EQ_C_R: each step reads the EQ_ANYC of one lower site and one
  ``rooted`` upper sum, and each (fg, fb) weighs its sum with the cut edge
  and codes once.  The same terms give NEQ_C_RU.  The rest is moved:
  NEQ_C_GD = NEQ_C_G = EQ_C_G rho, NEQ_C_GU = 0, NEQ_C_R = EQ_C_R rho,
  NEQ_C_RD = NEQ_C_R - NEQ_C_RU, and EQ_ANYC adds the glue to EQ_C, so
  NEQ_ANYC_SGD = (EQ_C_G + glue) rho if l_g > 0, else NEQ_ANYC_SN = glue
  rho.

Every read of the single walk S1(c, l, r) reads the site (c, l, 0, r, 0).
S1S and TOP are not memo entries but what ``s_value`` makes of sites: S1S
moves the root of S1, and TOP adds EQ_C and NEQ_C over component and roots,
one site each.

Upper sums
----------
Beyond v the peels weigh an upper piece: the family values at v, each times
the binomial code that interleaves the f returns over the cut edge with the
departures from v.  There are two sums:

- ``rooted``, evaluated by ``_rooted``: the sum of EQ_ANYC over the sites
  (opp, ug, ub, vg, vb) at v, with the fg gray and fb blue returns over the
  cut edge interleaved with the vg and vb departures from v.  The red peel
  reads it.  The single walks at v, which the gray peel reads, are
  ``rooted`` with fb = 1 and ub = 0: with no blue walk at v only vb = 0 is
  read, its blue code is C(fb + 0 - 1, fb - 1) = C(0, 0) = 1, and the
  EQ_ANYC of a site with l_b = 0 is its single walk S1.
- ``pair``, evaluated by ``_pair``: the sum of EQ_C and NEQ_C over the sites
  at v with blue half-length ub, which NEQ_C_GU weighs.

The peels ask for the same sums many times (at n_{12,12} they ask for
14,786 and 924 are distinct, 882 of them ``rooted``), so each engine caches
them in its own dict, keyed by the sum's name and arguments; the values
depend on the engine's params and moments.  A peel reads a cached sum
inline, as it reads a memo value; only on a miss does it run ``_pair`` or
``_rooted``, with ``yield from``, so the keys the sum still lacks go to the
same work stack as the peel's own.  A hit adds no memo entry and leaves the
memo's order.

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

- The gray peel: at f = r_g the lower walk has no departure left, so only
  u = l_g - r_g is read (G).  With l_b = 0 that lower piece is the empty
  walk a_c.  With l_b > 0 it is a site with no gray walk, whose EQ_C and
  NEQ_C, which need a shared edge, are 0, so the f loop stops before r_g.
- The red peel: likewise only ug = lg - rg at fg = rg (G), and only
  ub = lb - rb at fb = rb (B: the lower EQ_ANYC roots the blue walk at r).
- The upper sums: vg starts at 1 when ug > 0 (G).  EQ_C and EQ_ANYC are not
  read at vb = 0 < ub (B): ``_rooted``'s vb starts at 1 when ub > 0, and
  ``pair`` reads only NEQ_C there.
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
``correlator_coefficient``, ``memo_items``).  One public reader hands out the
integers: ``scaled_site`` returns a site's fourteen X in the order of
``SITE_TAGS`` together with D_L = q^(L+1) c^L, so that a caller comparing
whole sites, as ``crosscheck`` does, builds no Fraction; the double branch
of ``s_value`` reads through it.  In both peels the cut edge, the
lower piece and the upper piece split the half-length as L = f + L_lower +
L_upper, so the scales of the three factors multiply to the scale of the
key: the equations keep their shape, with W(f) in place of w(f), and the
empty walk S1(l=0, r=0) becomes a_c.  The W(f) sit in a list indexed by
f, which ``_value`` fills up to the total of the key it evaluates, checking
each W(f) to be an integer.  Two steps divide: the EQ_ANYC glue
of single walks at a common root, s1 * s2 / alpha_c, is X1 * X2 / a_c,
exact as every term of X1 carries the root's factor a_c; moving the blue
root is exact as each N(x) is an integer.  ``_exact`` checks every
remainder all the same, also under ``python -O``.

Work stack and termination
--------------------------
The memo holds one kind of entry: a site, keyed (c, l_g, l_b, r_g, r_b) and
holding its 14-tuple, which ``_site`` evaluates.  Every reference either
strictly lowers the total half-length l_g + l_b, or keeps it and moves from
a site with l_b > 0 to one with l_b = 0.  Only the glue of a site with
l_g = 0 does the latter: it reads its blue walk's S1, the site
(c, l_b, 0, r_b, 0).  The glue's gray walk lowers the total by l_b, and
every peel step and upper sum by f >= 1.  A site's rank packs the pair into
one int, ``total << 1 | (l_b > 0)``, so integer order is the order of the
pair.

Where a generator needs a value it reads the memo inline; only on a miss
does it ``yield`` the key.  ``_value`` keeps the pending generators on an
explicit list: it pushes the generator of each key yielded, stores the value
when that generator returns, and sends the value back to the generator
below.  So a memo hit pushes no generator, and a deep key is limited by
memory, not by the interpreter's recursion limit.

``_value`` checks the rank of every key it pushes, which is every miss,
also under ``python -O``, so ranks strictly decrease down the stack and a
circular edit fails loudly instead of looping.  A hit needs no check: the
total and l_b of each read are fixed by the code that reads.
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
_EQ_C, _EQ_ANYC, _NEQ_C = _SLOT[fam.EQ_C], _SLOT[fam.EQ_ANYC], _SLOT[fam.NEQ_C]
_ZERO_SITE = (0,) * len(SITE_TAGS)


class Site(NamedTuple):
    """The fields a site's fourteen families share; names a site in messages."""

    component: int
    l_g: int
    l_b: int
    r_g: int
    r_b: int


def _exact(dividend: int, divisor: int, what: str, key: tuple, by: str) -> int:
    """``dividend / divisor``, which must be an integer, for ``what`` at the
    family ``key``, with ``by`` naming the divisor; checked also under
    ``python -O``."""
    quotient, rest = divmod(dividend, divisor)
    if rest:
        raise AssertionError(
            f"{what} at {fam.FamilyKey._make(key)} is not divisible by {by} = {divisor}"
        )
    return quotient


def _rank(site: tuple) -> int:
    """``total << 1 | (l_b > 0)`` of a site."""
    return (site[1] + site[2]) << 1 | (site[2] > 0)


def _order_violated(ref: tuple, rank: int, parent: int):
    """Raise for a reference to site ``ref``, at ``rank``, from a site at ``parent``."""
    raise AssertionError(
        f"recursion order violated: {Site._make(ref)} at rank {divmod(rank, 2)} "
        f"referenced from rank {divmod(parent, 2)}"
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
        # W(f) at index f, filled by ``_value`` up to the total of the key it
        # evaluates; no edge is crossed 0 times, so index 0 holds a 0.
        self._weights: list = [0]

    # -- public API --------------------------------------------------------

    def s_value(self, key: fam.FamilyKey) -> Fraction:
        """The value of ``key``; needs V_2 .. V_2L at its total half-length L."""
        fam.validate_key(key)
        if key.tag in fam.DOUBLE_TAGS:
            scale, site = self.scaled_site(key[1:])
            return Fraction(site[_SLOT[key.tag]], scale)
        self.moments.require(2 * (key.l_g + (key.l_b or 0)))
        if key.tag == fam.TOP:
            _, _, lg, lb, _, _ = key
            total = 0
            for c in (1, 2):
                for rg in range(lg > 0, lg + 1):
                    for rb in range(0, lb + 1):
                        site = self._value((c, lg, lb, rg, rb))
                        total += site[_EQ_C] + site[_NEQ_C] if rb or not lb else site[_NEQ_C]
            return self._unscaled(key, total)
        _, c, l, _, r, _ = key
        if key.tag == fam.S1S and r == 0:
            return Fraction(0)
        s1 = self._value((c, l, 0, r, 0))[_EQ_ANYC]
        if key.tag == fam.S1:
            return self._unscaled(key, s1)
        return self._unscaled(key, _exact(s1 * (2 * l - r), r, "moved root", key, "r"))

    def scaled_site(self, site: tuple) -> tuple:
        """(D_L, values) of ``site``, a ``Site`` or its 5-tuple: the fourteen
        family values at the site in the order of ``SITE_TAGS``, each times
        D_L = q^(L+1) c^L as an int, L = l_g + l_b; needs V_2 .. V_2L."""
        component, l_g, l_b, r_g, r_b = site
        if component not in (1, 2) or min(l_g, l_b, r_g, r_b) < 0:
            raise fam.UnknownFamilyError(f"malformed site {Site(*site)}")
        self.moments.require(2 * (l_g + l_b))
        return self._scale(l_g + l_b), self._value(tuple(site))

    def correlator_coefficient(self, k: int, m: int) -> Fraction:
        """n_{k,m}: the large-N limit of N * Cov(moment k, moment m)."""
        validate(self.params, self.moments, k, m)
        if k % 2 != 0 or m % 2 != 0:
            return Fraction(0)
        return self.s_value(fam.top_key(k // 2, m // 2))

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
        """The number of family values the memo holds: 14 per site, the only
        kind of entry."""
        return len(SITE_TAGS) * len(self._memo)

    def memo_items(self) -> Iterable:
        """(key, value) pairs in evaluation order, the values as Fractions:
        each site gives its fourteen double families in the order of
        ``SITE_TAGS``.  A single walk S1 is listed as the EQ_ANYC of its site
        with l_b = 0; S1S and TOP are not memo entries."""
        for site, values in self._memo.items():
            for tag, value in zip(SITE_TAGS, values):
                key = fam.FamilyKey(tag, *site)
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
    # A memo key is a site as the plain tuple (c, l_g, l_b, r_g, r_b).  Every
    # read follows one pattern: build the key, ``memo.get``, and ``yield`` the
    # key only on a miss.

    def _value(self, key: tuple):
        """The scaled values of site ``key``, evaluating what it lacks on a
        work stack."""
        value = self._memo.get(key)
        if value is not None:
            return value
        rank = _rank(key)
        # No key the work stack pushes has a higher total than ``key``, and a
        # peel's cut edge has f at most the total of the key it peels.
        self._fill_weights(rank >> 1)
        stack = [(key, rank, self._site(key))]
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
            stack.append((ref, ref_rank, self._site(ref)))
            value = None
        return value

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

    def _fill_weights(self, total: int) -> None:
        """Append the scaled edge weights W(f), for an edge traversed 2f
        times, to ``_weights`` up to f = ``total``."""
        weights = self._weights
        for f in range(len(weights), total + 1):
            scaled = edge_factor(self.moments, self.params, 2 * f) * self._c**f * self._q**(f - 1)
            if scaled.denominator != 1:
                raise AssertionError(
                    f"scaled edge weight for multiplicity {2 * f} is not an integer: "
                    f"{scaled} at c={self._c}, q={self._q}"
                )
            weights.append(scaled.numerator)

    # -- the gray peel -----------------------------------------------------

    def _gray_peel(self, c: int, lg: int, lb: int, rg: int, rb: int, slot: int, ub):
        """The gray peel of a cut edge only gray uses: each step reads family
        ``slot`` of the lower site (c, ., lb, ., rb) at r and, beyond v, the
        ``pair`` upper sum at blue half-length ``ub``, or the single walks S1
        at v, ``rooted`` with one blue return and ub = 0, if ``ub`` is None."""
        memo, uppers, w = self._memo, self._uppers, self._weights
        opp = 3 - c
        total = 0
        # Cutting all r_g departures leaves the lower gray walk empty: the
        # empty walk a_c if lb = 0, else a site whose EQ_C and NEQ_C, which
        # need a shared edge, are 0.
        for f in range(1, rg + 1 - (lb > 0)):
            inner = 0
            # At f = r_g, (G) allows the lower walk only the empty walk.
            for u in range(0, lg - rg + 1) if f < rg else (lg - rg,):
                ref = (c, lg - u - f, lb, rg - f, rb)
                lower = memo.get(ref)
                if lower is None:
                    lower = yield ref
                lower = lower[slot]
                if not lower:
                    continue
                name = ("rooted", opp, f, 1, u, 0) if ub is None else ("pair", opp, f, u, ub)
                above = uppers.get(name)
                if above is None:
                    upper = self._rooted(opp, f, 1, u, 0) if ub is None else self._pair(opp, f, u, ub)
                    above = yield from upper
                inner += lower * above
            total += math.comb(rg - 1, f - 1) * w[f] * inner
        return total

    # -- a site: the fourteen double families -------------------------------

    def _site(self, key: tuple):
        c, lg, lb, rg, rb = key
        if rg > lg or rb > lb:
            return _ZERO_SITE
        if lb == 0:
            gray = (yield from self._gray_peel(c, lg, 0, rg, 0, _EQ_ANYC, None)) if lg else self._a[c]
            return (0, 0, 0, gray, *_ZERO_SITE[4:])

        # Gray peel, blue below the cut edge: EQ_C_G if blue visits r, else
        # NEQ_C_GD.
        gray_peel = yield from self._gray_peel(c, lg, lb, rg, rb, _EQ_C if rb else _NEQ_C, None)

        if not rb:
            # Gray peel, blue beyond the cut edge: NEQ_C_GU.  The lower piece
            # is a single walk, so blue cannot touch r.
            up_g = yield from self._gray_peel(c, lg, 0, rg, 0, _EQ_ANYC, lb)
            neq_g = up_g + gray_peel
            return (0, 0, 0, 0, up_g, gray_peel, 0, 0, neq_g, 0, neq_g, 0, 0, 0)

        # Red peel: EQ_C_R, blue rooted at r but free to leave it last by
        # another edge, and NEQ_C_RU, each term times its blue departures
        # beyond the cut edge.  A lower walk cut off all its departures is
        # empty (G, B).
        memo, uppers, w = self._memo, self._uppers, self._weights
        opp = 3 - c
        blues = [
            (fb, math.comb(rb, fb), range(0, lb - rb + 1) if fb < rb else (lb - rb,))
            for fb in range(1, rb + 1)
        ]
        eq_r = up_r = 0
        for fg in range(1, rg + 1):
            code_g = math.comb(rg - 1, fg - 1)
            ugs = range(0, lg - rg + 1) if fg < rg else (lg - rg,)
            low_rg = rg - fg
            for fb, code_b, ubs in blues:
                eq = up = 0
                low_rb = rb - fb
                for ug in ugs:
                    low_lg = lg - ug - fg
                    for ub in ubs:
                        ref = (c, low_lg, lb - ub - fb, low_rg, low_rb)
                        lower = memo.get(ref)
                        if lower is None:
                            lower = yield ref
                        lower = lower[_EQ_ANYC]
                        if not lower:
                            continue
                        rooted = uppers.get(("rooted", opp, fg, fb, ug, ub))
                        if rooted is None:
                            rooted = yield from self._rooted(opp, fg, fb, ug, ub)
                        term = lower * rooted
                        eq += term
                        up += (2 * ub + fb) * term
                weight = code_g * code_b * w[fg + fb]
                eq_r += weight * eq
                up_r += weight * up

        # Pairs with no shared edge and a common root are exactly the pairs
        # of independent single walks glued at the root; the root's vertex
        # factor must not be counted twice.
        gray = (yield from self._get((c, lg, 0, rg, 0)))[_EQ_ANYC]
        blue = (yield from self._get((c, lb, 0, rb, 0)))[_EQ_ANYC]
        glue = _exact(gray * blue, self._a[c], "glue", (fam.EQ_ANYC, *key), f"the root factor a_{c}")

        # Moving the blue root off r.
        moved = 2 * lb - rb
        neq_g = _exact(gray_peel * moved, rb, "moved root", (fam.NEQ_C_G, *key), "r_b")
        neq_r = _exact(eq_r * moved, rb, "moved root", (fam.NEQ_C_R, *key), "r_b")
        up_r = _exact(up_r, rb, "moved root", (fam.NEQ_C_RU, *key), "r_b")
        visit = _exact((gray_peel + glue) * moved, rb, "moved root", (fam.NEQ_ANYC_S, *key), "r_b")
        visit_g, empty = (visit, 0) if lg else (0, visit)
        eq_c = gray_peel + eq_r
        return (
            gray_peel, eq_r, eq_c, eq_c + glue,
            0, neq_g, up_r, neq_r - up_r,
            neq_g, neq_r, neq_g + neq_r,
            visit_g, empty, neq_r + visit,
        )

    # -- upper sums: the walks beyond v ------------------------------------

    def _pair(self, opp: int, f: int, u: int, ub: int):
        """Evaluate and cache ``pair``, the upper sum of NEQ_C_GU: EQ_C plus
        NEQ_C of the sites at v with blue half-length ub, with the f gray
        returns over the cut edge interleaved with the vg gray departures
        from v."""
        memo = self._memo
        pair = 0
        for vg in range(u > 0, u + 1):
            code = math.comb(f + vg - 1, f - 1)
            for vb in range(0, ub + 1):
                ref = (opp, u, ub, vg, vb)
                site = memo.get(ref)
                if site is None:
                    site = yield ref
                pair += code * (site[_EQ_C] + site[_NEQ_C] if vb or not ub else site[_NEQ_C])
        self._uppers[("pair", opp, f, u, ub)] = pair
        return pair

    def _rooted(self, opp: int, fg: int, fb: int, ug: int, ub: int):
        """Evaluate and cache ``rooted``, the upper sum of a red cut edge:
        EQ_ANYC of the sites at v, which (B) makes 0 at vb = 0 < ub, with fg
        gray and fb blue returns interleaved with vg and vb departures.  At
        fb = 1 and ub = 0 it is the single walks beyond a gray cut edge."""
        memo = self._memo
        rooted = 0
        for vg in range(ug > 0, ug + 1):
            gray = math.comb(fg + vg - 1, fg - 1)
            for vb in range(ub > 0, ub + 1):
                ref = (opp, ug, ub, vg, vb)
                site = memo.get(ref)
                if site is None:
                    site = yield ref
                rooted += gray * math.comb(fb + vb - 1, fb - 1) * site[_EQ_ANYC]
        self._uppers[("rooted", opp, fg, fb, ug, ub)] = rooted
        return rooted
