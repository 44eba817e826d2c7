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
  to NEQ_ANYC_S.  With an empty gray walk the last is NEQ_ANYC_SN, the
  single family S1S(c, l_b, r_b): its blue walk S1(c, l_b, r_b) moved.
- X the vertices beyond v: a term of the red peel crosses the cut edge fb
  times each way and has blue half-length ub beyond v, so 2 ub + fb
  departures.  NEQ_C_RU weighs each EQ_C_R term with them, over r_b.

Evaluation order
----------------
Two ints per site.  Inside the recursion every read of a site
(c, l_g, l_b, r_g, r_b) is one of two values, and the engine stores only
these for each site it evaluates:

- ``x``: S1(c, l_g, r_g) at l_b = 0, NEQ_C at r_b = 0 < l_b, and EQ_C at
  r_b > 0.  Every gray peel reads it.
- ``anyc``: EQ_ANYC, which is S1 at l_b = 0, 0 at r_b = 0 < l_b (B), and x
  plus the glue at r_b > 0.  The red peel and ``rooted`` read it.

Their equations, where the gray peel is one (f, u) loop over a cut edge only
gray uses and the red peel one (fg, fb, ug, ub) loop over a cut edge both
walks use, each step reading one lower site at r and one upper sum beyond v:

- l_b = 0: x is a_c at l_g = 0, else the gray peel reading the x of the
  lower sites with l_b = 0 and ``pair`` at ub = 0, the single walks at v.
- r_b = 0 < l_b: the blue walk never visits r.  The gray peel reading the x
  of the lower sites (c, ., l_b, ., 0) and ``pair`` at ub = 0 gives NEQ_C_GD;
  reading the single walks at r and ``pair`` at ub = l_b, it gives NEQ_C_GU.
  x is their sum.
- r_b > 0: the gray peel reading the x of the lower sites (c, ., l_b, ., r_b)
  and ``pair`` at ub = 0 gives EQ_C_G, and the red peel reading the anyc of
  the lower sites and ``rooted`` gives EQ_C_R.  x is their sum.  Pairs with
  no shared edge and a common root are exactly the pairs of independent
  single walks glued at the root, whose vertex factor must not be counted
  twice: anyc is x plus the glue S1(c, l_g, r_g) S1(c, l_b, r_b) / a_c.

The upper sums are rows, extended as blocks need them.  Each entry holds
the scaled weight W of its cut edge (see "Scaled integers") times its sum,
so a peel step multiplies only by codes:

- ``rooted``, per (opp, fg) a list over fb of lists over ug of rows over ub:
  W(fg + fb) times the anyc of the sites (opp, ug, ub, vg, vb) at v, with
  the fg gray and fb blue returns over the cut edge interleaved with the vg
  and vb departures from v in C(fg + vg - 1, vg) C(fb + vb - 1, vb) ways.
- ``pair``, per (opp, f, ub) a row over u: W(f) times EQ_C plus NEQ_C of
  the sites (opp, u, ub, vg, vb), times C(f + vg - 1, vg).  Moving the blue
  root gives EQ_C + NEQ_C = EQ_C 2 ub / vb at vb > 0, and (B) leaves NEQ_C
  at vb = 0, so the sum over vb reads x at vb = 0 and x 2 ub / vb at
  vb > 0.  TOP sums the same over every vg, with no codes.  The sum over
  vb is kept per block, a row over vg, as ``pair`` reads it for every f and
  only from whole blocks, which no later write changes.  At ub = 0,
  ``pair`` is the single walks at v.

``scaled_site`` builds a site's fourteen values from its two ints and one
more pass over its own peels.  The gray peel splits x into EQ_C_G and
EQ_C_R, or into NEQ_C_GD and NEQ_C_GU.  At r_b > 0 the red peel, run against
the rows (2 ub + fb) ``rooted``, gives NEQ_C_RU times r_b.  The rest is
moved: NEQ_C_GD = NEQ_C_G = EQ_C_G rho, NEQ_C_GU = 0, NEQ_C_R = EQ_C_R rho,
NEQ_C_RD = NEQ_C_R - NEQ_C_RU, and NEQ_ANYC_SGD = (EQ_C_G + glue) rho if
l_g > 0, else NEQ_ANYC_SN = glue rho.

Blocks and bounds.  A block (c, l_g, l_b) is the sites with these fields;
the excess of a site is (l_g - r_g, l_b - r_b).  For each block the engine
keeps excess bounds (E_g, E_b): it has evaluated exactly the sites of the
block with excess at most (E_g, E_b).  A block with l_g > 0 stops at
E_g = l_g - 1, as its sites with r_g = 0 are 0 by rule (G) (see "Structural
zeros") and no read needs them.  A request names a block and its bounds,
and a bound past that cap asks for the cap.  A worklist raises bounds
monotonically, from each block whose bounds grow along the edges that cover
every read of its sites:

- (c, l_g - 1, b) at (E_g, min(E_b, b)), for b = 0 .. l_b: the lower sites
  of both peels.  A cut takes f >= 1 of l_g, the gray peel keeps l_b, the
  red peel lowers it, and the excess of a lower site is at most the site's.
  The blocks further down are reached by the same edges from these.
- (3 - c, E_g, b) whole, for b = 0 .. E_b: the sites at v that ``rooted``
  and ``pair`` sum over, as ug <= min(l_g - r_g, l_g - f) and
  ub <= l_b - r_b.
- (c, l_g, 0) at (E_g, 0) and (c, l_b, 0) at (E_b, 0), if l_b > 0: the
  single walks of the glue.

Without the bounds every block would be evaluated whole, and S1(1, 600,
600), which reads one site per block, would take O(l^4) steps, not O(l^2).
No edge keeps l_g and lowers l_b, as no read does.  An edge
(c, l_g, l_b - 1) at (E_g, min(E_b, l_b - 1)) would cover the same reads
through the blocks below it, but would also evaluate the column
(c, l_g, b < l_b) under every requested block, which nothing reads: 1,848
of the 14,378 sites that n_{24,24} then takes.

The blocks whose bounds grew are evaluated in rank order, by total
l_g + l_b and then l_b > 0, one site at a time.  Every read either lowers
the total or keeps it and moves from a site with l_b > 0 to one with
l_b = 0: only the glue of a site with l_g = 0 does the latter, reading its
blue walk's S1.  The peels and upper sums lower the total by the cut edge's
f >= 1.  So a block reads only sites evaluated before it: there is no work
stack, and a deep key needs no recursion limit.

The x and anyc of the site (c, l_g, l_b, r_g, r_b) sit at
[r_b][l_g - r_g][l_b - r_b] of the tables kept for (c, r_g): lists over the
gray excess of rows over the blue excess.  A red step (fg, fb, ug) reads the
anyc of one row at blue excess db - ub for ub = 0 .. db, a reversed slice
summed against the ``rooted`` row in C.  A site not evaluated holds None
wherever a row has grown past it, and every list of rows and every row ends
with a None.  So a read of a site not yet evaluated raises, also under
``python -O``: an index finds no entry, or a product meets None, and a
slice that reaches past the end of a row begins at its None.  A second write
of a site raises too.

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
whenever x is positive.  So the bounds leave out the sites that (G) makes 0
(see "Blocks and bounds"); a read of one would find no value and raise.

- The gray peel: at f = r_g the lower walk has no departure left, so only
  u = l_g - r_g is read (G).  With l_b = 0 that lower piece is the empty
  walk a_c.  With l_b > 0 it is a site with no gray walk, whose EQ_C and
  NEQ_C, which need a shared edge, are 0, so the f loop stops before r_g.
- The red peel: likewise only ug = lg - rg at fg = rg (G), and only
  ub = lb - rb at fb = rb (B: the lower EQ_ANYC roots the blue walk at r).
- The upper sums and TOP: vg and r_g start at 1 when the gray half-length
  is positive (G).  EQ_C and EQ_ANYC are not read at vb = 0 < ub (B):
  ``rooted``'s vb starts at 1 when ub > 0, and the sum over vb that
  ``pair`` and TOP read takes x there, which is NEQ_C.

A site asked for directly, through ``s_value`` or ``scaled_site``, is 0 if
(G) says so, and is otherwise evaluated by its own equations, giving 0
where (B) says so.

Orientation
-----------
n_{k,m} = n_{m,k}, and TOP(l_g, l_b) = TOP(l_b, l_g) holds pair by pair:
swapping the colours maps each essential pair with half-lengths (l_g, l_b)
to one with (l_b, l_g).  The skeleton is the same tree with the same edge
multiplicities and vertices, so the weight is the same, and an edge shared
by both walks stays shared.  The map is its own inverse, so it is one to
one.  The engine peels the gray walk first, so the two orientations are
different sums over different sites, and agree only if the equations hold.
``correlator_coefficient(k, m)`` reads TOP(min(k, m) / 2, max(k, m) / 2),
the shorter walk gray.  TOP(L, L) reads every block (c, l_g, l_b) with
l_g < L and l_b <= L whole, through the edges to the lower columns, and
TOP(a, b) with a <= b <= L reads the block (c, a, b) whole, where a < L
unless a = b = L.  So the table of n_{k,m} for k, m <= 2L evaluates
exactly the sites of n_{2L,2L}.  With the longer walk gray it would also
evaluate the blocks (c, L, l_b < L), which no edge reaches from (c, L, L).
``s_value`` reads TOP in the orientation its key names, so the tests and
``crosscheck`` can check the other orientation.

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
whole sites, as ``crosscheck`` does, builds no Fraction; ``s_value`` reads
every key but TOP through the same site reader, after checking the key.  In
both peels the cut edge, the lower piece and the upper piece split the
half-length as L = f + L_lower + L_upper, so the scales of the three factors
multiply to the scale of the key: the equations keep their shape, with W(f)
in place of w(f), and the empty walk S1(l=0, r=0) becomes a_c.  The W(f) sit
in a list indexed by f, which the engine fills up to the largest total it
evaluates, checking each W(f) to be an integer; the upper rows carry the W
of their cut edge.  Two steps divide: the EQ_ANYC glue of single walks at a
common root, s1 * s2 / alpha_c, is X1 * X2 / a_c, exact as every term of X1
carries the root's factor a_c; moving the blue root is exact as each N(x) is
an integer.  ``_exact`` checks every remainder all the same, also under ``python -O``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple

from . import families as fam
from .model import ModelParams, MomentSequence, edge_factor, validate_context, validate_indices

# The double families of one site, each sum after its parts; ``scaled_site``
# lists them in this order.
SITE_TAGS = (
    fam.EQ_C_G, fam.EQ_C_R, fam.EQ_C, fam.EQ_ANYC,
    fam.NEQ_C_GU, fam.NEQ_C_GD, fam.NEQ_C_RU, fam.NEQ_C_RD,
    fam.NEQ_C_G, fam.NEQ_C_R, fam.NEQ_C,
    fam.NEQ_ANYC_SGD, fam.NEQ_ANYC_SN, fam.NEQ_ANYC_S,
)
_SLOT = {tag: slot for slot, tag in enumerate(SITE_TAGS)}
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


@functools.cache
def _binomials(n: int) -> list:
    """C(n, k) for k = 0 .. n; empty for n < 0."""
    row = [1] if n >= 0 else []
    for k in range(n):
        row.append(row[k] * (n - k) // (k + 1))
    return row


@functools.cache
def _interleavings(f: int, n: int) -> list:
    """C(f + v - 1, v) for v = 0 .. n: the ways to interleave f returns over
    a cut edge with v departures from its far end."""
    return [_binomials(f + v - 1)[v] for v in range(n + 1)]


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
        self._context_checked = False
        # Block (c, l_g, l_b) -> the excess bounds (E_g, E_b) evaluated.
        self._bounds: dict = {}
        # The two ints of each site, at (c, r_g) -> [r_b][l_g - r_g][l_b - r_b],
        # and the sites in evaluation order.
        self._x: dict = {}
        self._anyc: dict = {}
        self._sites: list = []
        # Upper rows, (opp, fg) -> [fb][ug][ub] and (opp, f, ub) -> [u].
        self._rooted: dict = {}
        self._pair: dict = {}
        # Block (c, l_g, l_b) -> its ``_both_row``, kept once the block is
        # whole, as no later write changes it.
        self._both: dict = {}
        # W(f) at index f, filled up to the largest total evaluated; no edge
        # is crossed 0 times, so index 0 holds a 0.
        self._weights: list = [0]

    # -- public API --------------------------------------------------------

    def s_value(self, key: fam.FamilyKey) -> Fraction:
        """The value of ``key``; needs V_2 .. V_2L at its total half-length L."""
        fam.validate_key(key)
        if key.tag != fam.TOP:
            key = fam.site_key(key)
        _, _, lg, lb, _, _ = key
        total = lg + lb
        self.moments.require(2 * total)
        if key.tag != fam.TOP:
            return Fraction(self._site_values(key[1:])[_SLOT[key.tag]], self._scale(total))
        value = 0
        # TOP(l, 0) is 0: an empty blue walk shares no edge.
        if lb:
            for c in (1, 2):
                self._require(c, lg, lb, lg, lb)
                value += sum(self._both_row(c, lg, lb))
        return Fraction(value, self._scale(total))

    def scaled_site(self, site: tuple) -> tuple:
        """(D_L, values) of ``site``, a ``Site`` or its 5-tuple: the fourteen
        family values at the site in the order of ``SITE_TAGS``, each times
        D_L = q^(L+1) c^L as an int, L = l_g + l_b; needs V_2 .. V_2L."""
        component, l_g, l_b, r_g, r_b = site
        if component not in (1, 2) or min(l_g, l_b, r_g, r_b) < 0:
            raise fam.UnknownFamilyError(f"malformed site {Site(*site)}")
        self.moments.require(2 * (l_g + l_b))
        return self._scale(l_g + l_b), self._site_values(tuple(site))

    def correlator_coefficient(self, k: int, m: int) -> Fraction:
        """n_{k,m}: the large-N limit of N * Cov(moment k, moment m)."""
        if not self._context_checked:
            validate_context(self.params, self.moments)
            self._context_checked = True
        validate_indices(self.moments, k, m)
        if k % 2 != 0 or m % 2 != 0:
            return Fraction(0)
        # n_{k,m} = n_{m,k} (see "Orientation"), and TOP with the shorter
        # walk gray reads only blocks that the diagonal key reads as well.
        return self.s_value(fam.top_key(min(k, m) // 2, max(k, m) // 2))

    def correlator_table(self, kmax: int, mmax: int) -> dict:
        """All coefficients for 1 <= k <= kmax, 1 <= m <= mmax."""
        return {
            (k, m): self.correlator_coefficient(k, m)
            for k in range(1, kmax + 1)
            for m in range(1, mmax + 1)
        }

    # -- what the engine holds ---------------------------------------------

    @property
    def memo_size(self) -> int:
        """The number of family values the engine holds: two per site."""
        return 2 * len(self._sites)

    def memo_items(self) -> Iterable:
        """(key, value) pairs in evaluation order, the values as Fractions:
        each site gives its x, keyed S1 at l_b = 0, NEQ_C at r_b = 0 < l_b
        and EQ_C at r_b > 0, and then its EQ_ANYC."""
        for site in self._sites:
            c, lg, lb, rg, rb = site
            dg, db = lg - rg, lb - rb
            scale = self._scale(lg + lb)
            if not lb:
                key = fam.single_key(fam.S1, c, lg, rg)
            else:
                key = fam.double_key(fam.EQ_C if rb else fam.NEQ_C, *site)
            yield key, Fraction(self._x[c, rg][rb][dg][db], scale)
            yield fam.double_key(fam.EQ_ANYC, *site), Fraction(self._anyc[c, rg][rb][dg][db], scale)

    # -- scaled integers ---------------------------------------------------

    def _scale(self, total: int) -> int:
        """q^(L+1) * c^L, the scaled integer of half-length L over its value."""
        return self._q ** (total + 1) * self._c**total

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

    # -- evaluation order --------------------------------------------------

    def _require(self, c: int, lg: int, lb: int, eg: int, eb: int) -> None:
        """Evaluate the sites of block (c, lg, lb) with excess at most
        (eg, eb), after every site they read."""
        bounds = self._bounds
        grown = {}
        work = [(c, lg, lb, eg, eb)]
        while work:
            c, lg, lb, eg, eb = work.pop()
            if lg:
                # The sites with r_g = 0 < l_g are 0 (G), and no read needs them.
                eg = min(eg, lg - 1)
            old = old_g, old_b = bounds.get((c, lg, lb), (-1, -1))
            if eg <= old_g and eb <= old_b:
                continue
            eg, eb = max(eg, old_g), max(eb, old_b)
            bounds[c, lg, lb] = eg, eb
            grown.setdefault((c, lg, lb), old)
            if lg:
                for b in range(lb + 1):
                    work.append((c, lg - 1, b, eg, min(eb, b)))
                for b in range(eb + 1):
                    work.append((3 - c, eg, b, eg, b))
            if lb:
                work.append((c, lg, 0, eg, 0))
                work.append((c, lb, 0, eb, 0))
        if not grown:
            return
        self._fill_weights(max(lg + lb for _, lg, lb in grown))
        for block in sorted(grown, key=lambda block: (block[1] + block[2], block[2] > 0)):
            c, lg, lb = block
            old_g, old_b = grown[block]
            eg, eb = bounds[block]
            try:
                self._extend_uppers(c, lg, lb, eg, eb)
                for dg in range(eg + 1):
                    for db in range(old_b + 1 if dg <= old_g else 0, eb + 1):
                        self._evaluate(c, lg, lb, lg - dg, lb - db)
            except (LookupError, TypeError) as exc:
                raise AssertionError(
                    f"evaluation order violated: block (c={c}, l_g={lg}, l_b={lb}) "
                    f"read a site not yet evaluated ({exc!r})"
                ) from exc

    def _evaluate(self, c: int, lg: int, lb: int, rg: int, rb: int) -> None:
        """Evaluate and store the x and anyc of one site."""
        if not lb:
            x = anyc = self._gray(c, lg, 0, rg, 0, 0) if lg else self._a[c]
        elif not rb:
            x = self._gray(c, lg, lb, rg, 0, 0) + self._gray(c, lg, 0, rg, 0, lb)
            anyc = 0
        else:
            x = self._gray(c, lg, lb, rg, rb, 0) + self._red(c, lg, lb, rg, rb, self._rooted)
            single = self._x
            glue = single[c, rg][0][lg - rg][0] * single[c, rb][0][lb - rb][0]
            glue = _exact(glue, self._a[c], "glue", (fam.EQ_ANYC, c, lg, lb, rg, rb), f"the root factor a_{c}")
            anyc = x + glue
        self._write((c, lg, lb, rg, rb), x, anyc)

    def _write(self, site: tuple, x: int, anyc: int) -> None:
        """Put the two ints of ``site`` in their rows, growing the lists on
        the way with None up to it and past it."""
        c, lg, lb, rg, rb = site
        dg, db = lg - rg, lb - rb
        xs = self._x.setdefault((c, rg), [])
        anycs = self._anyc.setdefault((c, rg), [])
        while len(xs) <= rb:
            xs.append([None])
            anycs.append([None])
        xs, anycs = xs[rb], anycs[rb]
        while len(xs) <= dg + 1:
            xs.insert(-1, [None])
            anycs.insert(-1, [None])
        row, other = xs[dg], anycs[dg]
        while len(row) <= db + 1:
            row.append(None)
            other.append(None)
        if row[db] is not None:
            raise AssertionError(f"{Site(*site)} written twice")
        row[db] = x
        other[db] = anyc
        self._sites.append(site)

    # -- the upper sums ----------------------------------------------------

    def _extend_uppers(self, c: int, lg: int, lb: int, eg: int, eb: int) -> None:
        """Extend the ``pair`` and ``rooted`` rows to what the sites of block
        (c, lg, lb) with excess at most (eg, eb) read: a cut edge with f
        gray and fb blue returns leaves ug <= min(eg, lg - f) and
        ub <= min(eb, lb - fb) beyond it, and ``pair`` at ub = lb is read
        only at r_b = 0.  Each entry carries the W of its cut edge."""
        opp = 3 - c
        anyc, w = self._anyc, self._weights
        for f in range(1, lg + 1):
            u_max = min(eg, lg - f)
            for ub in (0, lb) if eb == lb > 0 else (0,):
                row = self._pair.setdefault((opp, f, ub), [])
                for u in range(len(row), u_max + 1):
                    row.append(w[f] * sum(map(mul, _interleavings(f, u), self._both_row(opp, u, ub))))
            by_fb = self._rooted.setdefault((opp, f), [None])
            for fb in range(1, lb + 1):
                if len(by_fb) == fb:
                    by_fb.append([])
                rows = by_fb[fb]
                ub_max = min(eb, lb - fb)
                # Every block extends a rectangle of rows from (0, 0), so a
                # row is never longer than the one before it.
                if len(rows) > u_max and len(rows[u_max]) > ub_max:
                    continue
                codes_b = _interleavings(fb, ub_max)
                for ug in range(u_max + 1):
                    if ug == len(rows):
                        rows.append([])
                    row = rows[ug]
                    codes_g = _interleavings(f, ug)
                    for ub in range(len(row), ub_max + 1):
                        rooted = 0
                        for vg in range(ug > 0, ug + 1):
                            at_v, dg = anyc[opp, vg], ug - vg
                            blue = 0
                            for vb in range(ub > 0, ub + 1):
                                blue += codes_b[vb] * at_v[vb][dg][ub - vb]
                            rooted += codes_g[vg] * blue
                        row.append(w[f + fb] * rooted)

    def _both_row(self, c: int, lg: int, lb: int) -> list:
        """EQ_C + NEQ_C of the sites (c, lg, lb, rg, .) summed over r_b, at
        index rg: x at r_b = 0, and x 2 lb / r_b, EQ_C with its root moved,
        at r_b > 0.  S1(c, lg, rg) at lb = 0; 0 at rg = 0 < lg (G).  Read
        only from whole blocks, by ``pair`` for every f and by TOP."""
        row = self._both.get((c, lg, lb))
        if row is not None:
            return row
        x = self._x
        row = [0] * (lg > 0)
        for rg in range(lg > 0, lg + 1):
            dg = lg - rg
            both = x[c, rg][0][dg][lb]
            for rb in range(1, lb + 1):
                both += _exact(
                    x[c, rg][rb][dg][lb - rb] * 2 * lb, rb, "moved root",
                    (fam.NEQ_C, c, lg, lb, rg, rb), "r_b",
                )
            row.append(both)
        self._both[c, lg, lb] = row
        return row

    # -- the peels ---------------------------------------------------------

    def _gray(self, c: int, lg: int, lb: int, rg: int, rb: int, ub: int) -> int:
        """The gray peel of a site (c, lg, ., rg, .): each step reads the x
        of the lower site (c, ., lb, ., rb) at r and, beyond v, the ``pair``
        row at blue half-length ``ub``: 0 for the single walks at v."""
        x, pair = self._x, self._pair
        opp = 3 - c
        dg, db = lg - rg, lb - rb
        codes = _binomials(rg - 1)
        gray = 0
        # Cutting all r_g departures leaves the lower gray walk empty: the
        # empty walk a_c if lb = 0, else a site whose EQ_C and NEQ_C, which
        # need a shared edge, are 0.
        for f in range(1, rg + 1 - (lb > 0)):
            lower, upper = x[c, rg - f][rb], pair[opp, f, ub]
            if f < rg:
                step = 0
                for u in range(dg + 1):
                    step += lower[dg - u][db] * upper[u]
            else:
                # At f = r_g, (G) allows the lower walk only the empty walk.
                step = lower[0][db] * upper[dg]
            gray += codes[f - 1] * step
        return gray

    def _red(self, c: int, lg: int, lb: int, rg: int, rb: int, rooted: dict) -> int:
        """The red peel of site (c, lg, lb, rg, rb), r_b > 0: each step reads
        the anyc of one lower site and the row of its cut edge in
        ``rooted``, keyed as ``_rooted`` is, and each (fg, fb) weighs its
        sum with the codes once.  A lower walk cut off all its departures
        is empty (G, B)."""
        anyc = self._anyc
        opp = 3 - c
        dg, db = lg - rg, lb - rb
        codes_g, codes_b = _binomials(rg - 1), _binomials(rb)
        red = 0
        for fg in range(1, rg + 1):
            lowers, uppers = anyc[c, rg - fg], rooted[opp, fg]
            for fb in range(1, rb + 1):
                lower, upper = lowers[rb - fb], uppers[fb]
                # At fg = r_g only ug = dg (G), and at fb = r_b only
                # ub = db (B).  Else the lower rows at gray excess dg - ug
                # for ug = 0, 1, .. pair with the rows above.  A slice begins
                # at a sentinel where a site is missing.
                if fg == rg:
                    blue, above = lower[0], upper[dg]
                    step = sum(map(mul, blue[db::-1], above)) if fb < rb else blue[0] * above[db]
                elif fb < rb:
                    step = 0
                    for blue, above in zip(lower[dg::-1], upper):
                        step += sum(map(mul, blue[db::-1], above))
                else:
                    step = 0
                    for blue, above in zip(lower[dg::-1], upper):
                        step += blue[0] * above[db]
                red += codes_g[fg - 1] * codes_b[fb] * step
        return red

    # -- a site's fourteen values ------------------------------------------

    def _site_values(self, site: tuple) -> tuple:
        """The scaled fourteen values of a site whose fields are checked, in
        the order of ``SITE_TAGS``."""
        c, lg, lb, rg, rb = site
        if rg > lg or rb > lb or rg == 0 < lg:
            return _ZERO_SITE
        dg, db = lg - rg, lb - rb
        self._require(c, lg, lb, dg, db)
        x = self._x[c, rg][rb][dg][db]
        if not lb:
            return (0, 0, 0, x, *_ZERO_SITE[4:])
        gray = self._gray(c, lg, lb, rg, rb, 0)
        if not rb:
            return (0, 0, 0, 0, x - gray, gray, 0, 0, x, 0, x, 0, 0, 0)
        glue = self._anyc[c, rg][rb][dg][db] - x
        opp = 3 - c
        # The red peel once more, each term times the 2 ub + fb departures
        # of its blue walk beyond the cut edge.
        weighed = {
            (opp, fg): [None] + [
                [[(2 * ub + fb) * value for ub, value in enumerate(row[:db + 1])] for row in rows[:dg + 1]]
                for fb, rows in enumerate(self._rooted[opp, fg][1:rb + 1], start=1)
            ]
            for fg in range(1, rg + 1)
        }
        up_r = _exact(self._red(c, lg, lb, rg, rb, weighed), rb, "moved root", (fam.NEQ_C_RU, *site), "r_b")
        eq_r = x - gray
        moved = 2 * lb - rb
        neq_g = _exact(gray * moved, rb, "moved root", (fam.NEQ_C_G, *site), "r_b")
        neq_r = _exact(eq_r * moved, rb, "moved root", (fam.NEQ_C_R, *site), "r_b")
        visit = _exact((gray + glue) * moved, rb, "moved root", (fam.NEQ_ANYC_S, *site), "r_b")
        visit_g, empty = (visit, 0) if lg else (0, visit)
        return (
            gray, eq_r, x, x + glue,
            0, neq_g, up_r, neq_r - up_r,
            neq_g, neq_r, neq_g + neq_r,
            visit_g, empty, neq_r + visit,
        )
