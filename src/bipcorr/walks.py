"""Exhaustive enumeration oracle for walk pairs and their weighted sums.

This module computes the coefficients n_{k,m} the slow, direct way: generate
every admissible pair of closed walks, sort them into family slots, and add
up the weights of the essential ones.  It exists to cross-check the
recurrence engine, so it shares nothing with it beyond the family catalog
and the edge weights.

Walks and minimality
--------------------
A vertex is encoded as a signed integer: +j is the j-th vertex of part 1, -j
the j-th vertex of part 2.  Steps alternate parts, so a closed walk has even
length.  A walk of half-length l is stored as a tuple of 2l + 1 vertices whose
first and last entries coincide; the empty walk at a vertex x is the 1-tuple
(x,).

Walk pairs are counted up to relabeling within each part, so exactly one
*minimal* representative per orbit is enumerated: scanning the gray walk and
then the blue walk, every first visit to a new vertex must use the smallest
label not yet used in its part.  The gray root is therefore +1 or -1.  The
blue root may be any vertex the gray walk used, or a brand-new vertex, which
then takes the smallest unused label of its part (either part is allowed).

Weights
-------
For a pair with tree skeleton the weight is

    alpha1^{|V_1|} * alpha2^{|V_2|} * prod_e edge_factor(n(e))

where n(e) counts traversals of edge e by both walks together.  A closed walk
system on a tree covers each edge an even number of times, so every factor is
one of the stored even moments.  A pair is *essential* when its skeleton is a
tree and at least one edge is used by both walks; n_{k,m} is the weight sum
over essential pairs of half-lengths (k/2, m/2), and vanishes for odd k or m.

Weighing
--------
The oracle picks its own scale, so that it weighs in integers.  With q the
lcm of the denominators of alpha1 and alpha2, and c the numerator of p times
the lcm of the moment denominators, a profile of total half-length
L = sum_e f_e has at most L + 1 vertices and edge factors V_{2f}/p^(f-1), so
its weight times D_L = q^(L+1) c^L is an integer.  Each profile is weighed
once per context as that integer; the product is checked to be integral,
also under ``python -O``, and a remainder raises ``ValueError``.  A family
sums count * integer over its profiles; ``family_total_weight`` builds one
Fraction, sum / D_L, and ``double_family_block`` hands out the sums of
every double family at one (l_g, l_b) with D_L, so that ``crosscheck``
compares integers.

The censuses count pairs by tree class (below) without walking them.  Only
``oracle --dump`` walks the essential pairs, depth-first, visiting existing
labels in increasing order before a new one; a step that would close a
cycle is never taken, since no later step removes it.

Counting by tree class
----------------------
Let every edge e of a tree be crossed m_e >= 1 times each way and let d_y
sum m_e over the edges at y.  By the BEST theorem on the doubled tree (van
Aardenne-Ehrenfest and de Bruijn, 1951), the closed walks from x making
exactly these crossings number

    W(x) = d_x * prod_y (d_y - 1)! / prod_e m_e! (m_e - 1)!  =  K d_x,

and K m_e of them start along the edge e at x.  A pair's *class* is its
skeleton rooted at the gray root r, up to isomorphism, each edge labelled
with its gray and blue crossings each way (g_e, b_e), g_e + b_e >= 1, as in
Bauer and Golinelli, J. Stat. Phys. 103 (2001).  The gray edges reach r, the
blue edges are connected, sum g_e = l_g and sum b_e = l_b; r lies in part 1
and the mirror (below) adds part 2.  The class fixes the profile (vertices
at even and at odd depth, sorted 2 (g_e + b_e)), c (edges with g_e, b_e > 0),
r_g = d_g(r) and r_b = d_b(r).

The slot also reads the gray walk's first edge (r, v) and the blue root x:
x = r gives the EQ slots, and otherwise x lies on the v side of (r, v)
("upper"; a fresh x lies on the side of the first gray vertex its walk
meets) or on the r side.  The blue walks from x number K_b d_b(x), and d_b
adds up to r_b at r, to 2 (blue mass beyond v) + b_(r,v) on the v side and
to the rest of 2 l_b on the r side.  So a slot holds K_g K_b
sum_v g_(r,v) (weight of its x) pairs on a labelled tree of the class.
Relabeling acts freely on these pairs, since a walk visits every vertex,
and maps a pair onto a pair of the same tree exactly by an automorphism of
the rooted labelled tree; so the class adds that count divided by |Aut|.
The division is exact, and a remainder raises ``ValueError``.  A pair
with c > 0 fills EQ_C or NEQ_C, by its roots, and one with c = 0 neither,
so these buckets add up to the essential census of n_{2 l_g, 2 l_b}.

A pair with an empty walk is a single tree walk, so the same loop counts
it on the classes of one walk of half-length l = l_g + l_b, read as gray
ones, with d = d(r) the departures from the root.  With the blue walk empty
at r, the K d / |Aut| walks from r (the empty walk at a lone root is one)
fill (EQ_ANYC, component, d, 0); an empty blue walk elsewhere fills no slot
or leaves two components.  With the gray walk empty at r, a blue walk from
r fills (EQ_ANYC, component, 0, d), and one from elsewhere must reach r; it
fills NEQ_ANYC_S and NEQ_ANYC_SN, with r_b the departures from r.  On the
class rooted at r these number K (2 l - d) / |Aut|, the walks from every
other root, in the slot (component, 0, d) of both tags.

Part symmetry
-------------
Negating every label swaps the two parts.  It maps minimal pairs onto
minimal pairs (a first visit still takes the smallest unused label of its
part) and trees onto trees, so it maps the pairs with gray root -1 one to one
onto those with gray root +1.  It keeps every fact the weights and family
slots read except two: the vertex counts per part trade places, and so does
the gray root's part.  The edge totals, c, r_g, r_b, the blue traversals of
the first gray edge and the side of that edge the blue root lies on stay as
they are.  The censuses therefore count component 1 only (the gray root in
part 1) and add each bucket's mirror image: a profile (n1, n2, totals)
becomes (n2, n1, totals) and a slot (tag, 1, r_g, r_b) becomes (tag, 2,
r_g, r_b).  The same map is why n_{k,m}(alpha) = n_{k,m}(1 - alpha).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, lcm
from typing import Iterator, NamedTuple, Optional

from . import families as fam
from .model import ModelParams, MomentSequence, edge_factor

Vertex = int
ClosedWalk = tuple


def vertex_part(v: Vertex) -> int:
    return 1 if v > 0 else 2


def vertex_label(v: Vertex) -> int:
    return abs(v)


def format_walk(walk: ClosedWalk) -> str:
    return " ".join(f"{vertex_part(v)}:{vertex_label(v)}" for v in walk)


# ---------------------------------------------------------------------------
# Enumeration


def _extend_tree(
    walk: list, n1: int, n2: int, remaining: int, root: Vertex, edges: set, gray
) -> Iterator:
    """Yield (walk, n1, n2) for the minimal closed continuations of ``walk``
    whose skeleton stays a tree.

    ``n1``/``n2`` count the labels already in use per part and ``root`` is
    the vertex the walk closes on.  The walk list is mutated in place; yielded
    walks are materialized tuples.  ``edges`` holds the skeleton's edges so
    far and is mutated in place, restored on backtracking.  ``gray`` is None
    once the walk is part of the gray walk's component; for a blue walk with a
    fresh root that has not touched the gray walk yet it is the gray label
    bounds (g1, g2).
    """
    if remaining == 0:
        if gray is None:
            yield tuple(walk), n1, n2
        return
    cur = walk[-1]
    if remaining == 1:
        # Closing on the root reaches a vertex of the walk's own component,
        # so it must reuse an edge.
        if gray is None and _edge(cur, root) in edges:
            walk.append(root)
            yield tuple(walk), n1, n2
            walk.pop()
        return
    if cur > 0:
        targets, fresh = range(-1, -n2 - 1, -1), -(n2 + 1)
        n1_next, n2_next = n1, n2 + 1
    else:
        targets, fresh = range(1, n1 + 1), n1 + 1
        n1_next, n2_next = n1 + 1, n2
    for target in targets:
        edge = _edge(cur, target)
        walk.append(target)
        if edge in edges:
            yield from _extend_tree(walk, n1, n2, remaining - 1, root, edges, gray)
        elif gray is not None and abs(target) <= gray[target < 0]:
            # The detached blue component joins the gray one.
            edges.add(edge)
            yield from _extend_tree(walk, n1, n2, remaining - 1, root, edges, None)
            edges.remove(edge)
        walk.pop()
    edge = _edge(cur, fresh)
    walk.append(fresh)
    edges.add(edge)
    yield from _extend_tree(walk, n1_next, n2_next, remaining - 1, root, edges, gray)
    edges.remove(edge)
    walk.pop()


def _root_tree_walks(root_component: int, length: int, edges: set) -> Iterator:
    root = 1 if root_component == 1 else -1
    n1, n2 = (1, 0) if root_component == 1 else (0, 1)
    yield from _extend_tree([root], n1, n2, length, root, edges, None)


def _tree_pairs(k: int, m: int) -> Iterator:
    """Yield (gray walk, its edge counts, blue walk, n1, n2) for each minimal tree pair.

    The gray root ranges over both parts; blue roots over used vertices first
    (part 1 ascending, then part 2 ascending), then a fresh vertex in part 1,
    then a fresh vertex in part 2.  ``n1``/``n2`` are the labels the pair uses
    in each part, so its skeleton has n1 + n2 vertices.  The gray edge counts
    (edge -> traversals) are built once per gray walk and shared by every blue
    walk grown on it.
    """
    if k < 0 or m < 0:
        raise ValueError("walk lengths must be >= 0")
    # While a gray walk is yielded, ``edges`` holds exactly its edges; each
    # blue extension restores them when it is exhausted.
    edges: set = set()
    for root_component in (1, 2):
        for gray, g1, g2 in _root_tree_walks(root_component, k, edges):
            counts = _add_steps({}, gray)
            for blue_root in (*range(1, g1 + 1), *range(-1, -g2 - 1, -1)):
                for blue, n1, n2 in _extend_tree([blue_root], g1, g2, m, blue_root, edges, None):
                    yield gray, counts, blue, n1, n2
            bounds = (g1, g2)
            for blue, n1, n2 in _extend_tree([g1 + 1], g1 + 1, g2, m, g1 + 1, edges, bounds):
                yield gray, counts, blue, n1, n2
            for blue, n1, n2 in _extend_tree([-(g2 + 1)], g1, g2 + 1, m, -(g2 + 1), edges, bounds):
                yield gray, counts, blue, n1, n2


# ---------------------------------------------------------------------------
# Weights


def _edge(a: Vertex, b: Vertex):
    return (a, b) if a < b else (b, a)


def _scale_base(params: ModelParams, moments: MomentSequence) -> tuple:
    """(q, c) of the scale D_L = q^(L+1) c^L (see "Weighing")."""
    q = lcm(Fraction(params.alpha1).denominator, Fraction(params.alpha2).denominator)
    return q, Fraction(params.p).numerator * lcm(*(v.denominator for v in moments.values))


@lru_cache(maxsize=None)
def _profile_weigher(params: ModelParams, moments: MomentSequence) -> tuple:
    """(weight, scale) of one context, weighing each profile once.

    ``scale(L)`` is D_L and ``weight(profile, L)`` the profile's weight times
    D_L, an int; a profile whose edge totals are not 2L, or whose scaled
    weight is not an integer, raises ``ValueError``.
    """
    q, c = _scale_base(params, moments)

    def scale(half_length: int) -> int:
        return q ** (half_length + 1) * c**half_length

    @lru_cache(maxsize=None)
    def weight(profile, half_length: int) -> int:
        p1, p2, totals = profile
        if sum(totals) != 2 * half_length:
            raise ValueError(f"profile {profile} is not of half-length {half_length}")
        out = params.alpha1**p1 * params.alpha2**p2
        for total in totals:
            out *= edge_factor(moments, params, total)
        scaled = out * scale(half_length)
        if scaled.denominator != 1:
            raise ValueError(f"profile {profile} weight times its scale is not an integer")
        return scaled.numerator

    return weight, scale


def _scaled_sum(profiles, half_length: int, weight) -> int:
    """The weight sum of ((profile, count), ...) of total half-length
    ``half_length`` times D_L, with ``weight`` from ``_profile_weigher``."""
    total = 0
    for profile, count in profiles:
        total += count * weight(profile, half_length)
    return total


def _weight_sum(
    profiles, half_length: int, params: ModelParams, moments: MomentSequence
) -> Fraction:
    """The weight sum of ((profile, count), ...) of total half-length ``half_length``."""
    if not profiles:
        return Fraction(0)
    weight, scale = _profile_weigher(params, moments)
    total = _scaled_sum(profiles, half_length, weight)
    return Fraction(total, scale(half_length))


# ---------------------------------------------------------------------------
# Leaf facts, for ``oracle --dump``


def _add_steps(counts: dict, walk: ClosedWalk) -> dict:
    """Add one to ``counts[edge]`` for every step of ``walk``; returns ``counts``."""
    a = walk[0]
    for b in walk[1:]:
        edge = (a, b) if a < b else (b, a)  # ``_edge``, inlined in the leaves' loop
        counts[edge] = counts.get(edge, 0) + 1
        a = b
    return counts


def _leaf(gray: ClosedWalk, gray_counts: dict, blue: ClosedWalk, n1: int, n2: int):
    """(profile, c) of a grown pair: vertex counts and sorted edge totals, and shared edges.

    ``gray_counts`` holds the gray walk's edge traversals, as ``_add_steps``
    gives them, and the pair uses ``n1``/``n2`` labels.  Each walk is
    connected and the two share a vertex, so the skeleton is a tree exactly
    when it has one vertex more than it has edges; anything else raises
    ``ValueError``.
    """
    counts = _add_steps(dict(gray_counts), blue)
    if n1 + n2 != len(counts) + 1:
        raise ValueError(
            f"walk pair has a non-tree skeleton: {format_walk(gray)} | {format_walk(blue)}"
        )
    # The blue walk's own skeleton is a subtree: one edge fewer than vertices.
    c = len(gray_counts) + len(set(blue)) - 1 - len(counts)
    return (n1, n2, tuple(sorted(counts.values()))), c


# ---------------------------------------------------------------------------
# Census and coefficient


def census(k: int, m: int):
    """(minimal pair count, essential pair count) at lengths (k, m)."""
    return _minimal_pairs(k, m), sum(count for _, count in _essential_profiles(k, m))


def _minimal_pairs(k: int, m: int) -> int:
    """The number of minimal walk pairs at lengths (k, m), counted without walking.

    ``_minimal_closings`` gives the gray walks by their final label counts;
    each blue root then multiplies in the blue walks that start from it.
    """
    if k < 0 or m < 0:
        raise ValueError("walk lengths must be >= 0")
    if k % 2 != 0 or m % 2 != 0:
        return 0

    def blue(n1: int, n2: int, part: int) -> int:
        return sum(count for _, count in _minimal_closings(n1, n2, part, m))

    total = 0
    for part, labels in ((1, (1, 0)), (2, (0, 1))):
        for (g1, g2), count in _minimal_closings(*labels, part, k):
            roots = g1 * blue(g1, g2, 1) + g2 * blue(g1, g2, 2)
            roots += blue(g1 + 1, g2, 1) + blue(g1, g2 + 1, 2)
            total += count * roots
    return total


@lru_cache(maxsize=None)
def _minimal_closings(n1: int, n2: int, part: int, remaining: int):
    """((n1, n2) at the end, count) over the minimal closings of a walk.

    The walk stands at a vertex of ``part`` with ``n1``/``n2`` labels in use
    and ``remaining`` steps to go.  Every used vertex it can step to leads to
    the same state; a new one takes the next label.  In a walk of even length
    the vertex before the last step lies in the part opposite the root, so the
    last step always closes; callers skip odd lengths.
    """
    if remaining <= 1:
        return (((n1, n2), 1),)
    used, fresh = (n2, (n1, n2 + 1)) if part == 1 else (n1, (n1 + 1, n2))
    ends: dict = {}
    for factor, labels in ((used, (n1, n2)), (1, fresh)):
        if factor:
            for end, count in _minimal_closings(*labels, 3 - part, remaining - 1):
                ends[end] = ends.get(end, 0) + factor * count
    return tuple(ends.items())


def _swap_parts(profiles: dict) -> dict:
    """The mirror images of a profile -> count map (see "Part symmetry")."""
    return {(n2, n1, totals): count for (n1, n2, totals), count in profiles.items()}


def _with_mirror(buckets: dict) -> dict:
    """Slot -> sorted ((profile, count), ...) for component 1 and its mirror image.

    ``buckets`` maps slots (tag, 1, r_g, r_b) to profile -> count maps; the
    mirror of each is the slot (tag, 2, r_g, r_b) with the parts swapped.
    """
    both = dict(buckets)
    for (tag, _, r_g, r_b), bucket in buckets.items():
        both[(tag, 2, r_g, r_b)] = _swap_parts(bucket)
    return {slot: tuple(sorted(bucket.items())) for slot, bucket in sorted(both.items())}


@lru_cache(maxsize=None)
def _essential_profiles(k: int, m: int):
    """((profile, count), ...) over the essential pairs at lengths (k, m).

    The sum of the EQ_C and NEQ_C buckets of the family census, which hold
    each essential pair exactly once (see "Counting by tree class").
    """
    if k < 1 or m < 1 or k % 2 != 0 or m % 2 != 0:
        return ()
    profiles: dict = {}
    for (tag, _, _, _), bucket in _double_family_profiles(k // 2, m // 2).items():
        if tag == fam.EQ_C or tag == fam.NEQ_C:
            for profile, count in bucket:
                profiles[profile] = profiles.get(profile, 0) + count
    return tuple(sorted(profiles.items()))


def essential_pair_lines(k: int, m: int) -> list:
    """The essential pairs at lengths (k, m) as "gray | blue" text, in enumeration order."""
    return [
        f"{format_walk(gray)} | {format_walk(blue)}"
        for gray, counts, blue, n1, n2 in _tree_pairs(k, m)
        if _leaf(gray, counts, blue, n1, n2)[1] > 0
    ]


def n_oracle(k: int, m: int, params: ModelParams, moments: MomentSequence) -> Fraction:
    """Coefficient n_{k,m} by direct enumeration."""
    if k < 1 or m < 1:
        raise ValueError(f"need k, m >= 1, got ({k}, {m})")
    if k % 2 != 0 or m % 2 != 0:
        return Fraction(0)
    return _weight_sum(_essential_profiles(k, m), (k + m) // 2, params, moments)


# ---------------------------------------------------------------------------
# Tree classes (see "Counting by tree class")


class _Class(NamedTuple):
    """A tree class seen from its root w: what the counts read of w and of the tree below it."""

    branches: tuple  # ((g, b, child class), ...): w's edges, equal kinds side by side
    blue: int  # sum of b_e over the edges below w
    d_g: int  # sum of g_e over w's edges
    d_b: int  # sum of b_e over w's edges
    num: int  # product over the vertices y below w of (d_g(y) - 1)! (d_b(y) - 1)!
    den: int  # product over the edges below w of g_e! (g_e - 1)! b_e! (b_e - 1)!
    aut: int  # automorphisms that fix w and every edge label
    even: int  # vertices at even depth from w, w included
    odd: int  # vertices at odd depth from w
    totals: tuple  # sorted 2 (g_e + b_e) over the edges below w
    shared: int  # edges below w with g_e and b_e both positive


def _k_vertex(d: int) -> int:
    """(d - 1)!, a vertex's factor in K; 1 at a vertex the walk does not reach."""
    return factorial(d - 1) if d else 1


def _k_edge(m: int) -> int:
    """m! (m - 1)!, an edge's divisor in K; 1 for an edge the walk does not cross."""
    return factorial(m) * factorial(m - 1) if m else 1


@lru_cache(maxsize=None)
def _branches(gray: int, blue: int) -> tuple:
    """The kinds (g, b, child class) of an edge from w with masses (gray, blue) on and beyond it.

    The gray edges reach the root, so an edge without gray has none beyond
    it; the blue beyond an edge with blue must reach it.
    """
    return tuple(
        (g, b, child)
        for g in (range(1, gray + 1) if gray else (0,))
        for b in range(blue + 1)
        if g + b
        for child in _subtrees(gray - g, blue - b)
        if child.d_b or not (b and child.blue)
    )


def _classes(gray: int, blue: int) -> Iterator:
    """The tree classes with masses (gray, blue) below the root and connected blue edges."""
    groups = [((g, b), _branches(g, b)) for g in range(gray + 1) for b in range(blue + 1) if g + b]
    return filter(None, map(_class, _multisets(groups, len(groups), gray, blue)))


@lru_cache(maxsize=None)
def _subtrees(gray: int, blue: int) -> tuple:
    """``_classes`` kept, for the classes beyond an edge; a census reads its own classes once."""
    return tuple(_classes(gray, blue))


def _multisets(groups: list, end: int, gray: int, blue: int) -> Iterator:
    """Yield each multiset of the kinds in ``groups[:end]`` with masses (gray, blue).

    ``groups`` pairs masses with the kinds of edge that carry them.  A
    multiset is a tuple with its equal kinds next to each other.
    """
    if gray == blue == 0:
        yield ()
        return
    for i in range(end - 1, -1, -1):
        (g, b), kinds = groups[i]
        copies = 1
        while copies * g <= gray and copies * b <= blue:
            for rest in _multisets(groups, i, gray - copies * g, blue - copies * b):
                for chosen in combinations_with_replacement(kinds, copies):
                    yield chosen + rest
            copies += 1


def _class(branches: tuple) -> Optional[_Class]:
    """The class with these edges at its root, or None if its blue edges are not connected."""
    blue = d_g = d_b = odd = shared = apart = 0
    num = den = aut = even = 1
    totals: tuple = ()
    copies, last = 0, None
    for kind in branches:
        g, b, child = kind
        copies, last = (copies + 1 if kind is last else 1), kind
        blue += b + child.blue
        d_g += g
        d_b += b
        num *= child.num * _k_vertex(g + child.d_g) * _k_vertex(b + child.d_b)
        den *= child.den * _k_edge(g) * _k_edge(b)
        aut *= child.aut * copies  # so a kind taken j times adds aut^j j!
        even += child.odd
        odd += child.even
        totals += (2 * (g + b), *child.totals)
        shared += child.shared + (g > 0 and b > 0)
        apart += b == 0 and child.blue > 0  # blue beyond this edge does not reach w
    if (d_b > 0) + apart > 1:
        return None
    return _Class(
        branches, blue, d_g, d_b, num, den, aut, even, odd, tuple(sorted(totals)), shared
    )


def _orbits(tree: _Class, walks: int) -> int:
    """The pairs up to relabeling among ``walks`` K_g K_b pairs on a labelled tree of ``tree``."""
    count, rest = divmod(
        tree.num * _k_vertex(tree.d_g) * _k_vertex(tree.d_b) * walks, tree.den * tree.aut
    )
    if rest:
        raise ValueError(f"tree class pair count not a multiple of its {tree.aut} automorphisms")
    return count


@lru_cache(maxsize=None)
def _tags(shared: bool, blue_at_root: bool, on_cut: bool, side: str) -> tuple:
    """The tags a pair with a nonempty gray walk fills, by the side of its blue root x.

    ``side`` is "eq" for x = r, "up" for x on the v side of the first gray
    edge (r, v) and "down" for x on the r side; ``on_cut`` says whether the
    blue walk crosses (r, v).
    """
    if side == "eq":
        if not shared:
            return (fam.EQ_ANYC,)
        return (fam.EQ_ANYC, fam.EQ_C, fam.EQ_C_R if on_cut else fam.EQ_C_G)
    tags: tuple = ()
    if shared and on_cut:
        tags = (fam.NEQ_C, fam.NEQ_C_R, fam.NEQ_C_RU if side == "up" else fam.NEQ_C_RD)
    elif shared:
        tags = (fam.NEQ_C, fam.NEQ_C_G, fam.NEQ_C_GU if side == "up" else fam.NEQ_C_GD)
    if blue_at_root:
        tags += (fam.NEQ_ANYC_S,) if on_cut else (fam.NEQ_ANYC_S, fam.NEQ_ANYC_SGD)
    return tags


# ---------------------------------------------------------------------------
# Families


@lru_cache(maxsize=None)
def _double_family_profiles(l_g: int, l_b: int):
    """Map (tag, component, r_g, r_b) -> ((profile, count), ...) at (l_g, l_b).

    Counted by tree class; with an empty walk the classes are those of the
    single walk, read as gray ones (see "Counting by tree class").
    """
    empty = not (l_g and l_b)
    buckets: dict = {}
    for tree in _subtrees(l_g + l_b, 0) if empty else _classes(l_g, l_b):
        walks: dict = {}
        if empty:
            d = tree.d_g
            r_g, r_b = (d, 0) if l_g else (0, d)
            walks[fam.EQ_ANYC] = d or 1  # the empty walk at a lone root is one walk
            if l_b:
                walks[fam.NEQ_ANYC_S] = walks[fam.NEQ_ANYC_SN] = 2 * l_b - d
        else:
            r_g, r_b = tree.d_g, tree.d_b
            for g, b, child in tree.branches:
                if g:  # a first gray edge (r, v)
                    upper = 2 * child.blue + b
                    for side, weight in (("eq", r_b), ("up", upper), ("down", 2 * l_b - r_b - upper)):
                        if weight:
                            for tag in _tags(tree.shared > 0, r_b > 0, b > 0, side):
                                walks[tag] = walks.get(tag, 0) + g * weight
        profile = (tree.even, tree.odd, tree.totals)
        orbits: dict = {}
        for tag, count in walks.items():
            if count not in orbits:
                orbits[count] = _orbits(tree, count)
            bucket = buckets.setdefault((tag, 1, r_g, r_b), {})
            bucket[profile] = bucket.get(profile, 0) + orbits[count]
    return _with_mirror(buckets)


def double_family_block(l_g: int, l_b: int, params: ModelParams, moments: MomentSequence):
    """(D_L, {(tag, component, r_g, r_b): int}) of the double families at (l_g, l_b).

    Each int is the family value times D_L = q^(L+1) c^L, L = l_g + l_b (see
    "Weighing"); a slot the census does not hold is a family of value 0.
    """
    if l_g < 0 or l_b < 0:
        raise ValueError(f"half-lengths must be >= 0, got ({l_g}, {l_b})")
    weight, scale = _profile_weigher(params, moments)
    half_length = l_g + l_b
    slots = {
        slot: _scaled_sum(profiles, half_length, weight)
        for slot, profiles in _double_family_profiles(l_g, l_b).items()
    }
    return scale(half_length), slots


def family_total_weight(
    key: fam.FamilyKey, params: ModelParams, moments: MomentSequence
) -> Fraction:
    """Weight sum over a family, from the cached profile census."""
    fam.validate_key(key)
    if key.tag == fam.TOP:
        profiles = _essential_profiles(2 * key.l_g, 2 * key.l_b)
    else:
        # A single key reads the slot of the double key of the same value.
        key = fam.site_key(key)
        profiles = _double_family_profiles(key.l_g, key.l_b).get(
            (key.tag, key.component, key.r_g, key.r_b), ()
        )
    return _weight_sum(profiles, key.l_g + key.l_b, params, moments)
