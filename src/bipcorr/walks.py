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

Families are evaluated by sorting the same enumeration into the slots of
:mod:`bipcorr.families`.  Enumeration order is deterministic: depth-first,
visiting existing labels in increasing order before a new one.

Pruning
-------
Only tree pairs carry weight, so the oracle walks no other: ``_tree_pairs``
and ``_root_tree_walks`` grow the walks while tracking the skeleton's edge
set.  A step to a new label adds a leaf.  A step to a used vertex is kept
only if it reuses a skeleton edge, or if it leads a blue walk with a fresh
root, still apart from the gray walk, into the gray walk's component and so
joins the two.  Any other step adds an edge between two vertices already
connected, which closes a cycle; later steps only add edges and vertices, so
the cycle stays and no completion is a tree.  A blue walk that ends still
apart leaves two components and is dropped too.  The generators therefore
yield exactly the minimal pairs whose skeleton is a tree, in the enumeration
order above.  The sums walk pairs of two nonempty walks in one loop only,
in the family census ``_double_family_profiles``; the coefficient census is
read from it (see below), and ``census`` counts all minimal pairs by a
recursion over label counts instead of walking them.  Only ``oracle --dump``
walks the pairs again, to list them.

Profiles at the leaves
----------------------
A grown pair is read one way only, from facts gathered as it grows.  Facts
of each gray walk (its edge counts, r_g and first edge) are gathered once and
shared by every blue walk grown on it; at each leaf one pass over the blue
walk gives the profile (vertex counts per part and sorted edge totals), the
shared-edge count c, the blue traversals of the first gray edge and r_b.
Each walk is connected and the two share a vertex, so the O(1) check
"vertices = distinct edges + 1", which raises when it fails, stands in for
the full tree test.  Each distinct profile is weighed once per context
(alpha, p, moments).

``_slots`` turns these facts into family slots.  A pair with c > 0 fills
EQ_C when its roots are equal and NEQ_C when they differ, never both, and a
pair with c = 0 fills neither; the slot also fixes the gray root's part, r_g
and r_b.  So each essential pair at half-lengths (l_g, l_b) lies in exactly
one EQ_C or NEQ_C bucket of the family census, and those buckets add up to
the essential census of n_{2 l_g, 2 l_b}.  An empty walk shares no edge, so
no essential pair is left to the empty-walk censuses below.

Part symmetry
-------------
Negating every label swaps the two parts.  It maps minimal pairs onto
minimal pairs (a first visit still takes the smallest unused label of its
part) and trees onto trees, so it maps the pairs with gray root -1 one to one
onto those with gray root +1.  It keeps every fact the weights and family
slots read except two: the vertex counts per part trade places, and so does
the gray root's part.  The edge totals, c, r_g, r_b, the blue traversals of
the first gray edge and the side of that edge the blue root lies on stay as
they are.  The cached censuses therefore walk gray root part 1 only and add
each bucket's mirror image: a profile (n1, n2, totals) becomes (n2, n1,
totals), a double slot (tag, component, r_g, r_b) becomes (tag, 3 - component,
r_g, r_b) and a single slot (component, r) becomes (3 - component, r).  A
slot can be the mirror image of another slot of the same census, so the
mirror adds counts.  The same map is why n_{k,m}(alpha) = n_{k,m}(1 - alpha).

Empty walks
-----------
A family census walks pairs only when both walks are nonempty; a pair with
an empty walk is a single tree walk, and its slots come from the
single-walk censuses.  Suppose the gray walk is empty at x.  A blue walk
rooted at x is a single walk: the roots are equal and no edge is shared, so
the pair fills (EQ_ANYC, component, 0, r_b) only.  A blue walk rooted
elsewhere must reach x, or the skeleton would have two components, so it is
a single walk through a marked vertex other than its root, and the pair
fills (NEQ_ANYC_S, ...) and (NEQ_ANYC_SN, ...) with r_b the departures from
x.  Relabeling the blue root as the root of the single walk maps these
minimal pairs one to one onto minimal single walks with a marked vertex,
with the same vertex counts and edge totals; ``_marked_walk_profiles``
counts them, and the component of the slot is the part of the marked
vertex.  Suppose instead the blue walk is empty at y.  An empty blue walk
at a fresh root is detached and never yielded, one at a gray vertex other
than the root fills no slot, and one at the root fills (EQ_ANYC,
component, r_g, 0), the single-walk census of the gray walk.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
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
    """Yield (gray facts, blue walk, n1, n2) for each minimal tree pair at lengths (k, m).

    The gray root ranges over both parts; blue roots over used vertices first
    (part 1 ascending, then part 2 ascending), then a fresh vertex in part 1,
    then a fresh vertex in part 2.
    """
    yield from _tree_pairs_at(1, k, m)
    yield from _tree_pairs_at(2, k, m)


def _tree_pairs_at(root_component: int, k: int, m: int) -> Iterator:
    """``_tree_pairs`` restricted to gray walks rooted in ``root_component``.

    ``n1``/``n2`` are the labels the pair uses in each part, so its skeleton
    has n1 + n2 vertices.  The ``_Gray`` facts are built once per gray walk
    and shared by every blue walk grown on it.
    """
    if k < 0 or m < 0:
        raise ValueError("walk lengths must be >= 0")
    # While a gray walk is yielded, ``edges`` holds exactly its edges; each
    # blue extension restores them when it is exhausted.
    edges: set = set()
    for walk, g1, g2 in _root_tree_walks(root_component, k, edges):
        gray = _gray_facts(walk)
        for blue_root in (*range(1, g1 + 1), *range(-1, -g2 - 1, -1)):
            for blue, n1, n2 in _extend_tree([blue_root], g1, g2, m, blue_root, edges, None):
                yield gray, blue, n1, n2
        bounds = (g1, g2)
        for blue, n1, n2 in _extend_tree([g1 + 1], g1 + 1, g2, m, g1 + 1, edges, bounds):
            yield gray, blue, n1, n2
        for blue, n1, n2 in _extend_tree([-(g2 + 1)], g1, g2 + 1, m, -(g2 + 1), edges, bounds):
            yield gray, blue, n1, n2


# ---------------------------------------------------------------------------
# Weights


def _edge(a: Vertex, b: Vertex):
    return (a, b) if a < b else (b, a)


@lru_cache(maxsize=None)
def _profile_weigher(params: ModelParams, moments: MomentSequence):
    """The profile -> weight function of one context, weighing each profile once."""

    @lru_cache(maxsize=None)
    def weight(profile) -> Fraction:
        p1, p2, totals = profile
        out = params.alpha1**p1 * params.alpha2**p2
        for total in totals:
            out *= edge_factor(moments, params, total)
        return out

    return weight


def _weight_sum(profiles, params: ModelParams, moments: MomentSequence) -> Fraction:
    total = Fraction(0)
    if profiles:
        weight = _profile_weigher(params, moments)
        for profile, count in profiles:
            total += count * weight(profile)
    return total


# ---------------------------------------------------------------------------
# Profiles at the leaves (see the module docstring)


def _add_steps(counts: dict, walk: ClosedWalk) -> dict:
    """Add one to ``counts[edge]`` for every step of ``walk``; returns ``counts``."""
    a = walk[0]
    for b in walk[1:]:
        edge = (a, b) if a < b else (b, a)  # ``_edge``, inlined in the leaves' loop
        counts[edge] = counts.get(edge, 0) + 1
        a = b
    return counts


class _Gray(NamedTuple):
    """Facts of one tree gray walk, shared by every pair grown on it."""

    walk: ClosedWalk
    counts: dict  # edge -> traversals
    vertices: frozenset
    r_g: int  # departures from the root r
    cut: Optional[tuple]  # the first edge (r, v); None for the empty walk and single-walk leaves
    upper: frozenset  # vertices on the v side of the cut


def _gray_facts(walk: ClosedWalk) -> _Gray:
    counts = _add_steps({}, walk)
    r = walk[0]
    cut, upper = None, frozenset()
    if len(walk) > 1:
        cut = _edge(r, walk[1])
        upper = frozenset(_upper_vertices(counts, r, walk[1]))
    return _Gray(walk, counts, frozenset(walk), _root_departures(walk, r), cut, upper)


def _leaf(gray: _Gray, blue: ClosedWalk, n1: int, n2: int):
    """(profile, c, blue traversals of the cut edge, r_b) of a grown pair.

    The pair uses ``n1``/``n2`` labels.  Each walk is connected and the two
    share a vertex, so the skeleton is a tree exactly when it has one vertex
    more than it has edges; anything else raises ``ValueError``.
    """
    counts = _add_steps(dict(gray.counts), blue)
    if n1 + n2 != len(counts) + 1:
        raise ValueError(
            f"walk pair has a non-tree skeleton: {format_walk(gray.walk)} | {format_walk(blue)}"
        )
    # The blue walk's own skeleton is a subtree: one edge fewer than vertices.
    c = len(gray.counts) + len(set(blue)) - 1 - len(counts)
    on_cut = 0 if gray.cut is None else counts[gray.cut] - gray.counts[gray.cut]
    r_b = _root_departures(blue, gray.walk[0])
    return (n1, n2, tuple(sorted(counts.values()))), c, on_cut, r_b


def _leaf_slots(gray: _Gray, blue: ClosedWalk, c: int, on_cut: int, r_b: int) -> list:
    """The family slots of a grown pair, from its ``_leaf`` facts."""
    # A fresh blue root lies on the side of the first gray vertex its walk meets.
    meet = next(x for x in blue if x in gray.vertices)
    return _slots(gray.walk, blue, gray.r_g, r_b, c, on_cut, meet in gray.upper)


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


def _with_mirror(buckets: dict, mirror_slot) -> dict:
    """Slot -> sorted ((profile, count), ...) for root part 1 and its mirror image.

    ``buckets`` maps the slots of the walks rooted in part 1 to profile ->
    count maps; ``mirror_slot`` gives the slot each one fills rooted in part 2.
    A slot may also be the mirror image of another slot, so counts are added.
    """
    both: dict = {}
    for slot, bucket in buckets.items():
        for target, image in ((slot, bucket), (mirror_slot(*slot), _swap_parts(bucket))):
            merged = both.setdefault(target, {})
            for profile, count in image.items():
                merged[profile] = merged.get(profile, 0) + count
    return {slot: tuple(sorted(bucket.items())) for slot, bucket in sorted(both.items())}


@lru_cache(maxsize=None)
def _essential_profiles(k: int, m: int):
    """((profile, count), ...) over the essential pairs at lengths (k, m).

    The sum of the EQ_C and NEQ_C buckets of the family census, which hold
    each essential pair exactly once (see "Profiles at the leaves").
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
        f"{format_walk(gray.walk)} | {format_walk(blue)}"
        for gray, blue, n1, n2 in _tree_pairs(k, m)
        if _leaf(gray, blue, n1, n2)[1] > 0
    ]


def n_oracle(k: int, m: int, params: ModelParams, moments: MomentSequence) -> Fraction:
    """Coefficient n_{k,m} by direct enumeration."""
    if k < 1 or m < 1:
        raise ValueError(f"need k, m >= 1, got ({k}, {m})")
    if k % 2 != 0 or m % 2 != 0:
        return Fraction(0)
    return _weight_sum(_essential_profiles(k, m), params, moments)


# ---------------------------------------------------------------------------
# Families


def _root_departures(walk: ClosedWalk, r: Vertex) -> int:
    return walk[:-1].count(r)


def _upper_vertices(edges, r: Vertex, v: Vertex) -> set:
    """Vertices on the v side of the tree with ``edges`` once edge (r, v) is removed."""
    cut = _edge(r, v)
    adjacency: dict = {}
    for a, b in edges:
        if (a, b) == cut:
            continue
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adjacency.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _slots(
    gray: ClosedWalk, blue: ClosedWalk, r_g: int, r_b: int, c: int, on_cut: int, in_upper: bool
) -> list:
    """All (tag, component, r_g, r_b) family slots a tree-skeleton pair fills.

    ``c`` counts the shared edges, ``on_cut`` the blue traversals of the
    first gray edge (r, v), and ``in_upper`` says whether the blue root lies
    on the v side of that edge; the last two are read only when the gray
    walk is not empty.
    """
    r = gray[0]
    roots_equal = blue[0] == r
    shared = c > 0
    tags = []
    if roots_equal:
        tags.append(fam.EQ_ANYC)
        if shared:
            tags.append(fam.EQ_C)
    else:
        if shared:
            tags.append(fam.NEQ_C)
        if r in blue:
            tags.append(fam.NEQ_ANYC_S)
            if len(gray) == 1:
                tags.append(fam.NEQ_ANYC_SN)

    if len(gray) > 1:
        blue_uses_cut = on_cut > 0
        if fam.EQ_C in tags:
            tags.append(fam.EQ_C_R if blue_uses_cut else fam.EQ_C_G)
        if fam.NEQ_ANYC_S in tags and not blue_uses_cut:
            tags.append(fam.NEQ_ANYC_SGD)
        if fam.NEQ_C in tags:
            if blue_uses_cut:
                tags.append(fam.NEQ_C_R)
                tags.append(fam.NEQ_C_RU if in_upper else fam.NEQ_C_RD)
            else:
                tags.append(fam.NEQ_C_G)
                tags.append(fam.NEQ_C_GU if in_upper else fam.NEQ_C_GD)
    component = vertex_part(r)
    return [(tag, component, r_g, r_b) for tag in tags]


@lru_cache(maxsize=None)
def _double_family_profiles(l_g: int, l_b: int):
    """Map (tag, component, r_g, r_b) -> ((profile, count), ...) at (l_g, l_b).

    Pairs are walked only when both walks are nonempty; otherwise the slots
    come from the single-walk censuses (see "Empty walks").
    """
    if l_b == 0:
        single = _single_family_profiles(l_g)
        return {(fam.EQ_ANYC, c, r, 0): bucket for (c, r), bucket in single.items()}
    if l_g == 0:
        single = _single_family_profiles(l_b)
        slots = {(fam.EQ_ANYC, c, 0, r): bucket for (c, r), bucket in single.items()}
        for (c, r), bucket in _marked_walk_profiles(l_b).items():
            slots[(fam.NEQ_ANYC_S, c, 0, r)] = slots[(fam.NEQ_ANYC_SN, c, 0, r)] = bucket
        return dict(sorted(slots.items()))
    buckets: dict = {}
    for gray, blue, n1, n2 in _tree_pairs_at(1, 2 * l_g, 2 * l_b):
        profile, c, on_cut, r_b = _leaf(gray, blue, n1, n2)
        for slot in _leaf_slots(gray, blue, c, on_cut, r_b):
            bucket = buckets.setdefault(slot, {})
            bucket[profile] = bucket.get(profile, 0) + 1
    return _with_mirror(buckets, lambda tag, component, r_g, r_b: (tag, 3 - component, r_g, r_b))


@lru_cache(maxsize=None)
def _single_walk_censuses(l: int) -> tuple:
    """(single census, marked census) of the tree single walks of half-length ``l``.

    Both map (component, r) -> ((profile, count), ...).  The single census
    reads the root: component is its part and r the departures from it.  The
    marked census counts each walk once per marked vertex y other than the
    root: component is the part of y and r the departures from y.
    """
    single: dict = {}
    marked: dict = {}
    for walk, n1, n2 in _root_tree_walks(1, 2 * l, set()):
        root = walk[0]
        departures = Counter(walk[:-1])
        r_g = departures.pop(root, 0)
        # The blue walk stays at the root and reads no cut, so the facts leave it out.
        gray = _Gray(walk, _add_steps({}, walk), frozenset(walk), r_g, None, frozenset())
        profile, _, _, _ = _leaf(gray, (root,), n1, n2)
        bucket = single.setdefault((1, r_g), {})
        bucket[profile] = bucket.get(profile, 0) + 1
        for y, r in departures.items():
            bucket = marked.setdefault((vertex_part(y), r), {})
            bucket[profile] = bucket.get(profile, 0) + 1
    return tuple(_with_mirror(b, lambda component, r: (3 - component, r)) for b in (single, marked))


@lru_cache(maxsize=None)
def _single_family_profiles(l: int):
    """Map (component, r) -> ((profile, count), ...) for tree single walks."""
    return _single_walk_censuses(l)[0]


@lru_cache(maxsize=None)
def _marked_walk_profiles(l: int):
    """Map (component, r) -> ((profile, count), ...) for tree single walks with a marked vertex."""
    return _single_walk_censuses(l)[1]


def family_total_weight(
    key: fam.FamilyKey, params: ModelParams, moments: MomentSequence
) -> Fraction:
    """Weight sum over a family, from the cached profile census."""
    fam.validate_key(key)
    if key.tag == fam.TOP:
        if key.l_g == 0 or key.l_b == 0:
            return Fraction(0)
        return n_oracle(2 * key.l_g, 2 * key.l_b, params, moments)
    if key.tag == fam.S1:
        profiles = _single_family_profiles(key.l_g).get((key.component, key.r_g), ())
    elif key.tag == fam.S1S:
        profiles = _double_family_profiles(0, key.l_g).get(
            (fam.NEQ_ANYC_SN, key.component, 0, key.r_g), ()
        )
    else:
        profiles = _double_family_profiles(key.l_g, key.l_b).get(
            (key.tag, key.component, key.r_g, key.r_b), ()
        )
    return _weight_sum(profiles, params, moments)
