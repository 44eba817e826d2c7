"""Enumeration oracle: walks, censuses, families, against an unpruned reference."""

import hashlib
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from typing import NamedTuple, Optional

import pytest

from bipcorr import cli, families as fam, walks
from bipcorr.model import MomentSequence, edge_factor
from bipcorr.recurrence import CoefficientEngine
from bipcorr.walks import census, essential_pair_lines, family_total_weight, format_walk, n_oracle
from bipcorr.walks import (
    _classes,
    _double_family_profiles,
    _add_steps,
    _edge,
    _essential_profiles,
    _k_vertex,
    _leaf,
    _minimal_closings,
    _minimal_pairs,
    _orbits,
    _profile_weigher,
    _root_tree_walks,
    _tree_pairs,
    vertex_part,
)

from conftest import CONTEXT_IDS, ORACLE_TABLES, context


# ---------------------------------------------------------------------------
# The reference.  The unpruned enumeration defines minimality: it walks every
# minimal pair, trees or not, in the order the oracle's pruned generators
# keep.  ``skeleton`` reads a pair from scratch, as the oracle's ``_leaf``
# facts must, and ``pair_slots`` sorts a walked pair into its family slots; the
# counted censuses must equal the walked ones.  A pair is a (gray, blue)
# tuple of walks.


def _extend(walk: list, n1: int, n2: int, remaining: int, root):
    """Yield (walk, n1, n2) for all minimal closed continuations of ``walk``.

    ``n1``/``n2`` count the labels already in use per part.  The walk list is
    mutated in place; yielded walks are materialized tuples.
    """
    if remaining == 0:
        if walk[-1] == root:
            yield tuple(walk), n1, n2
        return
    cur = walk[-1]
    if remaining == 1:
        # Last step must close the walk, so it must reach the root, and the
        # root must lie in the opposite part (fails for odd-length walks).
        if (cur > 0) != (root > 0):
            walk.append(root)
            yield tuple(walk), n1, n2
            walk.pop()
        return
    if cur > 0:
        for lab in range(1, n2 + 1):
            walk.append(-lab)
            yield from _extend(walk, n1, n2, remaining - 1, root)
            walk.pop()
        walk.append(-(n2 + 1))
        yield from _extend(walk, n1, n2 + 1, remaining - 1, root)
        walk.pop()
    else:
        for lab in range(1, n1 + 1):
            walk.append(lab)
            yield from _extend(walk, n1, n2, remaining - 1, root)
            walk.pop()
        walk.append(n1 + 1)
        yield from _extend(walk, n1 + 1, n2, remaining - 1, root)
        walk.pop()


def _root_walks(root_component: int, length: int):
    root = 1 if root_component == 1 else -1
    n1, n2 = (1, 0) if root_component == 1 else (0, 1)
    yield from _extend([root], n1, n2, length, root)


def iter_minimal_walks(half_length: int, root_component: int):
    """Minimal closed walks of ``half_length`` steps out and back."""
    for walk, _, _ in _root_walks(root_component, 2 * half_length):
        yield walk


def enumerate_minimal_walks(half_length: int, root_component: int) -> list:
    return list(iter_minimal_walks(half_length, root_component))


def iter_minimal_double_walks(k: int, m: int):
    """Minimal walk pairs with gray length k and blue length m.

    The gray root ranges over both parts; blue roots over used vertices first
    (part 1 ascending, then part 2 ascending), then a fresh vertex in part 1,
    then a fresh vertex in part 2.
    """
    for root_component in (1, 2):
        for gray, g1, g2 in _root_walks(root_component, k):
            for blue_root in range(1, g1 + 1):
                for blue, _, _ in _extend([blue_root], g1, g2, m, blue_root):
                    yield gray, blue
            for lab in range(1, g2 + 1):
                for blue, _, _ in _extend([-lab], g1, g2, m, -lab):
                    yield gray, blue
            for blue, _, _ in _extend([g1 + 1], g1 + 1, g2, m, g1 + 1):
                yield gray, blue
            for blue, _, _ in _extend([-(g2 + 1)], g1, g2 + 1, m, -(g2 + 1)):
                yield gray, blue


def enumerate_minimal_double_walks(k: int, m: int) -> list:
    return list(iter_minimal_double_walks(k, m))


def canonicalize(pair: tuple) -> tuple:
    """Relabel a walk pair into its minimal representative."""
    mapping: dict = {}
    counts = [0, 0, 0]  # index by part

    def relab(v):
        new = mapping.get(v)
        if new is None:
            part = vertex_part(v)
            counts[part] += 1
            new = counts[part] if part == 1 else -counts[part]
            mapping[v] = new
        return new

    return tuple(tuple(relab(v) for v in walk) for walk in pair)


def is_minimal(pair: tuple) -> bool:
    return canonicalize(pair) == pair


def parse_walk(text: str) -> tuple:
    """The signed labels of a walk written as "1:3 2:5"; the inverse of ``format_walk``."""
    out = []
    for token in text.split():
        part, _, label = token.partition(":")
        out.append(int(label) if part == "1" else -int(label))
    return tuple(out)


def parse_pair(text: str) -> tuple:
    gray, blue = text.split("|")
    return parse_walk(gray), parse_walk(blue)


def format_pair(pair: tuple) -> str:
    return " | ".join(format_walk(walk) for walk in pair)


def _reach(start, edges, cut=None) -> set:
    """The vertices joined to ``start`` by ``edges``, without crossing ``cut``."""
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for a, b in edges:
            if (a, b) != cut and x in (a, b):
                y = b if x == a else a
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


class Skeleton(NamedTuple):
    edges: dict  # edge -> [gray traversals, blue traversals]
    profile: tuple  # (part-1 vertices, part-2 vertices, sorted edge totals)
    c: int  # edges used by both walks
    is_tree: bool


def skeleton(gray: tuple, blue: tuple) -> Skeleton:
    edges: dict = {}
    for walk, side in ((gray, 0), (blue, 1)):
        for a, b in zip(walk, walk[1:]):
            edges.setdefault(_edge(a, b), [0, 0])[side] += 1
    vertices = set(gray) | set(blue)
    profile = (
        sum(1 for v in vertices if v > 0),
        sum(1 for v in vertices if v < 0),
        tuple(sorted(g + b for g, b in edges.values())),
    )
    c = sum(1 for g, b in edges.values() if g and b)
    is_tree = len(vertices) == len(edges) + 1 and _reach(gray[0], edges) == vertices
    return Skeleton(edges, profile, c, is_tree)


def pair_slots(
    gray: tuple, blue: tuple, r_g: int, r_b: int, c: int, on_cut: bool, in_upper: bool
) -> list:
    """All (tag, component, r_g, r_b) family slots a tree-skeleton pair fills.

    ``c`` counts the shared edges, ``on_cut`` says whether the blue walk
    crosses the first gray edge (r, v), and ``in_upper`` whether the blue
    root lies on the v side of that edge; the last two are read only when
    the gray walk is not empty.
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
        if fam.EQ_C in tags:
            tags.append(fam.EQ_C_R if on_cut else fam.EQ_C_G)
        if fam.NEQ_ANYC_S in tags and not on_cut:
            tags.append(fam.NEQ_ANYC_SGD)
        if fam.NEQ_C in tags:
            if on_cut:
                tags.append(fam.NEQ_C_R)
                tags.append(fam.NEQ_C_RU if in_upper else fam.NEQ_C_RD)
            else:
                tags.append(fam.NEQ_C_G)
                tags.append(fam.NEQ_C_GU if in_upper else fam.NEQ_C_GD)
    component = vertex_part(r)
    return [(tag, component, r_g, r_b) for tag in tags]


def memberships(gray: tuple, blue: tuple, sk: Skeleton) -> list:
    """The family slots of a tree pair, with every fact ``pair_slots`` reads taken from ``sk``."""
    r = gray[0]
    on_cut, in_upper = False, False
    if len(gray) > 1:
        cut = _edge(r, gray[1])
        on_cut = sk.edges[cut][1] > 0
        in_upper = blue[0] in _reach(gray[1], sk.edges, cut)
    r_g, r_b = gray[:-1].count(r), blue[:-1].count(r)
    return pair_slots(gray, blue, r_g, r_b, sk.c, on_cut, in_upper)


class GrayFacts(NamedTuple):
    """Facts of one gray walk, read once for every blue walk grown on it."""

    vertices: frozenset
    r_g: int  # departures from the root r
    cut: Optional[tuple]  # the first edge (r, v); None for the empty walk
    upper: frozenset  # vertices on the v side of the cut


def gray_facts(walk: tuple) -> GrayFacts:
    r = walk[0]
    cut, upper = None, frozenset()
    if len(walk) > 1:
        cut = _edge(r, walk[1])
        upper = frozenset(_reach(walk[1], {_edge(a, b) for a, b in zip(walk, walk[1:])}, cut))
    return GrayFacts(frozenset(walk), walk[:-1].count(r), cut, upper)


def walked_slots(gray: tuple, facts: GrayFacts, blue: tuple, c: int) -> list:
    """The family slots of a grown tree pair with ``c`` shared edges.

    A fresh blue root lies on the side of the first gray vertex its walk meets.
    """
    on_cut = any(_edge(a, b) == facts.cut for a, b in zip(blue, blue[1:]))
    meet = next(x for x in blue if x in facts.vertices)
    r_b = blue[:-1].count(gray[0])
    return pair_slots(gray, blue, facts.r_g, r_b, c, on_cut, meet in facts.upper)


def walked_census(pairs) -> dict:
    """Slot -> sorted ((profile, count), ...) over grown tree ``pairs``, by ``walked_slots``."""
    buckets: dict = {}
    last = facts = None
    for gray, counts, blue, n1, n2 in pairs:
        if gray is not last:
            last, facts = gray, gray_facts(gray)
        profile, c = _leaf(gray, counts, blue, n1, n2)
        for slot in walked_slots(gray, facts, blue, c):
            bucket = buckets.setdefault(slot, {})
            bucket[profile] = bucket.get(profile, 0) + 1
    return _sorted_buckets(buckets)


def _sorted_buckets(buckets: dict) -> dict:
    return {slot: tuple(sorted(bucket.items())) for slot, bucket in sorted(buckets.items())}


def walk_weight(gray: tuple, blue: tuple, params, moments) -> F:
    """Weight of a tree pair, from its skeleton."""
    n1, n2, totals = skeleton(gray, blue).profile
    weight = params.alpha1**n1 * params.alpha2**n2
    for total in totals:
        weight *= edge_factor(moments, params, total)
    return weight


def leaf(gray: tuple, blue: tuple, n1: int, n2: int) -> tuple:
    """``_leaf`` facts of a pair, with the gray edge counts built from the walk."""
    return _leaf(gray, _add_steps({}, gray), blue, n1, n2)


def leaf_of(gray_text: str, blue_text: str) -> tuple:
    """(gray walk, blue walk, ``_leaf`` facts) of a pair written as text."""
    gray, blue = parse_walk(gray_text), parse_walk(blue_text)
    vertices = set(gray) | set(blue)
    n1, n2 = sum(1 for v in vertices if v > 0), sum(1 for v in vertices if v < 0)
    return gray, blue, leaf(gray, blue, n1, n2)


class TestText:
    def test_round_trip(self):
        text = "1:1 2:1 1:2 2:1 1:1"
        assert format_walk(parse_walk(text)) == text
        pair = "1:1 2:1 1:1 | 2:2 1:1 2:2"
        assert format_pair(parse_pair(pair)) == pair

    def test_signed_encoding(self):
        assert format_walk((3, -5)) == "1:3 2:5"
        assert parse_walk("1:3 2:5") == (3, -5)


class TestEnumeration:
    def test_half_length_zero(self):
        assert enumerate_minimal_walks(0, 1) == [(1,)]
        assert enumerate_minimal_walks(0, 2) == [(-1,)]

    def test_half_length_one(self):
        assert enumerate_minimal_walks(1, 1) == [(1, -1, 1)]

    def test_half_length_two(self):
        walks = enumerate_minimal_walks(2, 1)
        assert [format_walk(w) for w in walks] == [
            "1:1 2:1 1:1 2:1 1:1",
            "1:1 2:1 1:1 2:2 1:1",
            "1:1 2:1 1:2 2:1 1:1",
            "1:1 2:1 1:2 2:2 1:1",
        ]

    def test_single_walk_counts(self):
        # Minimal closed walks per root part: 1, 1, 4, 25, 225 for l = 0..4.
        for l, expected in enumerate((1, 1, 4, 25, 225)):
            assert len(enumerate_minimal_walks(l, 1)) == expected
            assert len(enumerate_minimal_walks(l, 2)) == expected

    def test_double_walk_roots(self):
        pairs = enumerate_minimal_double_walks(2, 2)
        assert len(pairs) == 16
        # Gray root is always the first vertex of its part.
        assert {gray[0] for gray, _ in pairs} == {1, -1}
        # For gray (1,-1,1) the blue root ranges over used vertices then
        # fresh ones in part order.
        roots = [blue[0] for gray, blue in pairs if gray == (1, -1, 1)]
        assert list(dict.fromkeys(roots)) == [1, -1, 2, -2]

    def test_all_enumerated_pairs_minimal(self):
        for pair in enumerate_minimal_double_walks(4, 2):
            assert is_minimal(pair)

    def test_canonicalize_relabels(self):
        pair = parse_pair("1:2 2:3 1:2 | 1:1 2:3 1:1")
        assert format_pair(canonicalize(pair)) == "1:1 2:1 1:1 | 1:2 2:1 1:2"
        assert not is_minimal(pair)


class TestTreePruning:
    """The pruned generators and the censuses against the unpruned enumeration plus filter."""

    @pytest.mark.parametrize("total", range(0, 11))
    def test_double_walks_equal_filtered_enumeration(self, total):
        for k in range(0, total + 1):
            m = total - k
            want = [pair for pair in iter_minimal_double_walks(k, m) if skeleton(*pair).is_tree]
            assert [(gray, blue) for gray, _, blue, _, _ in _tree_pairs(k, m)] == want, (k, m)

    @pytest.mark.parametrize("l", range(0, 7))
    def test_single_walks_equal_filtered_enumeration(self, l):
        for component in (1, 2):
            want = [w for w in iter_minimal_walks(l, component) if skeleton(w, (w[0],)).is_tree]
            got = [w for w, _, _ in _root_tree_walks(component, 2 * l, set())]
            assert got == want, (l, component)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(_tree_pairs(-2, 2))

    @pytest.mark.parametrize(
        "key",
        [
            fam.single_key(fam.S1, 2, 4, 2),
            fam.single_key(fam.S1S, 1, 3, 2),
            fam.double_key(fam.EQ_C_R, 1, 2, 2, 2, 1),
            fam.double_key(fam.NEQ_C_GU, 2, 2, 2, 1, 0),
            fam.double_key(fam.NEQ_C_RD, 1, 2, 3, 2, 2),
            fam.double_key(fam.NEQ_ANYC_SGD, 2, 3, 1, 2, 1),
            fam.double_key(fam.EQ_ANYC, 1, 2, 2, 1, 1),
            fam.top_key(2, 2),
        ],
        ids=lambda key: f"{key.tag}-{key.component}-{key.l_g}-{key.l_b}-{key.r_g}-{key.r_b}",
    )
    def test_family_members_equal_filtered_enumeration(self, key):
        # The family's census against the profiles of its members, found by
        # filtering the unpruned enumeration with the reference skeleton.
        if key.tag == fam.S1:
            pairs = [(w, (w[0],)) for w in iter_minimal_walks(key.l_g, key.component)]
            slot = (fam.EQ_ANYC, key.component, key.r_g, 0)
            got = _double_family_profiles(key.l_g, 0).get(slot, ())

            def member(gray, blue, sk):
                return gray[:-1].count(gray[0]) == key.r_g

        elif key.tag == fam.TOP:
            pairs = iter_minimal_double_walks(2 * key.l_g, 2 * key.l_b)
            got = _essential_profiles(2 * key.l_g, 2 * key.l_b)

            def member(gray, blue, sk):
                return sk.c > 0

        else:
            if key.tag == fam.S1S:
                lengths = (0, key.l_g)
                slot = (fam.NEQ_ANYC_SN, key.component, 0, key.r_g)
            else:
                lengths = (key.l_g, key.l_b)
                slot = (key.tag, key.component, key.r_g, key.r_b)
            pairs = iter_minimal_double_walks(2 * lengths[0], 2 * lengths[1])
            got = _double_family_profiles(*lengths).get(slot, ())

            def member(gray, blue, sk):
                return slot in memberships(gray, blue, sk)

        want = Counter()
        for gray, blue in pairs:
            sk = skeleton(gray, blue)
            if sk.is_tree and member(gray, blue, sk):
                want[sk.profile] += 1
        assert got and got == tuple(sorted(want.items()))

    def test_oracle_dump_bytes_frozen(self, capsys):
        # sha256 of the stdout printed before the enumeration was pruned.
        assert cli.main(["oracle", "--k", "4", "--m", "4", "--dump"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "4337b084ba1567d7883e37b6b39775b33433094b2f30bb23132627e701570ae8"
        )


class TestLeafProfiles:
    """Leaf facts and the walked slot rule against ``skeleton`` and ``memberships``."""

    @pytest.mark.parametrize("total", range(0, 11, 2))
    def test_pairs_equal_skeleton(self, total):
        for k in range(0, total + 1, 2):
            for gray, counts, blue, n1, n2 in _tree_pairs(k, total - k):
                sk = skeleton(gray, blue)
                profile, c = _leaf(gray, counts, blue, n1, n2)
                assert (profile, c) == (sk.profile, sk.c), format_pair((gray, blue))
                facts = gray_facts(gray)
                assert walked_slots(gray, facts, blue, c) == memberships(gray, blue, sk)

    @pytest.mark.parametrize("l", range(0, 7))
    def test_single_walks_equal_skeleton(self, l):
        for component in (1, 2):
            for walk, n1, n2 in _root_tree_walks(component, 2 * l, set()):
                sk = skeleton(walk, (walk[0],))
                profile, c = leaf(walk, (walk[0],), n1, n2)
                assert (profile, c) == (sk.profile, sk.c), format_walk(walk)

    @pytest.mark.parametrize(
        "gray, blue",
        [("1:1 2:1 1:2 2:2 1:1", "1:1"), ("1:1 2:1 1:1", "1:1 2:2 1:2 2:1 1:1")],
        ids=["gray-cycle", "blue-closes-cycle"],
    )
    def test_cyclic_pair_rejected(self, gray, blue):
        # The O(1) tree guard must hold under python -O too.
        with pytest.raises(ValueError, match="non-tree skeleton"):
            leaf(parse_walk(gray), parse_walk(blue), 2, 2)


class TestEssentialCensus:
    """The coefficient census, read from the family census, against walking the pairs."""

    @pytest.mark.parametrize("total", range(0, 13, 2))
    def test_equals_walked_essential_pairs(self, total):
        # Both gray root parts are walked; values and order must match.
        for k in range(0, total + 1, 2):
            m = total - k
            essential = Counter()
            for gray, counts, blue, n1, n2 in _tree_pairs(k, m):
                profile, c = _leaf(gray, counts, blue, n1, n2)
                if c > 0:
                    essential[profile] += 1
            assert _essential_profiles(k, m) == tuple(sorted(essential.items())), (k, m)


class TestPartMirror:
    """The censuses, counted on gray root part 1 and mirrored, against walking both parts."""

    @pytest.mark.parametrize("total", range(0, 13))
    def test_double_censuses_equal_both_parts(self, total):
        # Every split, odd lengths included: there no pair is walked, and the
        # essential census must come out empty too.
        for k in range(0, total + 1):
            m = total - k
            pairs = list(_tree_pairs(k, m))
            essential = Counter()
            for gray, counts, blue, n1, n2 in pairs:
                profile, c = _leaf(gray, counts, blue, n1, n2)
                if c > 0:
                    essential[profile] += 1
            assert _essential_profiles(k, m) == tuple(sorted(essential.items())), (k, m)
            if k % 2 == 0 and m % 2 == 0:
                got = _double_family_profiles(k // 2, m // 2)
                want = walked_census(pairs)
                # Equal dicts may differ in order; the slots must come sorted.
                assert list(got.items()) == list(want.items()), (k, m)

    def test_single_censuses_equal_both_parts(self):
        for l in range(0, 7):
            buckets = {}
            for component in (1, 2):
                for walk, n1, n2 in _root_tree_walks(component, 2 * l, set()):
                    profile, _ = leaf(walk, (walk[0],), n1, n2)
                    slot = (fam.EQ_ANYC, component, walk[:-1].count(walk[0]), 0)
                    bucket = buckets.setdefault(slot, {})
                    bucket[profile] = bucket.get(profile, 0) + 1
            want = _sorted_buckets(buckets)
            assert list(_double_family_profiles(l, 0).items()) == list(want.items()), l

    @pytest.mark.parametrize("l", range(0, 7))
    def test_empty_walk_censuses_equal_walked_pairs(self, l):
        # The censuses with an empty walk count single-walk classes; here the
        # pairs are walked over both gray root parts, to l = 6 as verify reads.
        for k, m in ((0, 2 * l), (2 * l, 0)):
            got = _double_family_profiles(k // 2, m // 2)
            assert list(got.items()) == list(walked_census(_tree_pairs(k, m)).items()), (k, m)

    def test_part_asymmetric_coefficient(self):
        # alpha = 1/3 weighs the two parts differently, so a mirror that kept
        # the vertex counts unswapped would change the value.
        params, moments = context(2, 6)
        assert params.alpha == F(1, 3)
        for k, m in ((2, 4), (4, 4), (4, 6), (6, 6)):
            want = sum(
                walk_weight(gray, blue, params, moments)
                for gray, _, blue, _, _ in _tree_pairs(k, m)
                if skeleton(gray, blue).c > 0
            )
            assert n_oracle(k, m, params, moments) == want, (k, m)


# Each family whose blue walk is rooted off r, beside its twin rooted at r.
_MOVED_TWINS = {fam.NEQ_C: fam.EQ_C, fam.NEQ_C_R: fam.EQ_C_R, fam.NEQ_ANYC_S: fam.EQ_ANYC}


class TestMovedBlueRoot:
    """On walked pairs: blue walks from x number in proportion to d_B(x)."""

    def test_rooted_elsewhere_is_twin_times_rho(self):
        # For a gray walk and blue edges fixed, the blue walks from x number
        # K d_B(x), and d_B adds up to 2 l_b, r_b of it at r.  So, profile by
        # profile, r_b times a family rooted off r is (2 l_b - r_b) times its
        # twin rooted at r; at l_g = 0, NEQ_ANYC_S against EQ_ANYC is S1S
        # against S1.  The engine moves its blue root by this rule.
        checks = 0
        for total in range(0, 11, 2):
            for k in range(0, total + 1, 2):
                l_b = (total - k) // 2
                census = walked_census(_tree_pairs(k, 2 * l_b))
                slots = {
                    (moved_tag, component, r_g, r_b)
                    for tag, component, r_g, r_b in census
                    for moved_tag, twin_tag in _MOVED_TWINS.items()
                    if tag in (moved_tag, twin_tag) and r_b > 0
                }
                for tag, component, r_g, r_b in slots:
                    moved = dict(census.get((tag, component, r_g, r_b), ()))
                    twin = dict(census.get((_MOVED_TWINS[tag], component, r_g, r_b), ()))
                    for profile in moved.keys() | twin.keys():
                        checks += 1
                        assert r_b * moved.get(profile, 0) == (2 * l_b - r_b) * twin.get(
                            profile, 0
                        ), (tag, k, component, r_g, r_b, profile)
        assert checks == 1066


def labelled_tree(tree) -> dict:
    """Edge (parent, child) -> gray crossings each way on a labelled tree of ``tree``; root 0."""
    edges: dict = {}

    def grow(w, below):
        for g, _, child in below.branches:
            y = len(edges) + 1
            edges[(w, y)] = g
            grow(y, child)

    grow(0, tree)
    return edges


def closed_walks(edges: dict, x: int) -> int:
    """The closed walks from ``x`` crossing each edge (a, b) edges[(a, b)] times each way."""
    left = {}
    for (a, b), m in edges.items():
        left[(a, b)] = left[(b, a)] = m

    def count(at, steps):
        if steps == 0:
            return int(at == x)
        total = 0
        for (a, b), m in left.items():
            if a == at and m:
                left[(a, b)] -= 1
                total += count(b, steps - 1)
                left[(a, b)] += 1
        return total

    return count(x, sum(left.values()))


def automorphisms(edges: dict) -> int:
    """The relabelings of the non-root vertices that keep every labelled edge, by brute force."""
    others = sorted({y for _, y in edges})
    keyed = {frozenset(edge): m for edge, m in edges.items()}
    count = 0
    for image in permutations(others):
        relabel = {0: 0, **dict(zip(others, image))}
        count += all(
            keyed.get(frozenset((relabel[a], relabel[b]))) == m for (a, b), m in edges.items()
        )
    return count


class TestTreeClasses:
    """The counted censuses' parts: W(x), |Aut| and the orbit division, against brute force."""

    @pytest.mark.parametrize("l", range(1, 6))
    def test_walk_count_formula(self, l):
        # Every class of total multiplicity l is a tree with crossings m_e;
        # W(x) = K d_x from every start vertex x, not only the root.
        for tree in _classes(l, 0):
            edges = labelled_tree(tree)
            k = F(tree.num * _k_vertex(tree.d_g), tree.den)
            for x in {0, *(y for _, y in edges)}:
                d_x = sum(m for edge, m in edges.items() if x in edge)
                assert closed_walks(edges, x) == k * d_x, (tree.branches, x)

    @pytest.mark.parametrize("l", range(1, 6))
    def test_automorphism_count(self, l):
        for tree in _classes(l, 0):
            assert tree.aut == automorphisms(labelled_tree(tree)), tree.branches

    def test_orbit_division_checked(self):
        # The remainder check must hold under python -O too.
        tree = next(tree for tree in _classes(1, 1) if tree.shared)  # one edge, g = b = 1
        assert _orbits(tree, 1) == 1
        with pytest.raises(ValueError, match="not a multiple"):
            _orbits(tree._replace(aut=2), 1)

    def test_sums_walk_no_pair(self, monkeypatch):
        # The censuses count by tree class; neither pairs nor single walks are
        # walked, for coefficients and families alike.
        walked = []
        for name in ("_tree_pairs", "_root_tree_walks"):
            real = getattr(walks, name)

            def spy(*args, real=real, name=name):
                walked.append((name, args))
                return real(*args)

            monkeypatch.setattr(walks, name, spy)
        for value in vars(walks).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        params, moments = context(3)
        mismatches, lines = cli.run_crosscheck(
            CoefficientEngine(params, moments), max_total=6, family_total=3
        )
        assert mismatches == [] and lines[-1] == "OK"
        assert walked == []


class TestSkeleton:
    """The reference skeleton and the oracle's ``_leaf`` on pairs worked by hand."""

    def test_shared_edge_pair(self):
        sk = skeleton(*parse_pair("1:1 2:1 1:1 | 1:1 2:1 1:1"))
        assert sk.edges == {(-1, 1): [2, 2]}
        assert (sk.profile, sk.c, sk.is_tree) == ((1, 1, (4,)), 1, True)
        _, _, (profile, c) = leaf_of("1:1 2:1 1:1", "1:1 2:1 1:1")
        assert (profile, c) == ((1, 1, (4,)), 1)

    def test_tree_without_shared_edge(self):
        sk = skeleton(*parse_pair("1:1 2:1 1:1 | 2:1 1:2 2:1"))
        assert sk.is_tree and sk.c == 0
        _, _, (profile, c) = leaf_of("1:1 2:1 1:1", "2:1 1:2 2:1")
        assert (profile, c) == ((2, 1, (2, 2)), 0)

    def test_disjoint_blue_not_tree(self):
        assert not skeleton(*parse_pair("1:1 2:1 1:1 | 1:2 2:2 1:2")).is_tree
        with pytest.raises(ValueError, match="non-tree skeleton"):
            leaf_of("1:1 2:1 1:1", "1:2 2:2 1:2")

    def test_isolated_blue_root_not_tree(self):
        assert not skeleton(parse_walk("1:1 2:1 1:1"), (2,)).is_tree
        with pytest.raises(ValueError, match="non-tree skeleton"):
            leaf_of("1:1 2:1 1:1", "1:2")

    def test_cycle_not_tree(self):
        sk = skeleton(parse_walk("1:1 2:1 1:2 2:2 1:1"), (1,))
        assert len(sk.edges) == 4 and not sk.is_tree

    def test_essential_pairs_have_even_edge_totals(self):
        for gray, counts, blue, n1, n2 in _tree_pairs(4, 4):
            (_, _, totals), c = _leaf(gray, counts, blue, n1, n2)
            if c > 0:
                assert all(t % 2 == 0 for t in totals)


class TestWeights:
    """Profile weights, as the censuses weigh them, worked by hand."""

    def weight(self, index, gray, blue):
        params, moments = context(index)
        _, _, (profile, _) = leaf_of(gray, blue)
        half_length = sum(profile[2]) // 2
        weight, scale = _profile_weigher(params, moments)
        return F(weight(profile, half_length), scale(half_length))

    def test_single_shared_edge(self):
        assert self.weight(1, "1:1 2:1 1:1", "1:1 2:1 1:1") == F(1, 4)
        # alpha1 * alpha2 * V4 / p = (1/3)(2/3)(3/2)
        assert self.weight(2, "1:1 2:1 1:1", "1:1 2:1 1:1") == F(1, 3)

    def test_two_edges(self):
        # alpha1 * alpha2^2 * (V4/p) * V2 = (1/3)(4/9)(3/2)(2)
        assert self.weight(2, "1:1 2:1 1:1 2:2 1:1", "2:1 1:1 2:1") == F(4, 9)

    def test_single_walk_weight(self):
        # alpha1^2 * alpha2 * V2^2 = (1/9)(2/3)(4)
        assert self.weight(2, "1:1 2:1 1:2 2:1 1:1", "1:1") == F(8, 27)

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="non-tree skeleton"):
            self.weight(1, "1:1 2:1 1:1", "1:2 2:2 1:2")

    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_scaled_weights_equal_fraction_products(self, index):
        # Every profile the censuses weigh, as an integer over D_L, is its
        # Fraction product alpha1^n1 alpha2^n2 prod edge_factor.
        params, moments = context(index, 7)
        profiles = set()
        for l_g in range(7):
            for l_b in range(7 - l_g):
                for bucket in _double_family_profiles(l_g, l_b).values():
                    profiles.update(profile for profile, _ in bucket)
        for l in range(8):
            for census in (_double_family_profiles(l, 0), _double_family_profiles(0, l)):
                for bucket in census.values():
                    profiles.update(profile for profile, _ in bucket)
        for total in range(2, 13, 2):
            for k in range(total + 1):
                profiles.update(profile for profile, _ in _essential_profiles(k, total - k))
        weight, scale = _profile_weigher(params, moments)
        for profile in profiles:
            n1, n2, totals = profile
            want = params.alpha1**n1 * params.alpha2**n2
            for total in totals:
                want *= edge_factor(moments, params, total)
            half_length = sum(totals) // 2
            scaled = weight(profile, half_length)
            assert type(scaled) is int and F(scaled, scale(half_length)) == want, profile
        assert len(profiles) > 100

    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_double_blocks_are_family_values(self, index):
        # The block reader crosscheck compares: every double family with
        # l_g + l_b <= 4, as its slot's int over the oracle's D_L, a slot
        # the census lacks reading 0; the block holds no other slot.
        params, moments = context(index)
        for l_g in range(5):
            for l_b in range(5 - l_g):
                scale, block = walks.double_family_block(l_g, l_b, params, moments)
                slots = [
                    (tag, component, r_g, r_b)
                    for tag in fam.DOUBLE_TAGS
                    for component in (1, 2)
                    for r_g in range(l_g + 1)
                    for r_b in range(l_b + 1)
                ]
                assert set(block) <= set(slots)
                for slot in slots:
                    key = fam.double_key(slot[0], slot[1], l_g, l_b, *slot[2:])
                    value = block.get(slot, 0)
                    assert type(value) is int, key
                    assert F(value, scale) == family_total_weight(key, params, moments), key
        with pytest.raises(ValueError, match="half-lengths must be >= 0"):
            walks.double_family_block(1, -1, params, moments)

    def test_wrong_half_length_rejected(self):
        params, moments = context(3)
        with pytest.raises(ValueError, match="not of half-length 2"):
            walks._weight_sum((((1, 1, (2,)), 1),), 2, params, moments)

    def test_non_integral_scale_rejected(self, monkeypatch):
        # The integrality check must hold under python -O too.  Context 3
        # weighs the one-edge profile alpha1 alpha2 V_2 = 1/9, which a scale
        # of 1 leaves fractional.
        params, moments = context(3)
        monkeypatch.setattr(walks, "_scale_base", lambda params, moments: (1, 1))
        weight, scale = _profile_weigher.__wrapped__(params, moments)
        with pytest.raises(ValueError, match="not an integer"):
            weight((1, 1, (2,)), 1)


class TestCensus:
    def test_counts(self):
        assert census(2, 2) == (16, 4)
        assert census(2, 4) == (100, 20)
        assert census(4, 4) == (900, 116)
        assert census(2, 6) == (900, 112)
        assert census(4, 6) == (10816, 704)
        assert census(2, 8) == (10816, 676)
        assert census(6, 6) == (164836, 4516)

    def test_minimal_count_equals_enumeration(self):
        # Odd and zero lengths included: the counting recursion must agree
        # with the unpruned generator wherever that one is cheap to walk.
        for k in range(0, 7):
            for m in range(0, 9 - k):
                want = sum(1 for _ in iter_minimal_double_walks(k, m))
                assert _minimal_pairs(k, m) == want, (k, m)

    def test_minimal_count_at_16(self):
        assert _minimal_pairs(8, 8) == 68558400

    def test_minimal_single_walks_are_bell_squared(self):
        # A minimal walk of half-length l is a pair of set partitions: of its
        # l visits to the root's part before the end, and of its l visits to
        # the other part.  Bell numbers B(0..10):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
        for l, b in enumerate(bell):
            for labels, part in (((1, 0), 1), ((0, 1), 2)):
                count = sum(c for _, c in _minimal_closings(*labels, part, 2 * l))
                assert count == b * b, (l, part)

    def test_census_symmetry(self):
        assert census(2, 4) == census(4, 2)
        assert census(2, 6) == census(6, 2)


class TestOracle:
    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_frozen_values(self, index):
        params, moments = context(index)
        for (k, m), expected in ORACLE_TABLES[index].items():
            assert n_oracle(k, m, params, moments) == expected
            assert n_oracle(m, k, params, moments) == expected

    def test_weights_follow_the_moments(self):
        # Same params, rescaled weight law: V_2j -> c^2j V_2j multiplies
        # n_{k,m} by c^(k+m), so weights must not be reused across moments.
        params, moments = context(2)
        c = F(2, 3)
        scaled = MomentSequence([c ** (2 * j) * v for j, v in enumerate(moments.values, 1)])
        for k, m in ((2, 2), (2, 4), (4, 4)):
            base = n_oracle(k, m, params, moments)
            assert n_oracle(k, m, params, scaled) == c ** (k + m) * base
        key = fam.double_key(fam.NEQ_C_GU, 2, 2, 2, 1, 0)
        base = family_total_weight(key, params, moments)
        assert base != 0
        assert family_total_weight(key, params, scaled) == c**8 * base

    def test_odd_indices_vanish(self):
        params, moments = context(1)
        assert n_oracle(3, 2, params, moments) == 0
        assert n_oracle(2, 5, params, moments) == 0
        assert n_oracle(1, 1, params, moments) == 0

    def test_rejects_nonpositive(self):
        params, moments = context(1)
        with pytest.raises(ValueError):
            n_oracle(0, 2, params, moments)


class TestFamilies:
    def test_top_members(self):
        assert essential_pair_lines(2, 2) == [
            "1:1 2:1 1:1 | 1:1 2:1 1:1",
            "1:1 2:1 1:1 | 2:1 1:1 2:1",
            "2:1 1:1 2:1 | 1:1 2:1 1:1",
            "2:1 1:1 2:1 | 2:1 1:1 2:1",
        ]

    def test_s1_members(self):
        def members(l, r):
            return _double_family_profiles(l, 0).get((fam.EQ_ANYC, 1, r, 0), ())

        assert members(0, 0) == (((1, 0, ()), 1),)
        assert members(1, 1) == (((1, 1, (2,)), 1),)
        assert members(1, 0) == ()
        # Half-length 2: the four-vertex cycle walk drops out (not a tree);
        # one survivor leaves the root once, two leave it twice.
        assert sum(count for _, count in members(2, 1)) == 1
        assert sum(count for _, count in members(2, 2)) == 2

    def test_s1s_members(self):
        # The one member is "2:1 | 1:1 2:1 1:1".
        slot = (fam.NEQ_ANYC_SN, 2, 0, 1)
        assert _double_family_profiles(0, 1)[slot] == (((1, 1, (2,)), 1),)

    def test_site_key_names_the_single_walk_value(self):
        # S1(c, l, r) is EQ_ANYC at (c, l, 0, r, 0) and S1S(c, l, r) is
        # NEQ_ANYC_SN at (c, 0, l, 0, r).  The engine's value at that slot,
        # which it evaluates by recursion, equals the weight of the oracle's
        # census at that slot of the (l, 0) block (S1) or (0, l) block (S1S).
        params, moments = context(2, 6)
        engine = CoefficientEngine(params, moments)
        for l in range(7):
            for tag, want in [
                (fam.S1, lambda c, r: fam.FamilyKey(fam.EQ_ANYC, c, l, 0, r, 0)),
                (fam.S1S, lambda c, r: fam.FamilyKey(fam.NEQ_ANYC_SN, c, 0, l, 0, r)),
            ]:
                for c in (1, 2):
                    for r in range(l + 1):
                        site = fam.site_key(fam.single_key(tag, c, l, r))
                        assert site == want(c, r)
                        profiles = _double_family_profiles(site.l_g, site.l_b).get(
                            (site.tag, c, site.r_g, site.r_b), ()
                        )
                        assert engine.s_value(site) == walks._weight_sum(
                            profiles, l, params, moments
                        ), site
        for tag in sorted(fam.DOUBLE_TAGS):
            for site in [(1, 2, 0, 1, 0), (2, 0, 3, 0, 2), (1, 2, 3, 1, 2)]:
                key = fam.double_key(tag, *site)
                assert fam.site_key(key) is key

    def test_membership_example(self):
        # Gray of half-length 2 rooted at 1:1, blue of half-length 3 rooted at
        # a fresh part-2 vertex; they share the edge (1:1, 2:1) and the blue
        # root sits on the r side of the first gray edge.
        gray, blue, (profile, c) = leaf_of(
            "1:1 2:1 1:1 2:2 1:1", "2:3 1:2 2:3 1:1 2:1 1:1 2:3"
        )
        assert c > 0
        slots = walked_slots(gray, gray_facts(gray), blue, c)
        for tag in (fam.NEQ_C, fam.NEQ_ANYC_S, fam.NEQ_C_R, fam.NEQ_C_RD):
            assert (tag, 1, 2, 2) in slots
            assert profile in dict(_double_family_profiles(2, 3)[(tag, 1, 2, 2)])
        for tag in (fam.NEQ_C_RU, fam.NEQ_C_G, fam.EQ_C, fam.NEQ_ANYC_SGD):
            assert (tag, 1, 2, 2) not in slots

    def test_subfamily_splits(self):
        params, moments = context(2)

        def total(tag, comp, l_g, l_b, r_g, r_b):
            return family_total_weight(
                fam.double_key(tag, comp, l_g, l_b, r_g, r_b), params, moments
            )

        for comp in (1, 2):
            for r_g in range(0, 3):
                for r_b in range(0, 3):
                    args = (comp, 2, 2, r_g, r_b)
                    assert total(fam.EQ_C, *args) == total(fam.EQ_C_G, *args) + total(
                        fam.EQ_C_R, *args
                    )
                    assert total(fam.NEQ_C, *args) == total(fam.NEQ_C_G, *args) + total(
                        fam.NEQ_C_R, *args
                    )
                    assert total(fam.NEQ_C_G, *args) == total(
                        fam.NEQ_C_GU, *args
                    ) + total(fam.NEQ_C_GD, *args)
                    assert total(fam.NEQ_C_R, *args) == total(
                        fam.NEQ_C_RU, *args
                    ) + total(fam.NEQ_C_RD, *args)

    @pytest.mark.parametrize("pair", [(2, 2), (4, 2), (4, 4)])
    def test_partition_reaches_oracle(self, pair):
        # Essential pairs split exactly by root component, root equality, and
        # root departure counts, so summing EQ_C + NEQ_C over every slot must
        # reproduce the unconditioned coefficient.
        params, moments = context(2)
        k, m = pair
        l_g, l_b = k // 2, m // 2
        total = F(0)
        for tag in (fam.EQ_C, fam.NEQ_C):
            for comp in (1, 2):
                for r_g in range(0, l_g + 1):
                    for r_b in range(0, l_b + 1):
                        total += family_total_weight(
                            fam.double_key(tag, comp, l_g, l_b, r_g, r_b),
                            params,
                            moments,
                        )
        assert total == n_oracle(k, m, params, moments)

    def test_unknown_tag_rejected(self):
        params, moments = context(1)
        with pytest.raises(fam.UnknownFamilyError):
            family_total_weight(fam.FamilyKey("NOPE", 1, 1, 1, 1, 1), params, moments)
