"""Enumeration oracle: walks, skeletons, censuses, families."""

import hashlib
from fractions import Fraction as F

import pytest

from bipcorr import cli, families as fam, walks
from bipcorr.model import MomentSequence
from bipcorr.recurrence import CoefficientEngine
from bipcorr.walks import (
    DoubleWalk,
    census,
    family_members,
    family_total_weight,
    format_double_walk,
    format_walk,
    is_essential,
    iter_tree_double_walks,
    iter_tree_walks,
    n_oracle,
    parse_double_walk,
    parse_walk,
    skeleton,
    walk_weight,
)
from bipcorr.walks import (
    _double_family_profiles,
    _essential_profiles,
    _gray_facts,
    _leaf,
    _leaf_slots,
    _marked_walk_profiles,
    _memberships,
    _minimal_closings,
    _minimal_pairs,
    _profile_of,
    _root_departures,
    _root_tree_walks,
    _single_family_profiles,
    _tree_pairs,
    vertex_part,
)

from conftest import CONTEXT_IDS, ORACLE_TABLES, context


# ---------------------------------------------------------------------------
# The unpruned enumeration: the reference that defines minimality.  It walks
# every minimal pair, trees or not, in the order the oracle's pruned
# generators keep.


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
                    yield DoubleWalk(gray, blue)
            for lab in range(1, g2 + 1):
                for blue, _, _ in _extend([-lab], g1, g2, m, -lab):
                    yield DoubleWalk(gray, blue)
            for blue, _, _ in _extend([g1 + 1], g1 + 1, g2, m, g1 + 1):
                yield DoubleWalk(gray, blue)
            for blue, _, _ in _extend([-(g2 + 1)], g1, g2 + 1, m, -(g2 + 1)):
                yield DoubleWalk(gray, blue)


def enumerate_minimal_double_walks(k: int, m: int) -> list:
    return list(iter_minimal_double_walks(k, m))


def canonicalize(dw: DoubleWalk) -> DoubleWalk:
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

    gray = tuple(relab(v) for v in dw.gray)
    blue = tuple(relab(v) for v in dw.blue)
    return DoubleWalk(gray, blue)


def is_minimal(dw: DoubleWalk) -> bool:
    return canonicalize(dw) == dw


class TestText:
    def test_round_trip(self):
        text = "1:1 2:1 1:2 2:1 1:1"
        assert format_walk(parse_walk(text)) == text
        pair = "1:1 2:1 1:1 | 2:2 1:1 2:2"
        assert format_double_walk(parse_double_walk(pair)) == pair

    def test_signed_encoding(self):
        assert parse_walk("1:3 2:5") == (3, -5)

    def test_rejects_garbage(self):
        for bad in ("3:1", "1:0", "1:x", "nonsense"):
            with pytest.raises(ValueError):
                parse_walk(bad)
        with pytest.raises(ValueError):
            parse_double_walk("1:1 2:1 1:1")


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
        assert {dw.gray[0] for dw in pairs} == {1, -1}
        # For gray (1,-1,1) the blue root ranges over used vertices then
        # fresh ones in part order.
        roots = [dw.blue[0] for dw in pairs if dw.gray == (1, -1, 1)]
        assert list(dict.fromkeys(roots)) == [1, -1, 2, -2]

    def test_all_enumerated_pairs_minimal(self):
        for dw in enumerate_minimal_double_walks(4, 2):
            assert is_minimal(dw)

    def test_canonicalize_relabels(self):
        dw = parse_double_walk("1:2 2:3 1:2 | 1:1 2:3 1:1")
        assert format_double_walk(canonicalize(dw)) == "1:1 2:1 1:1 | 1:2 2:1 1:2"
        assert not is_minimal(dw)


class TestTreePruning:
    """The pruned generators against the unpruned enumeration plus filter."""

    @pytest.mark.parametrize("total", range(0, 11))
    def test_double_walks_equal_filtered_enumeration(self, total):
        for k in range(0, total + 1):
            m = total - k
            want = [dw for dw in iter_minimal_double_walks(k, m) if skeleton(dw).is_tree]
            assert list(iter_tree_double_walks(k, m)) == want, (k, m)

    @pytest.mark.parametrize("l", range(0, 7))
    def test_single_walks_equal_filtered_enumeration(self, l):
        for component in (1, 2):
            want = [
                w for w in iter_minimal_walks(l, component)
                if skeleton(DoubleWalk(w, (w[0],))).is_tree
            ]
            assert list(iter_tree_walks(l, component)) == want, (l, component)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(iter_tree_double_walks(-2, 2))
        with pytest.raises(ValueError):
            list(iter_tree_walks(2, 3))

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
        # The reference filters the unpruned enumeration, as family_members
        # did before pruning.
        if key.tag == fam.S1:
            want = [
                w for w in iter_minimal_walks(key.l_g, key.component)
                if skeleton(DoubleWalk(w, (w[0],))).is_tree
                and sum(1 for v in w[:-1] if v == w[0]) == key.r_g
            ]
        elif key.tag == fam.TOP:
            want = [
                dw for dw in iter_minimal_double_walks(2 * key.l_g, 2 * key.l_b)
                if is_essential(dw)
            ]
        else:
            if key.tag == fam.S1S:
                lengths = (0, 2 * key.l_g)
                slot = (fam.NEQ_ANYC_SN, key.component, 0, key.r_g)
            else:
                lengths = (2 * key.l_g, 2 * key.l_b)
                slot = (key.tag, key.component, key.r_g, key.r_b)
            want = [
                dw for dw in iter_minimal_double_walks(*lengths)
                if skeleton(dw).is_tree and slot in _memberships(dw, skeleton(dw))
            ]
        members = family_members(key)
        assert members and members == want

    def test_oracle_dump_bytes_frozen(self, capsys):
        # sha256 of the stdout printed before the enumeration was pruned.
        assert cli.main(["oracle", "--k", "4", "--m", "4", "--dump"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "4337b084ba1567d7883e37b6b39775b33433094b2f30bb23132627e701570ae8"
        )


class TestLeafProfiles:
    """The sums' leaf-built facts against ``skeleton()`` and ``_memberships``."""

    @pytest.mark.parametrize("total", range(0, 11, 2))
    def test_pairs_equal_skeleton(self, total):
        for k in range(0, total + 1, 2):
            for gray, blue, n1, n2 in _tree_pairs(k, total - k):
                dw = DoubleWalk(gray.walk, blue)
                sk = skeleton(dw)
                profile, c, on_cut, r_b = _leaf(gray, blue, n1, n2)
                assert (profile, c) == (_profile_of(sk), sk.c), format_double_walk(dw)
                assert _leaf_slots(gray, blue, c, on_cut, r_b) == _memberships(dw, sk)

    @pytest.mark.parametrize("l", range(0, 7))
    def test_single_walks_equal_skeleton(self, l):
        for component in (1, 2):
            for walk, n1, n2 in _root_tree_walks(component, 2 * l, set()):
                gray = _gray_facts(walk)
                sk = skeleton(DoubleWalk(walk, (walk[0],)))
                profile, c, _, _ = _leaf(gray, (walk[0],), n1, n2)
                assert (profile, c) == (_profile_of(sk), sk.c), format_walk(walk)
                assert gray.r_g == _root_departures(walk, walk[0])

    @pytest.mark.parametrize(
        "gray, blue",
        [("1:1 2:1 1:2 2:2 1:1", "1:1"), ("1:1 2:1 1:1", "1:1 2:2 1:2 2:1 1:1")],
        ids=["gray-cycle", "blue-closes-cycle"],
    )
    def test_cyclic_pair_rejected(self, gray, blue):
        # The O(1) tree guard must hold under python -O too.
        with pytest.raises(ValueError, match="non-tree skeleton"):
            _leaf(_gray_facts(parse_walk(gray)), parse_walk(blue), 2, 2)

    def test_sums_build_no_skeleton(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the oracle's sums must not build a skeleton")

        monkeypatch.setattr(walks, "skeleton", forbidden)
        monkeypatch.setattr(walks, "_is_connected", forbidden)
        for cached in (
            walks._essential_profiles,
            walks._double_family_profiles,
            walks._single_family_profiles,
            walks._marked_walk_profiles,
            walks._single_walk_censuses,
            walks._profile_weigher,
        ):
            cached.cache_clear()
        params, moments = context(3)
        mismatches, lines = cli.run_crosscheck(
            CoefficientEngine(params, moments), max_total=6, family_total=3
        )
        assert mismatches == [] and lines[-1] == "OK"


def _sorted_buckets(buckets: dict) -> dict:
    return {slot: tuple(sorted(bucket.items())) for slot, bucket in sorted(buckets.items())}


class TestPartMirror:
    """The censuses, walked on gray root part 1 and mirrored, against walking both parts."""

    @pytest.mark.parametrize("total", range(0, 11))
    def test_double_censuses_equal_both_parts(self, total):
        for k in range(0, total + 1):
            m = total - k
            essential, buckets = {}, {}
            for gray, blue, n1, n2 in _tree_pairs(k, m):
                profile, c, on_cut, r_b = _leaf(gray, blue, n1, n2)
                if c > 0:
                    essential[profile] = essential.get(profile, 0) + 1
                for slot in _leaf_slots(gray, blue, c, on_cut, r_b):
                    bucket = buckets.setdefault(slot, {})
                    bucket[profile] = bucket.get(profile, 0) + 1
            assert _essential_profiles(k, m) == tuple(sorted(essential.items())), (k, m)
            if k % 2 == 0 and m % 2 == 0:
                got = _double_family_profiles(k // 2, m // 2)
                want = _sorted_buckets(buckets)
                # Equal dicts may differ in order; the slots must come sorted.
                assert list(got.items()) == list(want.items()), (k, m)

    def test_single_censuses_equal_both_parts(self):
        for l in range(0, 7):
            buckets = {}
            for component in (1, 2):
                for walk, n1, n2 in _root_tree_walks(component, 2 * l, set()):
                    gray = _gray_facts(walk)
                    profile, _, _, _ = _leaf(gray, (walk[0],), n1, n2)
                    bucket = buckets.setdefault((component, gray.r_g), {})
                    bucket[profile] = bucket.get(profile, 0) + 1
            want = _sorted_buckets(buckets)
            assert list(_single_family_profiles(l).items()) == list(want.items()), l

    @pytest.mark.parametrize("l", range(0, 7))
    def test_empty_walk_censuses_equal_walked_pairs(self, l):
        # The censuses with an empty walk come from single walks; here the
        # pairs are walked over both gray root parts, to l = 6 as verify reads.
        walked = {}
        for k, m in ((0, 2 * l), (2 * l, 0)):
            buckets = {}
            for gray, blue, n1, n2 in _tree_pairs(k, m):
                profile, c, on_cut, r_b = _leaf(gray, blue, n1, n2)
                for slot in _leaf_slots(gray, blue, c, on_cut, r_b):
                    bucket = buckets.setdefault(slot, {})
                    bucket[profile] = bucket.get(profile, 0) + 1
            walked[k] = _sorted_buckets(buckets)
            got = _double_family_profiles(k // 2, m // 2)
            assert list(got.items()) == list(walked[k].items()), (k, m)
        marked = {
            (component, r_b): bucket
            for (tag, component, _, r_b), bucket in walked[0].items()
            if tag == fam.NEQ_ANYC_SN
        }
        assert list(_marked_walk_profiles(l).items()) == list(marked.items()), l

    def test_part_asymmetric_coefficient(self):
        # alpha = 1/3 weighs the two parts differently, so a mirror that kept
        # the vertex counts unswapped would change the value.
        params, moments = context(2)
        assert params.alpha == F(1, 3)
        for k, m in ((2, 4), (4, 4)):
            want = sum(
                walk_weight(dw, params, moments)
                for dw in iter_tree_double_walks(k, m)
                if is_essential(dw)
            )
            assert n_oracle(k, m, params, moments) == want, (k, m)


class TestSkeleton:
    def test_shared_edge_pair(self):
        dw = parse_double_walk("1:1 2:1 1:1 | 1:1 2:1 1:1")
        sk = skeleton(dw)
        assert (sk.part1_count, sk.part2_count) == (1, 1)
        assert sk.edges == {(-1, 1): (2, 2)}
        assert sk.c == 1
        assert sk.is_tree
        assert sk.multiplicity(1, -1) == 4
        assert sk.multiplicity(1, -2) == 0
        assert is_essential(dw)

    def test_tree_without_shared_edge(self):
        dw = parse_double_walk("1:1 2:1 1:1 | 2:1 1:2 2:1")
        sk = skeleton(dw)
        assert sk.is_tree and sk.c == 0
        assert not is_essential(dw)

    def test_disjoint_blue_not_tree(self):
        dw = parse_double_walk("1:1 2:1 1:1 | 1:2 2:2 1:2")
        assert not skeleton(dw).is_tree

    def test_isolated_blue_root_not_tree(self):
        dw = DoubleWalk(parse_walk("1:1 2:1 1:1"), (2,))
        assert not skeleton(dw).is_tree

    def test_cycle_not_tree(self):
        dw = DoubleWalk(parse_walk("1:1 2:1 1:2 2:2 1:1"), (1,))
        sk = skeleton(dw)
        assert len(sk.edges) == 4 and not sk.is_tree

    def test_essential_pairs_have_even_edge_totals(self):
        for dw in enumerate_minimal_double_walks(4, 4):
            if is_essential(dw):
                assert all(t % 2 == 0 for t in skeleton(dw).edge_totals())


class TestWeights:
    def test_single_shared_edge(self):
        dw = parse_double_walk("1:1 2:1 1:1 | 1:1 2:1 1:1")
        params, moments = context(1)
        assert walk_weight(dw, params, moments) == F(1, 4)
        params, moments = context(2)
        # alpha1 * alpha2 * V4 / p = (1/3)(2/3)(3/2)
        assert walk_weight(dw, params, moments) == F(1, 3)

    def test_two_edges(self):
        dw = parse_double_walk("1:1 2:1 1:1 2:2 1:1 | 2:1 1:1 2:1")
        params, moments = context(2)
        # alpha1 * alpha2^2 * (V4/p) * V2 = (1/3)(4/9)(3/2)(2)
        assert walk_weight(dw, params, moments) == F(4, 9)

    def test_single_walk_weight(self):
        walk = parse_walk("1:1 2:1 1:2 2:1 1:1")
        params, moments = context(2)
        # alpha1^2 * alpha2 * V2^2 = (1/9)(2/3)(4)
        assert walk_weight(DoubleWalk(walk, (walk[0],)), params, moments) == F(8, 27)

    def test_non_tree_rejected(self):
        dw = parse_double_walk("1:1 2:1 1:1 | 1:2 2:2 1:2")
        params, moments = context(1)
        with pytest.raises(ValueError):
            walk_weight(dw, params, moments)


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
        members = family_members(fam.top_key(1, 1))
        assert [format_double_walk(dw) for dw in members] == [
            "1:1 2:1 1:1 | 1:1 2:1 1:1",
            "1:1 2:1 1:1 | 2:1 1:1 2:1",
            "2:1 1:1 2:1 | 1:1 2:1 1:1",
            "2:1 1:1 2:1 | 2:1 1:1 2:1",
        ]

    def test_s1_members(self):
        assert family_members(fam.single_key(fam.S1, 1, 0, 0)) == [(1,)]
        assert family_members(fam.single_key(fam.S1, 1, 1, 1)) == [(1, -1, 1)]
        assert family_members(fam.single_key(fam.S1, 1, 1, 0)) == []
        # Half-length 2: the four-vertex cycle walk drops out (not a tree);
        # one survivor leaves the root once, two leave it twice.
        assert len(family_members(fam.single_key(fam.S1, 1, 2, 1))) == 1
        assert len(family_members(fam.single_key(fam.S1, 1, 2, 2))) == 2

    def test_s1s_members(self):
        members = family_members(fam.single_key(fam.S1S, 2, 1, 1))
        assert [format_double_walk(dw) for dw in members] == ["2:1 | 1:1 2:1 1:1"]

    def test_membership_example(self):
        # Gray of half-length 2 rooted at 1:1, blue of half-length 3 rooted at
        # a fresh part-2 vertex; they share the edge (1:1, 2:1) and the blue
        # root sits on the r side of the first gray edge.
        dw = parse_double_walk("1:1 2:1 1:1 2:2 1:1 | 2:3 1:2 2:3 1:1 2:1 1:1 2:3")
        assert is_essential(dw)
        for tag in (fam.NEQ_C, fam.NEQ_ANYC_S, fam.NEQ_C_R, fam.NEQ_C_RD):
            assert dw in family_members(fam.double_key(tag, 1, 2, 3, 2, 2))
        for tag in (fam.NEQ_C_RU, fam.NEQ_C_G, fam.EQ_C, fam.NEQ_ANYC_SGD):
            assert dw not in family_members(fam.double_key(tag, 1, 2, 3, 2, 2))

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
        with pytest.raises(fam.UnknownFamilyError):
            family_members(fam.FamilyKey("NOPE", 1, 1, 1, 1, 1))
