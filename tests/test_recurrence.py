"""Recurrence engine: family values, coefficients, memo guards."""

import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import bipcorr
from bipcorr import families as fam, recurrence
from bipcorr.model import (
    InsufficientMomentsError,
    InvalidParamsError,
    ModelParams,
    MomentSequence,
    moments_preset,
)
from bipcorr.recurrence import CoefficientEngine
from bipcorr.walks import family_total_weight, n_oracle

from conftest import CONTEXT_IDS, ORACLE_TABLES, context


def make_engine(index, count=5):
    params, moments = context(index, count)
    return CoefficientEngine(params, moments)


class TestSingleWalkValues:
    def test_empty_walk_carries_vertex_factor(self):
        engine = make_engine(2)
        assert engine.s_value(fam.single_key(fam.S1, 1, 0, 0)) == F(1, 3)
        assert engine.s_value(fam.single_key(fam.S1, 2, 0, 0)) == F(2, 3)

    def test_impossible_departure_counts_vanish(self):
        engine = make_engine(2)
        assert engine.s_value(fam.single_key(fam.S1, 1, 0, 1)) == 0
        assert engine.s_value(fam.single_key(fam.S1, 1, 3, 0)) == 0
        assert engine.s_value(fam.single_key(fam.S1, 1, 2, 3)) == 0

    def test_one_step_walk(self):
        # The only member is root -> neighbor -> root: alpha1 * alpha2 * V2.
        engine = make_engine(2)
        assert engine.s_value(fam.single_key(fam.S1, 1, 1, 1)) == F(4, 9)
        assert engine.s_value(fam.single_key(fam.S1, 2, 1, 1)) == F(4, 9)

    def test_visiting_family_base(self):
        engine = make_engine(2)
        # One member: blue (1, -1, 1) around the marked part-2 root.
        assert engine.s_value(fam.single_key(fam.S1S, 2, 1, 1)) == F(4, 9)
        assert engine.s_value(fam.single_key(fam.S1S, 2, 0, 0)) == 0


class TestAgainstEnumeration:
    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_frozen_coefficients(self, index):
        engine = make_engine(index)
        for (k, m), expected in ORACLE_TABLES[index].items():
            assert engine.correlator_coefficient(k, m) == expected
            # ``correlator_coefficient`` reads TOP with the shorter walk
            # gray; each orientation, on an engine of its own, is n_{k,m}.
            for lg, lb in ((k // 2, m // 2), (m // 2, k // 2)):
                assert make_engine(index).s_value(fam.top_key(lg, lb)) == expected

    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_family_values_sample(self, index):
        params, moments = context(index)
        engine = CoefficientEngine(params, moments)
        keys = [
            fam.single_key(fam.S1, 1, 2, 1),
            fam.single_key(fam.S1S, 1, 2, 2),
            fam.top_key(1, 2),
            fam.double_key(fam.EQ_C, 1, 1, 1, 1, 1),
            fam.double_key(fam.EQ_ANYC, 2, 1, 1, 1, 0),
            fam.double_key(fam.NEQ_C, 1, 2, 1, 1, 1),
            fam.double_key(fam.NEQ_C_RD, 1, 2, 1, 2, 1),
            fam.double_key(fam.NEQ_ANYC_S, 2, 1, 2, 1, 2),
        ]
        for key in keys:
            assert engine.s_value(key) == family_total_weight(key, params, moments), key

    def test_matches_oracle_on_fresh_pair(self):
        params, moments = context(3, count=4)
        engine = CoefficientEngine(params, moments)
        assert engine.correlator_coefficient(6, 2) == n_oracle(6, 2, params, moments)

    def test_shared_root_shared_edge_spot_value(self):
        # Both walks of half-length 1 from the same part-1 root over one
        # shared edge: alpha1 * alpha2 * V4 / p with alpha=1/2, p=2, V4=5.
        engine = CoefficientEngine(ModelParams(F(1, 2), F(2)), MomentSequence([F(1), F(5)]))
        key = fam.double_key(fam.EQ_C, 1, 1, 1, 1, 1)
        assert engine.s_value(key) == F(5, 8)


class TestCoefficientApi:
    def test_odd_indices_vanish_without_moments(self):
        engine = CoefficientEngine(ModelParams(F(1, 2), F(1)), MomentSequence([]))
        assert engine.correlator_coefficient(3, 2) == 0
        assert engine.correlator_coefficient(2, 5) == 0

    def test_table_covers_grid(self):
        engine = make_engine(1, count=3)
        table = engine.correlator_table(3, 3)
        assert set(table) == {(k, m) for k in (1, 2, 3) for m in (1, 2, 3)}
        assert table[(2, 2)] == 1
        assert table[(1, 1)] == 0 and table[(3, 2)] == 0

    def test_validation_errors(self):
        bad_alpha = CoefficientEngine(ModelParams(F(2), F(1)), MomentSequence([F(1)] * 2))
        with pytest.raises(InvalidParamsError):
            bad_alpha.correlator_coefficient(2, 2)
        short = CoefficientEngine(ModelParams(F(1, 2), F(1)), MomentSequence([F(1)]))
        with pytest.raises(InsufficientMomentsError):
            short.correlator_coefficient(2, 2)

    @pytest.mark.parametrize(
        "deep, key",
        [
            (fam.single_key(fam.S1, 1, 9, 1), fam.single_key(fam.S1, 1, 8, 1)),
            (fam.single_key(fam.S1S, 2, 9, 1), fam.single_key(fam.S1S, 2, 8, 1)),
            (fam.double_key(fam.EQ_C, 1, 5, 4, 1, 1), fam.double_key(fam.EQ_C, 1, 4, 4, 1, 1)),
            (
                fam.double_key(fam.NEQ_C_GU, 2, 5, 4, 2, 0),
                fam.double_key(fam.NEQ_C_GU, 2, 4, 4, 2, 0),
            ),
            (fam.top_key(4, 5), fam.top_key(4, 4)),
        ],
        ids=["S1", "S1S", "EQ_C", "NEQ_C_GU", "TOP"],
    )
    def test_family_moments_checked_first(self, deep, key):
        # Eight moments reach V_16, so total half-length 8 but not 9: a key at
        # total 9 raises before it evaluates anything, and one at total 8
        # evaluates.
        engine = make_engine(3, count=8)
        with pytest.raises(InsufficientMomentsError):
            engine.s_value(deep)
        held = engine.memo_size, engine._bounds, engine._pair, engine._rooted, engine._both
        assert held == (0, {}, {}, {}, {})
        assert engine.s_value(key) == family_total_weight(key, *context(3, 8))

    def test_malformed_key_rejected(self):
        engine = make_engine(1)
        with pytest.raises(fam.UnknownFamilyError):
            engine.s_value(fam.FamilyKey(fam.EQ_C, 1, 1, None, 1, 1))
        for site in [(3, 1, 1, 1, 1), (1, 1, 1, -1, 0)]:
            with pytest.raises(fam.UnknownFamilyError, match="malformed site"):
                engine.scaled_site(site)


def _stirling2_row(n):
    """S(n, j) for j = 0..n, the Stirling numbers of the second kind."""
    row = [1]
    for i in range(1, n + 1):
        row = [0] + [j * (row[j] if j < i else 0) + row[j - 1] for j in range(1, i + 1)]
    return row


class TestDeepRegressions:
    @pytest.mark.parametrize("l", [1, 2, 3, 8, 600])
    def test_star_walk_closed_form(self, l):
        # S1(l, r=l) departs the root at every step, so it is a star: its
        # steps fall into j blocks, one per distinct neighbor.  At alpha = 1/2,
        # p = 1 and unit moments every vertex weighs 1/2 and every edge 1.
        # At l = 600 the key chain is deeper than a recursive evaluator
        # reaches under the default recursion limit.
        engine = CoefficientEngine(ModelParams(F(1, 2), F(1)), moments_preset("rademacher", l))
        expected = F(1, 2) * sum(F(count, 2**j) for j, count in enumerate(_stirling2_row(l)))
        assert engine.s_value(fam.single_key(fam.S1, 1, l, l)) == expected

    def test_star_walk_evaluates_one_site_per_block(self):
        # S1(1, 600, 600) reads, at r_g = l_g, one site of each block
        # (1, l, 0) and the empty walk of the other part: 602 sites, two
        # values each.  Whole blocks would be 180,901 sites and O(l^4)
        # steps.
        engine = CoefficientEngine(ModelParams(F(1, 2), F(1)), moments_preset("rademacher", 600))
        engine.s_value(fam.single_key(fam.S1, 1, 600, 600))
        assert engine.memo_size == 2 * 602

    # Values frozen after enumeration confirmed the engine at total length 12.
    def test_total_length_twelve(self):
        engine = make_engine(2, count=6)
        assert engine.correlator_coefficient(6, 6) == F(4045, 4)
        assert engine.correlator_coefficient(4, 8) == F(324995, 324)
        assert engine.correlator_coefficient(2, 10) == F(925279, 972)

    def test_beyond_enumeration_reach(self):
        engine = make_engine(2, count=10)
        expected = F(1725611199907, 1259712)
        assert engine.correlator_coefficient(10, 10) == expected


# S1(1, 1, 1), evaluated and then blanked as if it were not, read by the
# gray peel of S1(1, 2, 2).  A script for ``exec``, which finds ``engine``
# and ``fam`` in its globals.
UNEVALUATED_BREACH = """\
engine.s_value(fam.single_key(fam.S1, 1, 1, 1))
engine._x[1, 1][0][0][0] = None
engine.s_value(fam.single_key(fam.S1, 1, 2, 2))"""
UNEVALUATED_MESSAGE = (
    "evaluation order violated: block (c=1, l_g=2, l_b=0) read a site not yet evaluated"
)


def every_key(max_total):
    """Every single and double key with total half-length <= max_total."""
    for tag in sorted(fam.SINGLE_TAGS):
        for component in (1, 2):
            for l in range(max_total + 1):
                for r in range(l + 1):
                    yield fam.single_key(tag, component, l, r)
    for tag in sorted(fam.DOUBLE_TAGS):
        for component in (1, 2):
            for lg in range(max_total + 1):
                for lb in range(max_total - lg + 1):
                    for rg in range(lg + 1):
                        for rb in range(lb + 1):
                            yield fam.double_key(tag, component, lg, lb, rg, rb)


class TestMemo:
    def test_write_once(self):
        # Each site is written once; a second write raises, whatever its
        # value, and leaves the first.
        engine = make_engine(1)
        engine.correlator_coefficient(2, 2)
        x, anyc = engine._x[1, 1][1][0][0], engine._anyc[1, 1][1][0][0]
        for value in (x, x + 1):
            with pytest.raises(AssertionError, match="written twice"):
                engine._write((1, 1, 1, 1, 1), value, anyc)
        assert engine._x[1, 1][1][0][0] == x

    def test_recursion_order_guard(self):
        # A read of a site not yet evaluated raises.
        engine = make_engine(1)
        with pytest.raises(AssertionError, match=re.escape(UNEVALUATED_MESSAGE)):
            exec(UNEVALUATED_BREACH, {"engine": engine, "fam": fam})
        # The glue of a site with l_g = 0 reads its blue walk's S1 at its own
        # total, so blocks with l_b = 0 rank first: a cold engine evaluates
        # EQ_ANYC(1, 0, 2, 0, 1), whose glue reads S1(1, 2, 1).
        key = fam.double_key(fam.EQ_ANYC, 1, 0, 2, 0, 1)
        assert make_engine(1).s_value(key) == family_total_weight(key, *context(1, 5))

    @pytest.mark.parametrize(
        "warm, key, row",
        [
            # Gray peel: S1(1, 2, 2) reads the ``pair`` row (2, 1, 0), the
            # single walks beyond a cut edge with f = 1, at u = 0.
            ((2, 2), fam.single_key(fam.S1, 1, 2, 2), lambda e: e._pair[2, 1, 0][0]),
            # Red peel: EQ_C_R(2, 2, 2, 1, 1) reads the ``rooted`` row of
            # (opp, fg, fb) = (1, 1, 1) at ug = ub = 1.
            ((4, 6), fam.double_key(fam.EQ_C_R, 2, 2, 2, 1, 1), lambda e: e._rooted[1, 1][1][1][1]),
        ],
        ids=["gray", "red"],
    )
    def test_upper_sum_hit_gives_cold_value(self, warm, key, row):
        # Warming with n_{warm} extends the row past the entry ``key``'s
        # peel reads but never evaluates ``key``'s site, so that peel reads
        # an entry it did not extend.
        engine = make_engine(1)
        engine.correlator_coefficient(*warm)
        site = tuple(fam.site_key(key)[1:])
        assert site not in engine._sites and type(row(engine)) is int
        assert engine.s_value(key) == make_engine(1).s_value(key)

    @pytest.mark.parametrize(
        "breach, message",
        [
            (UNEVALUATED_BREACH, UNEVALUATED_MESSAGE),
            (
                "engine.correlator_coefficient(2, 2); "
                "engine._write((1, 1, 1, 1, 1), 1, 1)",
                "Site(component=1, l_g=1, l_b=1, r_g=1, r_b=1) written twice",
            ),
            (
                # alpha = 1/3 gives a_2 = 2; S1(2, 1, 1), of value alpha2 *
                # alpha1 * V2, is scaled to 2, and 1 is no multiple of a_2.
                # The site holds it as x and as anyc.
                "engine = CoefficientEngine(ModelParams(F(1, 3), F(1)), engine.moments); "
                "engine.s_value(fam.single_key(fam.S1, 2, 1, 1)); "
                "engine._x[2, 1][0][0][0] = 1; "
                "engine.s_value(fam.double_key(fam.EQ_ANYC, 2, 1, 1, 1, 1))",
                "glue at FamilyKey(tag='EQ_ANYC', component=2, l_g=1, l_b=1, r_g=1, r_b=1) "
                "is not divisible",
            ),
            (
                # S1S(1, 4, 3) moves the root of S1(1, 4, 3) by (2 * 4 - 3) / 3;
                # its site's x set to the scaled value 1, that is 5/3.  S1S is
                # read as NEQ_ANYC_SN of the site (1, 0, 4, 0, 3), so the move
                # fails in that site's NEQ_ANYC_S (it failed in ``s_value``,
                # at the S1S key, before single keys were read through sites).
                "engine.s_value(fam.single_key(fam.S1, 1, 4, 3)); "
                "engine._x[1, 3][0][1][0] = 1; "
                "engine.s_value(fam.single_key(fam.S1S, 1, 4, 3))",
                "moved root at FamilyKey(tag='NEQ_ANYC_S', component=1, l_g=0, l_b=4, r_g=0, "
                "r_b=3) is not divisible by r_b = 3",
            ),
            (
                # V2 = 1/3 needs c = 9; with c = 1 the scaled weight W(1) = V2 * c is 1/3.
                "engine = CoefficientEngine(ModelParams(F(1, 2), F(3, 2)), "
                "MomentSequence([F(1, 3)] * 5)); engine._c = 1; "
                "engine.correlator_coefficient(2, 2)",
                "scaled edge weight for multiplicity 2 is not an integer",
            ),
        ],
        ids=["order", "conflict", "divide", "moved", "edge"],
    )
    def test_guards_survive_optimized_mode(self, breach, message):
        script = "\n".join([
            "from fractions import Fraction as F",
            "from bipcorr import families as fam",
            "from bipcorr.model import ModelParams, MomentSequence",
            "from bipcorr.recurrence import CoefficientEngine",
            "assert False, 'not optimized'",
            "engine = CoefficientEngine(ModelParams(F(1, 2), F(1)), MomentSequence([F(1)] * 5))",
            "try:",
            *(f"    {line}" for line in breach.splitlines()),
            "except AssertionError as exc:",
            "    print('raised', exc)",
        ])
        src = str(Path(bipcorr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"raised {message}"), done.stdout

    def test_evaluated_key_count_is_frozen(self):
        # A rewrite of the equations that evaluates other sub-sums, or prunes
        # some, changes these counts: sites, and the family values they
        # hold.  The family-by-family engine evaluated 7081 keys before the
        # equations stopped reading keys that are zero by their shape, and
        # 4289 after; the engine of fourteen values per site held 444 sites,
        # 6216 values.  Two ints per site, by blocks and excess bounds,
        # evaluated every site of a bounded rectangle of each block: 714
        # sites, with the ones rule (G) makes 0, which no read needs and
        # which the bounds now leave out.
        engine = make_engine(1, count=10)
        engine.correlator_coefficient(10, 10)
        assert (len(engine._sites), engine.memo_size) == (532, 1064)

    @pytest.mark.parametrize("half", [5, 7])
    def test_table_costs_its_diagonal_key(self, half):
        # ``correlator_coefficient`` reads TOP with the shorter walk gray,
        # and every block such a TOP reads, the diagonal TOP reads too.  So
        # the whole table evaluates exactly the sites of its last entry.
        lone = make_engine(1, count=2 * half)
        lone.correlator_coefficient(2 * half, 2 * half)
        table = make_engine(1, count=2 * half)
        table.correlator_table(2 * half, 2 * half)
        assert sorted(table._sites) == sorted(lone._sites)

    def test_memo_holds_only_sites(self):
        # The engine holds sites and nothing else: each site its x and its
        # EQ_ANYC.  A single walk is the x and the EQ_ANYC of its site with
        # l_b = 0, and S1S and TOP are sums over sites.
        engine = make_engine(1, count=10)
        engine.correlator_table(10, 10)
        for key in [
            fam.single_key(fam.S1, 1, 9, 4),
            fam.single_key(fam.S1S, 2, 7, 3),
            fam.top_key(3, 6),
        ]:
            engine.s_value(key)
        items = list(engine.memo_items())
        assert len(items) == engine.memo_size == 2 * len(engine._sites)
        assert [key.tag for key, _ in items[1::2]] == [fam.EQ_ANYC] * len(engine._sites)
        for c in (1, 2):
            for l in range(9):
                for r in range(l + 1):
                    s1 = engine.s_value(fam.single_key(fam.S1, c, l, r))
                    assert s1 == engine.s_value(fam.double_key(fam.EQ_ANYC, c, l, 0, r, 0))

    def test_single_walk_upper_sums_cached_once(self):
        # The single walks beyond v never read the blue half-length of the
        # site peeled, so they must be one row per (opp, f), not one per
        # blue length as well: the ``pair`` row at ub = 0.  ``rooted`` rows
        # are keyed by (opp, fg) alone.
        engine = make_engine(1, count=14)
        engine.correlator_table(14, 14)
        singles = {key for key in engine._pair if key[2] == 0}
        assert singles == {(opp, f, 0) for opp in (1, 2) for f in range(1, 8)}
        assert all(len(key) == 2 for key in engine._rooted)

    def test_memo_order_is_frozen(self):
        # The keys in evaluation order and the number of upper row entries;
        # a rewrite that reads the same keys in another order changes them.
        # The hash was 78ce5d7f... over 600 cached upper sums when the memo
        # held fourteen values per site, evaluated depth first from a work
        # stack: the sites and their order are new, and each site now lists
        # its x and its EQ_ANYC.  Then it was 412d1e66... over (180, 450)
        # entries, until TOP was read with the shorter walk gray and the
        # sites that rule (G) makes 0 were left out.
        engine = make_engine(1, count=10)
        engine.correlator_table(10, 10)
        keys = repr([tuple(key) for key, _ in engine.memo_items()])
        entries = (
            sum(len(row) for row in engine._pair.values()),
            sum(len(row) for rows in engine._rooted.values() for by_ug in rows[1:] for row in by_ug),
        )
        assert (hashlib.sha256(keys.encode()).hexdigest(), entries) == (
            "c13779ca066c89bc8dac5490e47437dc1f806f66d351a075fb94793f6e2474b0",
            (140, 450),
        )

    def test_family_values_are_frozen(self):
        # Every single and double key with total half-length <= 8, the most
        # context 3's eight moments reach, and its value.  Printed by the
        # engine that evaluated one family per memo key.
        engine = make_engine(3, count=8)
        pairs = sorted((tuple(key), engine.s_value(key)) for key in every_key(8))
        assert len(pairs) == 14040
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
            "d46b5e285d2cefed413afb1f608398e4c20c4fc7767b9132e6cc1e8532fe5354"
        )


class TestUpperSums:
    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_rooted_at_blue_length_zero_is_single_walks(self, index):
        # The gray peel reads the single walks beyond v as ``pair`` at
        # ub = 0, and ``rooted`` at ub = 0 is them as well: with no blue walk
        # at v, the blue code is C(fb + 0 - 1, 0) = 1 for every fb.  So both
        # are the sum of the S1 at v, each times the gray code
        # C(f + vg - 1, f - 1), times the W of the cut edge.  A row holds
        # the entries some block reads, an entry (f, fb, u) only from a
        # block of total f + u + fb or more, so the moments bound them:
        # contexts 1 and 2 take 13 and reach every entry below, context 3
        # stops at its eight.
        reach = 8 if index == 3 else 13
        engine = make_engine(index, count=reach)
        for lb in (1, 2, 3):
            engine.s_value(fam.top_key(reach - lb, lb))
        weights = engine._weights
        for opp in (1, 2):
            for f in range(1, 5):
                for u in range(7):
                    single = sum(
                        math.comb(f + vg - 1, f - 1)
                        * engine.s_value(fam.single_key(fam.S1, opp, u, vg))
                        for vg in range(u + 1)
                    )
                    rows = [(weights[f], engine._pair[opp, f, 0][u])] if f + u < reach else []
                    rows += [
                        (weights[f + fb], engine._rooted[opp, f][fb][u][0])
                        for fb in (1, 2, 3)
                        if f + u + fb <= reach
                    ]
                    for weight, value in rows:
                        assert F(value, weight * engine._scale(u)) == single, (opp, f, u)


# Families whose blue walk is rooted at r or passes through r, where rule (B)
# of the module docstring holds.
_BLUE_AT_ROOT = frozenset({
    fam.EQ_C, fam.EQ_C_G, fam.EQ_C_R, fam.EQ_ANYC, fam.NEQ_C_R, fam.NEQ_C_RU,
    fam.NEQ_C_RD, fam.NEQ_ANYC_S, fam.NEQ_ANYC_SGD, fam.NEQ_ANYC_SN,
})
STRUCTURAL_CONTEXTS = {
    # The benchmark's exact context: every moment 11/7 or 13/7.
    "exact": (ModelParams(F(2, 3), F(5, 2)), MomentSequence([F(11, 7), F(13, 7)] * 4)),
    "gaussian": (ModelParams(F(1, 3), F(1)), moments_preset("gaussian:1", 8)),
}


class _BlueRootZeroSeeded(CoefficientEngine):
    """Writes 1 for the anyc of every site at r_b = 0 < l_b with total at
    most ``seeded_total``, and counts them in ``seeded``."""

    seeded_total = seeded = 0

    def _write(self, site, x, anyc):
        if site[4] == 0 < site[2] and site[1] + site[2] <= self.seeded_total:
            anyc = 1
            self.seeded += 1
        super()._write(site, x, anyc)


def zero_by_shape(max_total):
    """Every key with l_g + l_b <= max_total (r <= l) that rule (G) or (B) calls 0."""
    for key in every_key(max_total):
        if key.r_g == 0 < key.l_g or (key.tag in _BLUE_AT_ROOT and key.r_b == 0 < key.l_b):
            yield key


class TestStructuralZeros:
    """The keys the equations no longer read are 0 by their own equations."""

    @pytest.mark.parametrize("name", STRUCTURAL_CONTEXTS)
    def test_engine_evaluates_them_to_zero(self, name):
        engine = CoefficientEngine(*STRUCTURAL_CONTEXTS[name])
        keys = list(zero_by_shape(8))
        assert len(keys) > 5000
        assert [key for key in keys if engine.s_value(key) != 0] == []

    @pytest.mark.parametrize("name", STRUCTURAL_CONTEXTS)
    def test_oracle_weighs_them_zero(self, name):
        params, moments = STRUCTURAL_CONTEXTS[name]
        keys = list(zero_by_shape(5))
        assert [key for key in keys if family_total_weight(key, params, moments) != 0] == []

    @pytest.mark.parametrize("name", STRUCTURAL_CONTEXTS)
    def test_eq_c_unread_at_blue_root_zero(self, name):
        # At r_b = 0 < l_b a site stores NEQ_C as its x, and EQ_ANYC, which
        # (B) makes 0, as its anyc; EQ_C is not stored there (this test
        # seeded it when the memo held fourteen values per site).  TOP and
        # the ``pair`` rows read x there, and nothing reads that anyc: an
        # engine that writes 1 for it at the sites up to a total gives the
        # same n_{6,6}.  Seeded up to total 5, the sites at total 6 read the
        # seeded ones through their peels and upper rows; up to total 6,
        # TOP's own blocks are seeded as well.
        params, moments = STRUCTURAL_CONTEXTS[name]
        expected = CoefficientEngine(params, moments).correlator_coefficient(6, 6)
        for seeded_total in (5, 6):
            seeded = _BlueRootZeroSeeded(params, moments)
            seeded.seeded_total = seeded_total
            assert seeded.correlator_coefficient(6, 6) == expected, seeded_total
            assert seeded.seeded > 5

    @pytest.mark.parametrize("name", STRUCTURAL_CONTEXTS)
    def test_blue_rooted_elsewhere_is_not_zero(self, name):
        # (B) stops at NEQ_C: gray r -> v -> w -> v -> r and blue v -> w -> v
        # share the edge (v, w), and blue never visits r.
        params, moments = STRUCTURAL_CONTEXTS[name]
        key = fam.double_key(fam.NEQ_C, 1, 2, 1, 1, 0)
        value = CoefficientEngine(params, moments).s_value(key)
        assert value != 0 and value == family_total_weight(key, params, moments)


# Denominators that stress the engine's scale: alpha = 5/11 and p = 7/3 put
# 11 and 3 in the scale, gaussian:1/3 moments have denominators 9^j, and the
# coprime set has one new prime denominator per moment.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
AWKWARD_PARAMS = ModelParams(F(5, 11), F(7, 3))
AWKWARD_MOMENTS = {
    "gaussian": moments_preset("gaussian:1/3", 12),
    "coprime": MomentSequence([F(d + 1, d) for d in _PRIMES]),
}
# Printed by the Fraction engine that preceded the scaled-integer one.
AWKWARD_FROZEN = {
    "gaussian": {
        (12, 12): F(2974762738016669182863760, 1216502627758327264323298869),
        (14, 4): F(3726830803193926280, 2533066446277508676381),
    },
    "coprime": {
        (12, 12): F(
            23047363724845557297949209481008480579, 42836478993839165771700650266180
        ),
        (14, 4): F(16655106431587377440741697, 2386874076576007758740),
    },
}


class TestScaledIntegers:
    @pytest.mark.parametrize("name", AWKWARD_MOMENTS)
    def test_equals_oracle(self, name):
        moments = AWKWARD_MOMENTS[name]
        engine = CoefficientEngine(AWKWARD_PARAMS, moments)
        for k in range(2, 9, 2):
            for m in range(2, 11 - k, 2):
                expected = n_oracle(k, m, AWKWARD_PARAMS, moments)
                assert engine.correlator_coefficient(k, m) == expected, (k, m)

    @pytest.mark.parametrize("name", AWKWARD_MOMENTS)
    def test_frozen_deep_values(self, name):
        engine = CoefficientEngine(AWKWARD_PARAMS, AWKWARD_MOMENTS[name])
        for (k, m), expected in AWKWARD_FROZEN[name].items():
            assert engine.correlator_coefficient(k, m) == expected, (k, m)

    @pytest.mark.parametrize("index", CONTEXT_IDS)
    def test_scaled_sites_are_family_values(self, index):
        # The block reader crosscheck compares: every double family with
        # l_g + l_b <= 4, as its site's int over the engine's D_L.
        engine = make_engine(index)
        keys = [key for key in every_key(4) if key.tag in fam.DOUBLE_TAGS]
        for key in keys:
            scale, values = engine.scaled_site(recurrence.Site(*key[1:]))
            value = values[recurrence.SITE_TAGS.index(key.tag)]
            assert type(value) is int and F(value, scale) == engine.s_value(key), key
        assert len(keys) == 14 * 2 * 70

    @pytest.mark.parametrize("name", AWKWARD_MOMENTS)
    def test_memo_items_are_family_values(self, name):
        engine = CoefficientEngine(AWKWARD_PARAMS, AWKWARD_MOMENTS[name])
        engine.correlator_coefficient(6, 4)
        items = list(engine.memo_items())
        assert len(items) == engine.memo_size
        for key, value in items:
            assert type(value) is F and value == engine.s_value(key), key
