"""Mutation checks: each hand-made mutant must make its tests fail.

Run from anywhere, with numpy and pytest installed:

    python tools/mutants.py

First the script runs every distinct selector once, in one pytest call on an
unmutated copy of the repository (without ``.git`` and caches).  A selector
that fails there would count each of its mutants as killed, so if that run
does not pass, the script says so and exits 1 before any mutant.

For each row the script then copies the repository to a temporary
directory, requires the row's old text to occur exactly once in its file,
replaces it, and runs the row's pytest selector in the copy.  The selector
must fail (pytest exit code 1); a selector that passes, that collects
nothing, or that runs over ``TIMEOUT_S`` seconds leaves the mutant alive,
and the script goes on with the next row.  A refactor that rewrites a
mutated line therefore has to update its row in the open.  The exit code is
0 only if every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ENGINE = "src/bipcorr/recurrence.py"
GUARDS = "tests/test_recurrence.py::TestMemo"
ORACLE = "src/bipcorr/walks.py"
MIRROR = "tests/test_walks.py::TestPartMirror"
SAMPLER = "src/bipcorr/simulate.py"
CLI = "src/bipcorr/cli.py"
MOMENTS = "tests/test_simulate.py::TestTraceMoments"
FINITE = "tests/test_simulate.py::TestExactFiniteN"
ENTRIES = "tests/test_simulate.py::TestSampleMatrix"
STREAM = "tests/test_simulate.py::TestEstimates::test_chunk_stream_equals_samples_alone"
# A selector still running after this many seconds leaves its mutant alive.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selector: str


ROWS = (
    # Scaled integers: the exact divisions of the EQ_ANYC glue and of the
    # moved blue root, and the integral edge weight.
    Mutant(
        "glue-remainder-unchecked",
        ENGINE,
        "    if rest:\n",
        "    if False:\n",
        f"{GUARDS}::test_guards_survive_optimized_mode[divide]",
    ),
    Mutant(
        "glue-by-floor-division",
        ENGINE,
        'glue = _exact(gray * blue, self._a[c], "glue", (fam.EQ_ANYC, *key), f"the root factor a_{c}")',
        "glue = gray * blue // self._a[c]",
        f"{GUARDS}::test_guards_survive_optimized_mode[divide]",
    ),
    Mutant(
        "moved-root-remainder-unchecked",
        ENGINE,
        "    if rest:\n",
        "    if False:\n",
        f"{GUARDS}::test_guards_survive_optimized_mode[moved]",
    ),
    Mutant(
        "edge-weight-unchecked",
        ENGINE,
        "            if scaled.denominator != 1:\n",
        "            if False:\n",
        f"{GUARDS}::test_guards_survive_optimized_mode[edge]",
    ),
    Mutant(
        "scale-without-moment-lcm",
        ENGINE,
        "        self._c = Fraction(params.p).numerator * math.lcm(\n"
        "            *(v.denominator for v in moments.values)\n"
        "        )\n",
        "        self._c = Fraction(params.p).numerator\n",
        "tests/test_recurrence.py::TestScaledIntegers",
    ),
    Mutant(
        "scale-q-to-the-L",
        ENGINE,
        "return self._q ** (total + 1) * self._c**total",
        "return self._q ** total * self._c**total",
        "tests/test_recurrence.py::TestSingleWalkValues",
    ),
    # Moving the blue root: the departures off r and beyond v.
    Mutant(
        "s1s-departures-not-doubled",
        ENGINE,
        "s1 * (2 * l - r)",
        "s1 * (l - r)",
        "tests/test_recurrence.py::TestSingleWalkValues",
    ),
    Mutant(
        "rho-with-gray-length",
        ENGINE,
        "moved = 2 * lb - rb",
        "moved = 2 * lg - rb",
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    Mutant(
        "ru-weight-without-fb",
        ENGINE,
        "up += (2 * ub + fb) * term",
        "up += 2 * ub * term",
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    Mutant(
        "neq-anyc-sgd-and-sn-swapped",
        ENGINE,
        "visit_g, empty = (visit, 0) if lg else (0, visit)",
        "visit_g, empty = (0, visit) if lg else (visit, 0)",
        f"{GUARDS}::test_family_values_are_frozen",
    ),
    # Upper sums: rule (B).
    Mutant(
        "upper-reads-blue-zero-keys",
        ENGINE,
        "site[_EQ_C] + site[_NEQ_C] if vb or not ub else site[_NEQ_C]",
        "site[_EQ_C] + site[_NEQ_C]",
        "tests/test_recurrence.py::TestStructuralZeros::test_eq_c_unread_at_blue_root_zero",
    ),
    Mutant(
        "rooted-reads-blue-zero-sites",
        ENGINE,
        "for vb in range(ub > 0, ub + 1):",
        "for vb in range(0, ub + 1):",
        f"{GUARDS}::test_evaluated_key_count_is_frozen",
    ),
    # Red peel: blue may leave r last by another edge than the cut edge.
    Mutant(
        "red-blue-code-forces-last-return",
        ENGINE,
        "(fb, math.comb(rb, fb), range(",
        "(fb, math.comb(rb - 1, fb - 1), range(",
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    # Recursion order: every push is checked, a reference of equal rank is
    # refused, and a site with l_b = 0 ranks before the others at its total.
    Mutant(
        "push-check-allows-equal-rank",
        ENGINE,
        "            if ref_rank >= rank:\n",
        "            if ref_rank > rank:\n",
        f"{GUARDS}::test_guards_survive_optimized_mode[order]",
    ),
    Mutant(
        "rank-without-blue-bit",
        ENGINE,
        "return (site[1] + site[2]) << 1 | (site[2] > 0)",
        "return (site[1] + site[2]) << 1",
        GUARDS,
    ),
    # The peels are ordered by construction; a loop range that reaches the
    # key's own total still fails, in ``math.comb`` or in ``_value``.
    Mutant(
        "gray-cut-from-zero",
        ENGINE,
        "        for f in range(1, rg + 1 - (lb > 0)):\n",
        "        for f in range(0, rg + 1 - (lb > 0)):\n",
        "tests/test_recurrence.py::TestSingleWalkValues",
    ),
    Mutant(
        "red-cut-from-zero",
        ENGINE,
        "        for fg in range(1, rg + 1):\n",
        "        for fg in range(0, rg + 1):\n",
        "tests/test_recurrence.py::TestAgainstEnumeration::test_shared_root_shared_edge_spot_value",
    ),
    Mutant(
        "gray-lower-from-minus-one",
        ENGINE,
        "range(0, lg - rg + 1) if f < rg",
        "range(-1, lg - rg + 1) if f < rg",
        "tests/test_recurrence.py::TestDeepRegressions",
    ),
    # The gray peel: a lower site with l_b > 0 and no gray walk is not read,
    # and the single walks beyond v are ``rooted`` at ub = 0.  Reading that
    # site gives the same values and the same memo keys (the upper sums read
    # each such site anyway), but evaluates it earlier.
    Mutant(
        "gray-peel-reads-empty-lower-site",
        ENGINE,
        "for f in range(1, rg + 1 - (lb > 0)):",
        "for f in range(1, rg + 1):",
        f"{GUARDS}::test_memo_order_is_frozen",
    ),
    Mutant(
        "single-upper-at-blue-half-length-one",
        ENGINE,
        "self._rooted(opp, f, 1, u, 0)",
        "self._rooted(opp, f, 1, u, 1)",
        "tests/test_recurrence.py::TestSingleWalkValues",
    ),
    # Structural zeros: a read is skipped only where its key is 0 by shape.
    Mutant(
        "top-skips-neq-c-at-blue-zero",
        ENGINE,
        "if rb or not lb else site[_NEQ_C]",
        "if rb or not lb else 0",
        "tests/test_recurrence.py::TestAgainstEnumeration::test_frozen_coefficients",
    ),
    Mutant(
        "top-reads-eq-c-at-blue-zero",
        ENGINE,
        "total += site[_EQ_C] + site[_NEQ_C] if rb or not lb else site[_NEQ_C]",
        "total += site[_EQ_C] + site[_NEQ_C]",
        "tests/test_recurrence.py::TestStructuralZeros::test_eq_c_unread_at_blue_root_zero",
    ),
    Mutant(
        "gray-peel-empty-lower-off-by-one",
        ENGINE,
        "for u in range(0, lg - rg + 1) if f < rg else (lg - rg,):",
        "for u in range(0, lg - rg + 1) if f < rg else (lg - rg + 1,):",
        "tests/test_recurrence.py::TestSingleWalkValues",
    ),
    # Oracle: the part mirror of the censuses and the O(1) tree guard.
    Mutant(
        "mirror-keeps-vertex-counts",
        ORACLE,
        "{(n2, n1, totals): count for",
        "{(n1, n2, totals): count for",
        MIRROR,
    ),
    Mutant(
        "mirror-keeps-component",
        ORACLE,
        "lambda tag, component, r_g, r_b: (tag, 3 - component, r_g, r_b)",
        "lambda tag, component, r_g, r_b: (tag, component, r_g, r_b)",
        MIRROR,
    ),
    Mutant(
        "leaf-tree-guard-off",
        ORACLE,
        "    if n1 + n2 != len(counts) + 1:\n",
        "    if False:\n",
        "tests/test_walks.py::TestLeafProfiles::test_cyclic_pair_rejected",
    ),
    # Oracle: each profile weighed as an int times D_L, one Fraction per family.
    Mutant(
        "weight-sum-wrong-scale",
        ORACLE,
        "return Fraction(total, scale(half_length))",
        "return Fraction(total, scale(half_length + 1))",
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    Mutant(
        "block-wrong-scale",
        ORACLE,
        "return scale(half_length), slots",
        "return scale(half_length + 1), slots",
        "tests/test_walks.py::TestWeights::test_double_blocks_are_family_values",
    ),
    Mutant(
        "weight-integrality-unchecked",
        ORACLE,
        "        if scaled.denominator != 1:\n",
        "        if False:\n",
        "tests/test_walks.py::TestWeights::test_non_integral_scale_rejected",
    ),
    # Oracle: the count by tree class, W(x) = K d_x divided by |Aut|, with
    # the blue roots summed by side of the first gray edge.
    Mutant(
        "orbits-not-divided-by-aut",
        ORACLE,
        "tree.den * tree.aut",
        "tree.den",
        f"{MIRROR}::test_double_censuses_equal_both_parts",
    ),
    Mutant(
        "blue-walks-not-by-root-degree",
        ORACLE,
        '(("eq", r_b), ("up", upper),',
        '(("eq", 1), ("up", upper),',
        f"{MIRROR}::test_double_censuses_equal_both_parts",
    ),
    Mutant(
        "vertex-factor-d-factorial",
        ORACLE,
        "return factorial(d - 1) if d else 1",
        "return factorial(d) if d else 1",
        "tests/test_walks.py::TestTreeClasses::test_walk_count_formula",
    ),
    Mutant(
        "upper-and-down-swapped",
        ORACLE,
        '("up", upper), ("down", 2 * l_b - r_b - upper)',
        '("up", 2 * l_b - r_b - upper), ("down", upper)',
        f"{MIRROR}::test_double_censuses_equal_both_parts",
    ),
    # Oracle: the coefficient census is the EQ_C and NEQ_C buckets of the
    # family census, and --dump lists the pairs that share an edge.
    Mutant(
        "essential-census-reads-eq-c-only",
        ORACLE,
        "if tag == fam.EQ_C or tag == fam.NEQ_C:",
        "if tag == fam.EQ_C:",
        "tests/test_walks.py::TestEssentialCensus::test_equals_walked_essential_pairs",
    ),
    Mutant(
        "essential-census-keeps-odd-lengths",
        ORACLE,
        "if k < 1 or m < 1 or k % 2 != 0 or m % 2 != 0:",
        "if k < 1 or m < 1:",
        f"{MIRROR}::test_double_censuses_equal_both_parts",
    ),
    Mutant(
        "dump-keeps-unshared-pairs",
        ORACLE,
        "if _leaf(gray, counts, blue, n1, n2)[1] > 0",
        "if _leaf(gray, counts, blue, n1, n2)[1] >= 0",
        "tests/test_walks.py::TestTreePruning::test_oracle_dump_bytes_frozen",
    ),
    # Sampler: the Gram matrix of the columns from pairs of entries in one
    # row, and the chunk laid out block-diagonally with traces split by block.
    Mutant(
        "gram-upper-not-merged",
        SAMPLER,
        "keys, upper = _merge(\n"
        "        cols[first] * width + cols[second], values[first] * values[second], width * width\n"
        "    )\n",
        "keys, upper = cols[first] * width + cols[second], values[first] * values[second]\n",
        f"{MOMENTS}::test_block_with_four_cycle",
    ),
    Mutant(
        "gram-upper-counted-once",
        SAMPLER,
        "+ 2.0 * np.bincount(keys // (n2 * width), weights=upper * upper, minlength=count)",
        "+ np.bincount(keys // (n2 * width), weights=upper * upper, minlength=count)",
        f"{MOMENTS}::test_block_with_column_of_degree_three",
    ),
    Mutant(
        "chunk-upper-split-by-part-1",
        SAMPLER,
        "np.bincount(keys // (n2 * width),",
        "np.bincount(keys // (n1 * width),",
        f"{MOMENTS}::test_chunk_equals_samples_alone",
    ),
    # Sampler: the chain B_j = X B_(j-1) (odd j, rows in part 1) and
    # B_j = X^T B_(j-1) (even j, rows in part 2) behind Tr(H^j) from j = 3.
    Mutant(
        "chain-even-link-uses-x",
        SAMPLER,
        "((cols, rows, values), n2)",
        "((rows, cols, values), n2)",
        f"{MOMENTS}::test_routes_agree_on_even_orders",
    ),
    Mutant(
        "chain-odd-trace-split-by-part-2",
        SAMPLER,
        "((rows, cols, values), n1)",
        "((rows, cols, values), n2)",
        f"{MOMENTS}::test_chunk_equals_samples_alone[10]",
    ),
    # Sampler: a chunk drawn at once, one Binomial(c * n1 * n2, p / N) count
    # over all its cells, sorted, scaled, laid out block-diagonally, and cut
    # off after the last sample.
    Mutant(
        "count-drawn-over-one-block",
        SAMPLER,
        "count = int(rng.binomial(cells, spec.edge_probability))",
        "count = int(rng.binomial(n1 * n2, spec.edge_probability))",
        f"{ENTRIES}::test_edge_counts_of_a_chunk_are_independent",
    ),
    Mutant(
        "entries-not-scaled",
        SAMPLER,
        "values = spec.dist.sample(rng, count) / spec.weight_scale",
        "values = spec.dist.sample(rng, count)",
        f"{ENTRIES}::test_entry_values",
    ),
    Mutant(
        "entries-unsorted",
        SAMPLER,
        "flat = np.sort(rng.choice(cells, size=count, replace=False, shuffle=False))",
        "flat = rng.choice(cells, size=count, replace=False, shuffle=True)",
        f"{ENTRIES}::test_entries_distinct_in_block_row_major",
    ),
    Mutant(
        "chunk-columns-not-offset",
        SAMPLER,
        "    cols += rows // n1 * n2\n",
        "",
        f"{ENTRIES}::test_entries_distinct_in_block_row_major",
    ),
    Mutant(
        "chunk-cells-split-by-wrong-block",
        SAMPLER,
        "cols += rows // n1 * n2",
        "cols += rows // n2 * n2",
        f"{ENTRIES}::test_entries_distinct_in_block_row_major",
    ),
    Mutant(
        "last-chunk-not-truncated",
        SAMPLER,
        "count = min(chunk, samples - start)",
        "count = chunk",
        STREAM,
    ),
    # Sampler: the guards of the exact finite-size evaluator and of the
    # estimator, each at its boundary value.
    Mutant(
        "finite-n-cap-excludes-six",
        SAMPLER,
        "    if N > 6:\n",
        "    if N >= 6:\n",
        f"{FINITE}::test_largest_size_equals_float_enumeration",
    ),
    Mutant(
        "finite-n-rejects-one",
        SAMPLER,
        '    """\n    if N < 1:\n',
        '    """\n    if N <= 1:\n',
        f"{FINITE}::test_single_vertex_has_an_empty_part",
    ),
    Mutant(
        "finite-n-rejects-first-moment",
        SAMPLER,
        "\n    if k < 1 or m < 1:\n",
        "\n    if k <= 1 or m < 1:\n",
        f"{FINITE}::test_first_moment_vanishes",
    ),
    Mutant(
        "estimate-rejects-first-moment",
        SAMPLER,
        "        if k < 1 or m < 1:\n",
        "        if k <= 1 or m < 1:\n",
        "tests/test_simulate.py::TestEstimates::test_pair_with_first_moment_is_exact_zero",
    ),
    # Crosscheck: the coefficient comparison counts a mismatch.
    Mutant(
        "crosscheck-ignores-coefficients",
        CLI,
        "            if got != want:\n"
        "                mismatches.append((f\"coefficient",
        "            if False:\n"
        "                mismatches.append((f\"coefficient",
        "tests/test_cli.py::TestCrosscheck::test_tampered_coefficient_detected",
    ),
    # Crosscheck: the double families, one (l_g, l_b) block at a time, a slot
    # the census lacks reading 0, reported in key order.
    Mutant(
        "crosscheck-ignores-double-families",
        CLI,
        "                            if got * oracle_scale != want * engine_scale:\n",
        "                            if False:\n",
        "tests/test_cli.py::TestCrosscheck::test_tampered_engine_detected",
    ),
    Mutant(
        "crosscheck-skips-slots-missing-from-census",
        CLI,
        "                            want = oracle.get((tag, component, r_g, r_b), 0)\n",
        "                            if (tag, component, r_g, r_b) not in oracle:\n"
        "                                continue\n"
        "                            want = oracle[(tag, component, r_g, r_b)]\n",
        "tests/test_cli.py::TestCrosscheck::test_slot_missing_from_census_detected",
    ),
    Mutant(
        "crosscheck-mismatches-in-block-order",
        CLI,
        "    double_mismatches.sort()\n",
        "",
        "tests/test_cli.py::TestCrosscheck::test_mismatches_reported_in_key_order",
    ),
    # Model: a negative even moment is rejected before any computation.
    Mutant(
        "negative-moment-accepted",
        "src/bipcorr/model.py",
        "        if value < 0:\n",
        "        if False:\n",
        "tests/test_cli.py::TestCrosscheck::test_negative_moment_exit_config",
    ),
)


def _copy_repo(dest: Path) -> Path:
    target = dest / "repo"
    shutil.copytree(
        ROOT,
        target,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".benchmarks", ".work"),
    )
    return target


def _pytest(repo: Path, *selectors: str):
    """Run ``selectors`` in one pytest call in ``repo``: its exit code, None
    if it ran over ``TIMEOUT_S`` seconds, and the last line of its output."""
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selectors],
            cwd=repo,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"ran over {TIMEOUT_S} s"
    return done.returncode, (done.stdout.strip().splitlines() or [""])[-1]


def check(row: Mutant) -> str:
    """'killed', or why the mutant is not: 'stale ...', 'timed out ...' or
    'SURVIVED ...'."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        repo = _copy_repo(Path(tmp))
        path = repo / row.path
        text = path.read_text(encoding="utf-8")
        found = text.count(row.old)
        if found != 1:
            return f"stale: old text occurs {found} times in {row.path}"
        path.write_text(text.replace(row.old, row.new), encoding="utf-8")
        code, tail = _pytest(repo, row.selector)
    if code == 1:
        return "killed"
    if code is None:
        return f"timed out: pytest {tail}"
    return f"SURVIVED: pytest exit {code} ({tail})"


def main() -> int:
    selectors = dict.fromkeys(row.selector for row in ROWS)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        code, tail = _pytest(_copy_repo(Path(tmp)), *selectors)
    if code != 0:
        print(f"unmutated copy: {len(selectors)} selectors do not pass: pytest exit {code} ({tail})")
        return 1
    print(f"unmutated copy: {len(selectors)} selectors pass ({tail})", flush=True)
    failed = 0
    for row in ROWS:
        outcome = check(row)
        failed += outcome != "killed"
        print(f"{row.name}: {outcome}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
