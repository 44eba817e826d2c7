"""Mutation checks: each hand-made mutant must make its tests fail.

Run from anywhere, with numpy and pytest installed:

    python tools/mutants.py

For each row the script copies the repository (without ``.git`` and caches)
to a temporary directory, requires the row's old text to occur exactly once
in its file, replaces it, and runs the row's pytest selector in the copy.
The selector must fail (pytest exit code 1); a selector that passes, that
collects nothing, or that runs over ``TIMEOUT_S`` seconds leaves the mutant
alive, and the script goes on with the next row.  A refactor that rewrites a
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
MOMENTS = "tests/test_simulate.py::TestTraceMoments"
# A selector still running after this many seconds leaves its mutant alive.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selector: str


ROWS = (
    # Scaled integers: the EQ_ANYC glue and the integral edge weight.
    Mutant(
        "glue-remainder-unchecked",
        ENGINE,
        "        if rest:\n",
        "        if False:\n",
        f"{GUARDS}::test_guards_survive_optimized_mode[divide]",
    ),
    Mutant(
        "glue-by-floor-division",
        ENGINE,
        "glued, rest = divmod(gray * blue, self._a[c])",
        "glued, rest = gray * blue // self._a[c], 0",
        f"{GUARDS}::test_guards_survive_optimized_mode[divide]",
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
    # Upper sums: the cache hit check, the rank the kernel derives from a
    # row, the check of each read against it, a row's codes and rule (B).
    Mutant(
        "red-upper-hit-unchecked",
        ENGINE,
        "self._upper(rank, upper, opp, fg, fb, ug, ub)\n                        elif entry[1] >= rank:",
        "self._upper(rank, upper, opp, fg, fb, ug, ub)\n                        elif False:",
        f"{GUARDS}::test_upper_sum_hit_guard[red]",
    ),
    Mutant(
        "gray-upper-hit-unchecked",
        ENGINE,
        "self._upper(rank, upper, opp, f, None, u, up_lb)\n                elif entry[1] >= rank:",
        "self._upper(rank, upper, opp, f, None, u, up_lb)\n                elif False:",
        f"{GUARDS}::test_upper_sum_hit_guard[gray]",
    ),
    Mutant(
        "red-upper-hit-lenient",
        ENGINE,
        "self._upper(rank, upper, opp, fg, fb, ug, ub)\n                        elif entry[1] >= rank:",
        "self._upper(rank, upper, opp, fg, fb, ug, ub)\n                        elif entry[1] > rank:",
        f"{GUARDS}::test_upper_sum_hit_guard[red]",
    ),
    Mutant(
        "gray-upper-hit-lenient",
        ENGINE,
        "self._upper(rank, upper, opp, f, None, u, up_lb)\n                elif entry[1] >= rank:",
        "self._upper(rank, upper, opp, f, None, u, up_lb)\n                elif entry[1] > rank:",
        f"{GUARDS}::test_upper_sum_hit_guard[gray]",
    ),
    Mutant(
        "upper-rank-drops-blue-length",
        ENGINE,
        "rank = (ug + (ub or 0)) << 5 | _UPPER_STAGE[name]",
        "rank = ug << 5 | _UPPER_STAGE[name]",
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    Mutant(
        "upper-rank-of-earlier-stage",
        ENGINE,
        "max(_STAGE[tag] for tag, _, _ in reads)",
        "min(_STAGE[tag] for tag, _, _ in reads)",
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    Mutant(
        "upper-read-unchecked",
        ENGINE,
        "                    if (ref_rank := (ug + (ub or 0)) << 5 | _STAGE[tag]) > rank:\n"
        "                        _order_violated(ref, ref_rank, rank)\n",
        "",
        f"{GUARDS}::test_upper_sum_read_guard",
    ),
    Mutant(
        "s1s-upper-codes-swapped",
        ENGINE,
        '"s1_s1s": ((fam.S1, _EITHER, None), (fam.S1S, _AT_V, None)),',
        '"s1_s1s": ((fam.S1, _AT_V, None), (fam.S1S, _EITHER, None)),',
        "tests/test_recurrence.py::TestAgainstEnumeration",
    ),
    Mutant(
        "upper-reads-blue-zero-keys",
        ENGINE,
        "if vb == 0 < ub and tag in _BLUE_AT_ROOT:",
        "if False:",
        f"{GUARDS}::test_evaluated_key_count_is_frozen",
    ),
    # Work stack: a read checks its rank before the memo, hit or miss.
    Mutant(
        "memo-hit-unchecked",
        ENGINE,
        "        ref = (fam.EQ_C, c, lg, lb, rg, rb)\n"
        "        if (ref_rank := (lg + lb) << 5 | _STAGE[fam.EQ_C]) >= rank:\n"
        "            _order_violated(ref, ref_rank, rank)\n",
        "        ref = (fam.EQ_C, c, lg, lb, rg, rb)\n",
        f"{GUARDS}::test_recursion_order_guard",
    ),
    # Structural zeros: a read is skipped only where its key is 0 by shape.
    Mutant(
        "top-skips-neq-c-at-blue-zero",
        ENGINE,
        "for tag in (fam.EQ_C, fam.NEQ_C) if rb or not lb else (fam.NEQ_C,):",
        "for tag in (fam.EQ_C, fam.NEQ_C) if rb or not lb else ():",
        "tests/test_recurrence.py::TestAgainstEnumeration::test_frozen_coefficients",
    ),
    Mutant(
        "gray-peel-empty-lower-off-by-one",
        ENGINE,
        "for u in range(0, l - r + 1) if f < r else (l - r,):",
        "for u in range(0, l - r + 1) if f < r else (l - r + 1,):",
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
    # Oracle: the census of single walks with a marked vertex, which gives
    # the pairs with an empty gray walk.
    Mutant(
        "marked-census-counts-root",
        ORACLE,
        "r_g = departures.pop(root, 0)",
        "r_g = departures.get(root, 0)",
        f"{MIRROR}::test_empty_walk_censuses_equal_walked_pairs",
    ),
    Mutant(
        "mirror-replaces-counts",
        ORACLE,
        "merged[profile] = merged.get(profile, 0) + count",
        "merged[profile] = count",
        f"{MIRROR}::test_empty_walk_censuses_equal_walked_pairs",
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
        "dump-keeps-unshared-pairs",
        ORACLE,
        "if _leaf(gray, blue, n1, n2)[1] > 0",
        "if _leaf(gray, blue, n1, n2)[1] >= 0",
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
        "chunk-columns-not-offset",
        SAMPLER,
        "cols = np.concatenate(sample_cols) + owner * n2",
        "cols = np.concatenate(sample_cols)",
        f"{MOMENTS}::test_chunk_equals_samples_alone",
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
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", row.selector],
                cwd=repo,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"timed out: pytest ran over {TIMEOUT_S} s"
    if done.returncode == 1:
        return "killed"
    tail = (done.stdout.strip().splitlines() or [""])[-1]
    return f"SURVIVED: pytest exit {done.returncode} ({tail})"


def main() -> int:
    failed = 0
    for row in ROWS:
        outcome = check(row)
        failed += outcome != "killed"
        print(f"{row.name}: {outcome}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
