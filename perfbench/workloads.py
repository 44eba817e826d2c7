"""The three gated workloads: inputs from a seed, the CLI calls of one repetition, output checks.

Each repetition is one closed-loop request through ``bipcorr.cli.main``: the
next starts only after the previous one has returned.  The program sees only
CLI flags and the files written here.

* ``exact``: ``compute --kmax 14 --mmax 14`` on seeded non-integer moments.
  Nearly all time is in the recurrence engine (one deep key, exact Fraction
  arithmetic); the oracle and the sampler do no work.
* ``verify``: ``crosscheck --max-total 10 --family-total 5`` in the same
  context.  Nearly all time is in the enumeration oracle; the engine is used
  breadth-first (thousands of shallow keys) instead of deep.
* ``montecarlo``: ``simulate`` at N=400 with 1000 samples, then at N=1600
  with 60 samples.  At N=400 drawing and per-sample overhead dominate, at
  N=1600 the dense SVD does; neither is a small share of the repetition, so
  a sampler change cannot win at one size and lose at the other unseen.

Every check runs outside the timed region.  A check never raises: it returns
the reason a repetition failed, or ``None``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1

# alpha and p of the exact and verify context; moments come from the seed.
ALPHA = "2/3"
P = "5/2"


def draw_moments(seed: int, count: int) -> list:
    """``count`` even moments V_2j, each 11/7 or 13/7, drawn from ``seed``.

    A fixed denominator and prime numerators keep the size of the exact
    arithmetic, and so the engine's cost, nearly the same for every seed;
    free choice of small rationals made it vary by a third between seeds.
    """
    rng = random.Random(seed)
    return [Fraction(rng.choice((11, 13)), 7) for _ in range(count)]


def write_moments(seed: int, workdir: Path, count: int = 14) -> tuple:
    """(moments, path of the ``--moments-file`` JSON holding them)."""
    moments = draw_moments(seed, count)
    path = workdir / f"moments-{seed}-{count}.json"
    path.write_text(json.dumps({"even_moments": [str(v) for v in moments]}), encoding="utf-8")
    return moments, path


def import_program(src: Path):
    """Import ``bipcorr`` from ``src`` and nowhere else; raises ImportError."""
    sys.path.insert(0, str(src))
    bipcorr = importlib.import_module("bipcorr")
    if not Path(bipcorr.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"bipcorr was imported from {bipcorr.__file__}, not from {src}")
    importlib.import_module("bipcorr.cli")
    return bipcorr


def warm_up(cli) -> None:
    """One small call per engine, so lazy BLAS and Philox set-up is done."""
    for argv in (
        ["compute", "--k", 2, "--m", 2],
        ["simulate", "--n", 40, "--k", 2, "--m", 2, "--p", 4, "--samples", 4],
    ):
        code, _, err = run_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up call {argv} exited {code}: {err.strip()}")


def run_cli(cli, argv: list):
    """(exit code, stdout text, stderr text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def cli_has_flag(cli, subcommand: str, flag: str) -> bool:
    _, text, _ = run_cli(cli, [subcommand, "--help"])
    return flag in text.split()


def _failed_call(outputs: list) -> Optional[str]:
    for code, _, err in outputs:
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
    return None


class Exact:
    name = "exact"

    ORACLE_TOTAL = 10

    def __init__(self, seed: int, workdir: Path, kmax: int = 14):
        self.seed = seed
        self.kmax = kmax
        self.moments, self.moments_file = write_moments(seed, workdir, kmax)
        reference = REFERENCE_DIR / f"exact_seed{seed}.csv"
        self.reference = (
            reference.read_bytes() if kmax == 14 and reference.exists() else None
        )
        self.expected: dict = {}

    def calls(self) -> list:
        return [[
            "compute", "--kmax", self.kmax, "--mmax", self.kmax,
            "--alpha", ALPHA, "--p", P, "--moments-file", self.moments_file,
        ]]

    def prepare(self, bipcorr) -> None:
        """Oracle values for every entry with k+m <= ORACLE_TOTAL."""
        params = bipcorr.model.ModelParams(Fraction(ALPHA), Fraction(P))
        moments = bipcorr.model.MomentSequence(self.moments)
        for k in range(1, self.kmax + 1):
            for m in range(1, self.kmax + 1):
                if k + m <= self.ORACLE_TOTAL:
                    self.expected[(k, m)] = bipcorr.walks.n_oracle(k, m, params, moments)

    def check(self, outputs: list) -> Optional[str]:
        failed = _failed_call(outputs)
        if failed:
            return failed
        text = outputs[0][1]
        if self.reference is not None and text.encode("utf-8") != self.reference:
            return f"output differs from reference/exact_seed{self.seed}.csv"
        try:
            rows = text.strip().split("\n")
            header = rows[0].split(",")
            table = {}
            for row in rows[1:]:
                cells = row.split(",")
                k = int(cells[0])
                for m, cell in zip(header[1:], cells[1:]):
                    table[(k, int(m))] = Fraction(cell)
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            return f"unparseable table: {exc}"
        if len(table) != self.kmax * self.kmax:
            return f"table has {len(table)} entries, want {self.kmax * self.kmax}"
        for (k, m), value in table.items():
            if (k % 2 or m % 2) and value != 0:
                return f"odd entry ({k},{m}) is {value}, want 0"
            if value != table.get((m, k)):
                return f"entry ({k},{m}) differs from ({m},{k})"
            if (k, m) in self.expected and value != self.expected[(k, m)]:
                return f"entry ({k},{m}) is {value}, oracle gives {self.expected[(k, m)]}"
        return None


class Verify:
    name = "verify"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        max_total: int = 10,
        family_total: int = 5,
        expect_pairs: int = 10,
        expect_keys: int = 3661,
    ):
        _, self.moments_file = write_moments(seed, workdir)
        self.max_total = max_total
        self.family_total = family_total
        self.expect = (
            f"coefficient pairs checked: {expect_pairs}",
            f"family keys checked: {expect_keys}",
        )

    def calls(self) -> list:
        return [[
            "crosscheck", "--max-total", self.max_total, "--family-total", self.family_total,
            "--alpha", ALPHA, "--p", P, "--moments-file", self.moments_file,
        ]]

    def prepare(self, bipcorr) -> None:
        pass

    def check(self, outputs: list) -> Optional[str]:
        failed = _failed_call(outputs)
        if failed:
            return failed
        lines = outputs[0][1].strip().split("\n")
        if lines[-1] != "OK":
            return f"last line is {lines[-1]!r}, want 'OK'"
        for line in self.expect:
            if line not in lines:
                return f"missing report line {line!r}"
        return None


class MonteCarlo:
    name = "montecarlo"

    K, M, P, LIMIT_STDERRS = 4, 2, "4", 5

    def __init__(self, seed: int, workdir: Path, sizes: tuple = ((400, 1000), (1600, 60))):
        self.seed = seed
        self.sizes = sizes
        self.threads_flag = True
        self.limit: Optional[Fraction] = None
        self.first: Optional[list] = None

    def calls(self) -> list:
        threads = ["--threads", 1] if self.threads_flag else []
        return [
            [
                "simulate", "--n", n, "--k", self.K, "--m", self.M, "--p", self.P,
                "--samples", samples, "--seed", self.seed, *threads,
            ]
            for n, samples in self.sizes
        ]

    def prepare(self, bipcorr) -> None:
        """The engine's limit n_{4,2} at alpha=1/2, p=4, rademacher weights (9/16)."""
        self.threads_flag = cli_has_flag(bipcorr.cli, "simulate", "--threads")
        params = bipcorr.model.ModelParams(Fraction(1, 2), Fraction(self.P))
        moments = bipcorr.model.moments_preset("rademacher", (self.K + self.M) // 2)
        engine = bipcorr.recurrence.CoefficientEngine(params, moments)
        self.limit = engine.correlator_coefficient(self.K, self.M)

    def check(self, outputs: list) -> Optional[str]:
        failed = _failed_call(outputs)
        if failed:
            return failed
        texts = [text for _, text, _ in outputs]
        if self.first is None:
            self.first = texts
        elif texts != self.first:
            return "same seed gave different output bytes"
        for (n, _), text in zip(self.sizes, texts):
            try:
                record = json.loads(text)
                mean, stderr = float(record["mean"]), float(record["stderr"])
            except (ValueError, KeyError, TypeError) as exc:
                return f"N={n}: unparseable output: {exc}"
            if abs(mean - float(self.limit)) > self.LIMIT_STDERRS * stderr:
                return (
                    f"N={n}: mean {mean} is more than {self.LIMIT_STDERRS} stderr "
                    f"({stderr}) from {self.limit}"
                )
        return None


WORKLOADS = {cls.name: cls for cls in (Exact, Verify, MonteCarlo)}
