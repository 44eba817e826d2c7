"""End-to-end acceptance: all three routes agree and outputs are reproducible.

Each test certifies one headline guarantee of the package:

* the recurrence engine equals the enumeration oracle, both on full
  coefficients up to k + m = 14 and family by family up to total
  half-length 6, with exact rational equality;
* the smallest coefficient matches its closed form in every context;
* structural properties (parity, symmetry, part exchange, moment scaling)
  hold exactly;
* the Monte Carlo sampler is calibrated against the exact finite-size
  evaluator and converges to the engine's limit values as N grows;
* every CLI subcommand emits byte-identical output for fixed seeds, and
  ``simulate`` regardless of thread count;
* ``compute --kmax 14`` reproduces the benchmark's frozen reference bytes.

The Monte Carlo convergence test samples 2000 matrices at each of four sizes
up to N = 1600 and takes a few seconds on one core.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from bipcorr import cli
from bipcorr.cli import run_crosscheck
from bipcorr.model import ModelParams, MomentSequence
from bipcorr.recurrence import CoefficientEngine
from bipcorr.simulate import (
    EnsembleSpec,
    WeightDistribution,
    estimate_correlators,
    exact_finite_N,
)
from bipcorr.walks import n_oracle

from conftest import CONTEXT_IDS, context

EVEN_PAIRS = [
    (k, m) for k in range(2, 9, 2) for m in range(2, 9, 2) if k + m <= 10
]


@pytest.mark.parametrize("index", CONTEXT_IDS)
def test_engine_equals_oracle_on_all_even_pairs(index):
    params, moments = context(index)
    engine = CoefficientEngine(params, moments)
    for k, m in EVEN_PAIRS:
        got = engine.correlator_coefficient(k, m)
        want = n_oracle(k, m, params, moments)
        assert got == want, f"({k},{m}): engine={got} oracle={want}"


def _engine_equals_oracle_at_total(index, total):
    # Every even split of k + m = total; the oracle reaches it by enumerating
    # tree-skeleton walks only, and its profiles are shared by all contexts.
    params, moments = context(index, total // 2)
    engine = CoefficientEngine(params, moments)
    for k in range(2, total - 1, 2):
        got = engine.correlator_coefficient(k, total - k)
        want = n_oracle(k, total - k, params, moments)
        assert got == want, f"({k},{total - k}): engine={got} oracle={want}"


@pytest.mark.parametrize("index", CONTEXT_IDS)
def test_engine_equals_oracle_at_total_12(index):
    _engine_equals_oracle_at_total(index, 12)


@pytest.mark.parametrize("index", CONTEXT_IDS)
def test_engine_equals_oracle_at_total_14(index):
    _engine_equals_oracle_at_total(index, 14)


@pytest.mark.parametrize(
    "index, family_total, keys",
    [pytest.param(index, 4, 2059, id=str(index)) for index in CONTEXT_IDS]
    + [pytest.param(index, 5, 3661, id=f"{index}-total5") for index in CONTEXT_IDS]
    + [pytest.param(index, 6, 6052, id=f"{index}-total6") for index in CONTEXT_IDS],
)
def test_engine_equals_oracle_family_by_family(index, family_total, keys):
    # Doubles and the top family over l_g + l_b <= family_total, single-walk
    # families to l <= family_total + 1, every admissible (component, r_g,
    # r_b).  Totals 5 and 6 are the reach of `crosscheck --family-total 5`
    # and `--family-total 6`.
    params, moments = context(index, family_total + 1)
    engine = CoefficientEngine(params, moments)
    mismatches, lines = run_crosscheck(engine, max_total=2, family_total=family_total)
    assert mismatches == [], lines
    counted = next(line for line in lines if line.startswith("family keys checked:"))
    assert counted == f"family keys checked: {keys}"


@pytest.mark.parametrize("index", CONTEXT_IDS)
def test_smallest_coefficient_closed_form(index):
    params, moments = context(index)
    expected = 4 * params.alpha * (1 - params.alpha) * moments.moment(4) / params.p
    assert n_oracle(2, 2, params, moments) == expected
    assert CoefficientEngine(params, moments).correlator_coefficient(2, 2) == expected


class TestStructuralProperties:
    def test_parity_vanishing(self):
        params, moments = context(2)
        engine = CoefficientEngine(params, moments)
        for k in range(1, 13):
            for m in range(1, 13):
                if k + m <= 13 and (k % 2 != 0 or m % 2 != 0):
                    assert engine.correlator_coefficient(k, m) == 0, (k, m)

    def test_symmetry(self):
        params, moments = context(2)
        engine = CoefficientEngine(params, moments)
        for k, m in EVEN_PAIRS:
            assert engine.correlator_coefficient(k, m) == engine.correlator_coefficient(m, k)

    def test_part_exchange_invariance(self):
        _, moments = context(2)
        p = F(2)
        left = CoefficientEngine(ModelParams(F(1, 3), p), moments)
        right = CoefficientEngine(ModelParams(F(2, 3), p), moments)
        for k, m in EVEN_PAIRS:
            assert left.correlator_coefficient(k, m) == right.correlator_coefficient(k, m)

    @pytest.mark.parametrize("c", [F(2), F(1, 3)])
    def test_moment_scaling(self, c):
        # Rescaling the weight law by c multiplies V_2j by c^2j and every
        # coefficient n_{k,m} by c^(k+m).
        params, moments = context(2)
        scaled = MomentSequence(
            [c ** (2 * j) * v for j, v in enumerate(moments.values, start=1)]
        )
        base = CoefficientEngine(params, moments)
        rescaled = CoefficientEngine(params, scaled)
        for k, m in EVEN_PAIRS:
            assert rescaled.correlator_coefficient(k, m) == c ** (k + m) * (
                base.correlator_coefficient(k, m)
            )


def test_sampler_calibrated_against_exact_finite_size():
    # At N = 2 with p = 1 and unit weights the covariance is exactly 1/2;
    # the estimator must land within 4 standard errors for nearly all seeds.
    params = ModelParams(F(1, 2), F(1))
    assert exact_finite_N(2, params, (F(1), F(1), F(1)), 2, 2) == F(1, 2)
    hits = 0
    for seed in range(20):
        spec = EnsembleSpec(2, params, WeightDistribution("constant:1"), seed)
        est = estimate_correlators(spec, [(2, 2)], samples=10000)[0]
        if abs(est.mean - 0.5) <= 4 * est.stderr:
            hits += 1
    assert hits >= 19


def test_finite_size_estimates_converge_to_engine_limits(tmp_path):
    params = ModelParams(F(1, 2), F(4))
    engine = CoefficientEngine(params, MomentSequence([F(1)] * 3))
    pairs = [(2, 2), (4, 2)]
    limits = {pair: float(engine.correlator_coefficient(*pair)) for pair in pairs}

    dist = WeightDistribution("rademacher")
    rows = ["N,k,m,samples,batches,seed,mean,stderr"]
    at_largest = {}
    for size in (200, 400, 800, 1600):
        spec = EnsembleSpec(size, params, dist, 0)
        for est in estimate_correlators(spec, pairs, samples=2000):
            rows.append(
                f"{size},{est.k},{est.m},{est.samples},{est.batches},0,"
                f"{est.mean!r},{est.stderr!r}"
            )
            if size == 1600:
                at_largest[(est.k, est.m)] = est

    log = "\n".join(rows) + "\n"
    (tmp_path / "convergence.csv").write_text(log)
    print(log)
    assert len(rows) == 9

    for pair in pairs:
        est = at_largest[pair]
        assert est.stderr > 0
        distance = abs(est.mean - limits[pair])
        assert distance <= 3 * est.stderr, (
            f"{pair}: mean={est.mean} limit={limits[pair]} stderr={est.stderr}"
        )


class TestDeterministicOutputs:
    def run(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_every_subcommand_is_byte_identical(self, capsys):
        commands = [
            ["compute", "--kmax", "4", "--mmax", "4", "--alpha", "1/3", "--p", "2",
             "--moments", "gaussian:1"],
            ["compute", "--k", "2", "--m", "2", "--format", "json"],
            ["oracle", "--k", "2", "--m", "4", "--dump"],
            ["crosscheck", "--max-total", "4", "--family-total", "1"],
            ["simulate", "--n", "24", "--k", "2", "--m", "2", "--samples", "40",
             "--seed", "9", "--p", "3"],
            ["simulate", "sweep", "--n", "16,24", "--k", "4", "--m", "2",
             "--samples", "30", "--seed", "2", "--p", "2"],
        ]
        for argv in commands:
            # Only simulate takes --threads; its bytes must not depend on it.
            if argv[0] == "simulate":
                runs = [argv + ["--threads", t] for t in ("1", "2", "3")]
            else:
                runs = [argv] * 3
            outputs = []
            for run_argv in runs:
                code, out, err = self.run(capsys, run_argv)
                assert code == 0, (argv, err)
                outputs.append(out)
            assert outputs[0] == outputs[1] == outputs[2], argv


def test_compute_kmax14_matches_frozen_reference(tmp_path, capsys):
    # The benchmark's `exact` workload at seed 1: its reference bytes were
    # frozen before the engine was optimised, and are only read here.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "exact_seed1.csv"
    moments = "11/7,11/7,13/7,11/7,13/7,13/7,13/7,13/7,11/7,11/7,13/7,11/7,13/7,13/7"
    moments_file = tmp_path / "moments.json"
    moments_file.write_text(json.dumps({"even_moments": moments.split(",")}), encoding="utf-8")
    code = cli.main([
        "compute", "--kmax", "14", "--mmax", "14", "--alpha", "2/3", "--p", "5/2",
        "--moments-file", str(moments_file),
    ])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == reference.read_bytes()
