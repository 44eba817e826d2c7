"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench/test_harness.py"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import worker
from tracing import Hooks, HookSpec, Span, Tracer, self_times, summarize
from workloads import Exact, MonteCarlo, Verify, import_program

BIPCORR = import_program(worker.SRC)


def test_self_times_subtract_the_children():
    root = Span("cli.main", "cli", None, 0.0, 10.0)
    engine = Span("recurrence.s_value", "recurrence", root, 1.0, 4.0)
    nested = Span("recurrence.s_value", "recurrence", engine, 2.0, 3.0)
    oracle = Span("walks.family_total_weight", "walks", root, 5.0, 9.0)
    oracle_a = Span("walks.n_oracle", "walks", oracle, 6.0, 7.0)
    oracle_b = Span("walks.n_oracle", "walks", oracle, 7.0, 8.5)
    spans = [root, engine, nested, oracle, oracle_a, oracle_b]

    own = {id(span): value for span, value in self_times(spans)}
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(engine)] == pytest.approx(2.0)
    assert own[id(oracle)] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(root.duration)

    summary = summarize(spans)
    assert summary["cli"].self_s == pytest.approx(3.0)
    # A layer calling itself is busy once, not twice.
    assert summary["recurrence"].busy_s == pytest.approx(3.0)
    assert summary["recurrence"].entries == 1
    assert summary["walks"].busy_s == pytest.approx(4.0)
    assert summary["walks"].entry_s == {"walks.family_total_weight": pytest.approx(4.0)}


def test_tracer_nests_spans_and_hooks_restore_originals():
    clock = iter(range(100)).__next__
    tracer = Tracer(clock=clock)
    original = BIPCORR.walks.n_oracle
    specs = (HookSpec("walks", "bipcorr.walks", "n_oracle"), HookSpec("walks", "bipcorr.walks", "gone"))
    with Hooks(tracer, layers.PACKAGE, specs, ()) as hooks:
        assert BIPCORR.walks.n_oracle is not original
        tracer.call("cli.main", "cli", "", BIPCORR.walks.n_oracle, 2, 2,
                    BIPCORR.model.ModelParams(1, 1), BIPCORR.model.MomentSequence([1, 1]))
    assert BIPCORR.walks.n_oracle is original
    assert "bipcorr.walks.gone" in hooks.missing
    root, child = tracer.spans
    assert (root.start, child.start, child.end, root.end) == (0, 1, 2, 3)
    assert child.parent is root and child.name == "walks.n_oracle"


def test_missing_hooks_degrade_to_null(monkeypatch, tmp_path):
    monkeypatch.delattr(BIPCORR.recurrence.CoefficientEngine, "memo_items")
    monkeypatch.delattr(BIPCORR.walks, "family_total_weight")
    workload = Exact(3, tmp_path, kmax=4)
    workload.prepare(BIPCORR)
    rep, metrics = worker.traced_rep(BIPCORR, workload)
    assert rep["failure"] is None
    assert metrics.values["recurrence.zero_key_share"] is None
    assert "memo_items" in metrics.reasons["recurrence.zero_key_share"]
    assert metrics.values["walks.family_s"] is None
    assert metrics.values["recurrence.memo_keys"] > 0
    assert metrics.values["recurrence.calls"] == 16

    monkeypatch.delattr(BIPCORR.simulate, "trace_moments")
    series = layers.MetricSet()
    layers._sampler(BIPCORR, 1, series, layers.Budget(time.perf_counter() + 60))
    assert series.values["simulate.moments_s.N400"] is None
    assert series.values["simulate.draw_share.N1600"] is None
    assert "trace_moments" in series.reasons["simulate.draw_share.N1600"]


def test_series_steps_past_the_deadline_degrade_to_null():
    series = layers.MetricSet()
    budget = layers.Budget(time.perf_counter() - 1)
    layers._census(BIPCORR, series, budget)
    assert series.values["walks.census_s.k12"] is None
    assert "deadline" in series.reasons["walks.census_s.k12"]
    with pytest.raises(layers.OutOfTime):
        layers.Budget(time.perf_counter() + 60).allow("a step", 120.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, path: Exact(seed, path, kmax=6),
        lambda seed, path: Verify(seed, path, 6, 2, expect_pairs=3, expect_keys=466),
        lambda seed, path: MonteCarlo(seed, path, sizes=((100, 100), (200, 50))),
    ],
    ids=["exact", "verify", "montecarlo"],
)
def test_smoke_run_of_each_workload(make, tmp_path):
    workload = make(2, tmp_path)
    workload.prepare(BIPCORR)
    assert worker.run_rep(BIPCORR, workload)["failure"] is None
    rep, metrics = worker.traced_rep(BIPCORR, workload)
    assert rep["failure"] is None
    assert rep["accounted_share"] == pytest.approx(1.0)
    assert all(value is not None for value in metrics.values.values()), metrics.reasons


def test_bad_outputs_count_as_failures_without_raising(tmp_path):
    workload = Exact(2, tmp_path, kmax=4)
    workload.prepare(BIPCORR)
    workload.moments_file.unlink()
    assert "exit code 2" in worker.run_rep(BIPCORR, workload)["failure"]

    table = "k/m,1,2\n1,0,0\n2,0,1\n"
    workload = Exact(2, tmp_path, kmax=2)
    workload.prepare(BIPCORR)
    assert "oracle gives" in workload.check([(0, table, "")])
    assert "odd entry" in workload.check([(0, "k/m,1,2\n1,0,1\n2,1,1\n", "")])

    mc = MonteCarlo(2, tmp_path, sizes=((100, 20),))
    mc.prepare(BIPCORR)
    record = json.dumps({"mean": 0.5625, "stderr": 0.1})
    assert mc.check([(0, record, "")]) is None
    assert "different output bytes" in mc.check([(0, record + " ", "")])

    verify = Verify(2, tmp_path)
    assert "want 'OK'" in verify.check([(0, "coefficient pairs checked: 10\nFAIL\n", "")])


def test_benchmark_json_names_every_metric():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
