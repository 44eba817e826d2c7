"""Per-layer metrics: spans over one traced repetition, and the layer series.

Layers are the modules of ``bipcorr``: ``cli``, ``recurrence``, ``walks`` and
``simulate``.  ``families``, ``model`` and ``rational`` are helpers whose cost
shows inside the layers that call them.

Two sources feed the metrics:

* spans and engine counters from a traced repetition of the workload's task
  (``task_metrics``).  A layer the task does not call reports zero time, zero
  calls and zero rates;
* the layer series, extra calls made once per traced run with fixed inputs
  (``series_metrics``): cold n_{k,k} for k = 8..16, the walk census at
  k+m = 10 and 12, per-call drawing and moments at N = 400, 1600 and 6400, and
  the ``--threads`` speed-up.  They belong to no gated task.  A series step
  whose predicted time would take the run past its deadline is skipped, and
  its metrics are ``null`` with the reason, so the run still ends in time.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction

from tracing import HookSpec, LayerSummary, MissingHook, resolve, summarize
from workloads import ALPHA, P, cli_has_flag, draw_moments, run_cli

PACKAGE = "bipcorr"
NKK = (8, 10, 12, 14, 16)
SAMPLER_CALLS = {400: 40, 1600: 8, 6400: 1}
SHARE_SIZES = (400, 1600)
THREAD_PROBE = {"n": 400, "samples": 200, "pairs": 3}

END_TO_END = {"task_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.self_s": "s",
    "recurrence.busy_s": "s",
    "recurrence.calls": "count",
    "recurrence.memo_keys": "count",
    "recurrence.keys_per_s": "1/s",
    "recurrence.zero_key_share": "ratio",
    **{f"recurrence.nkk_s.k{k}": "s" for k in NKK},
    **{f"recurrence.nkk_keys.k{k}": "count" for k in NKK},
    "walks.busy_s": "s",
    "walks.coef_s": "s",
    "walks.family_s": "s",
    "walks.minimal_pairs": "count",
    "walks.essential_pairs": "count",
    "walks.kept_ratio": "ratio",
    "walks.census_s.k10": "s",
    "walks.census_s.k12": "s",
    "walks.minimal_pairs_per_s": "1/s",
    **{f"simulate.draw_s.N{n}": "s" for n in SAMPLER_CALLS},
    **{f"simulate.moments_s.N{n}": "s" for n in SAMPLER_CALLS},
    **{f"simulate.draw_share.N{n}": "ratio" for n in SHARE_SIZES},
    "simulate.samples.N400": "count",
    "simulate.samples.N1600": "count",
    "simulate.estimate_self_s": "s",
    "simulate.thread_speedup.N400": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _size_tag(*args, **kwargs) -> str:
    """``N<size>`` from a spec's ``matrix_size`` or a matrix's first dimension."""
    first = args[0] if args else None
    size = getattr(first, "matrix_size", None)
    if size is None:
        shape = getattr(first, "shape", None)
        size = shape[0] if shape else "?"
    return f"N{size}"


ENGINE = "bipcorr.recurrence.CoefficientEngine"
SPAN_HOOKS = (
    HookSpec("recurrence", "bipcorr.recurrence", "CoefficientEngine.correlator_coefficient"),
    HookSpec("recurrence", "bipcorr.recurrence", "CoefficientEngine.s_value"),
    HookSpec("recurrence", "bipcorr.recurrence", "CoefficientEngine.correlator_table"),
    HookSpec("walks", "bipcorr.walks", "n_oracle"),
    HookSpec("walks", "bipcorr.walks", "family_total_weight"),
    HookSpec("walks", "bipcorr.walks", "census"),
    HookSpec("simulate", "bipcorr.simulate", "estimate_correlators"),
    HookSpec("simulate", "bipcorr.simulate", "sample_matrix", _size_tag),
    HookSpec("simulate", "bipcorr.simulate", "trace_moments", _size_tag),
)
INSTANCE_HOOKS = (("bipcorr.recurrence", "CoefficientEngine"),)


class OutOfTime(Exception):
    """A series step would end after the traced run's deadline."""


class Budget:
    """The deadline (a ``time.perf_counter`` value) the layer series must end by."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def allow(self, step: str, predicted_s: float) -> None:
        left = self.deadline - time.perf_counter()
        if predicted_s > left:
            raise OutOfTime(
                f"{step} skipped: predicted {predicted_s:.1f} s, {max(left, 0.0):.1f} s left "
                "before the traced run's deadline"
            )


class MetricSet:
    """Metric name -> value; a metric whose hook is missing is None with a reason."""

    def __init__(self):
        self.values: dict = {}
        self.reasons: dict = {}

    def measure(self, names, thunk) -> None:
        """Store ``thunk()`` under ``names``: one name, or a tuple of names for the
        leading items of a tuple result."""
        single = isinstance(names, str)
        try:
            result = thunk()
        except (MissingHook, OutOfTime) as exc:
            for name in [names] if single else names:
                self.values[name] = None
                self.reasons[name] = str(exc)
            return
        if single:
            self.values[names] = result
        else:
            self.values.update(zip(names, result))


def clear_caches() -> None:
    """Empty every functools cache in the program, so each repetition starts cold."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# One traced repetition


def task_metrics(spans: list, instances: list, hooks) -> MetricSet:
    summary = summarize(spans)

    def layer(name: str) -> LayerSummary:
        return summary.get(name, LayerSummary())

    def hooked(qualname: str, thunk):
        def run():
            hooks.require(qualname)
            return thunk()
        return run

    rec, walk, sim = layer("recurrence"), layer("walks"), layer("simulate")
    out = MetricSet()
    out.measure("cli.self_s", lambda: layer("cli").self_s)

    engine_entry = f"{ENGINE}.correlator_coefficient"
    out.measure("recurrence.busy_s", hooked(engine_entry, lambda: rec.busy_s))
    out.measure("recurrence.calls", hooked(engine_entry, lambda: rec.entries))

    def memo_keys():
        hooks.require(ENGINE)
        resolve("bipcorr.recurrence", "CoefficientEngine.memo_size")
        return sum(engine.memo_size for engine in instances)

    def zero_share():
        resolve("bipcorr.recurrence", "CoefficientEngine.memo_items")
        keys = memo_keys()
        zeros = sum(1 for e in instances for _, value in e.memo_items() if value == 0)
        return _ratio(zeros, keys)

    out.measure("recurrence.memo_keys", memo_keys)
    out.measure(
        "recurrence.keys_per_s",
        hooked(engine_entry, lambda: _ratio(memo_keys(), rec.busy_s)),
    )
    out.measure("recurrence.zero_key_share", zero_share)

    out.measure("walks.busy_s", hooked("bipcorr.walks.n_oracle", lambda: walk.busy_s))
    out.measure(
        "walks.coef_s", hooked("bipcorr.walks.n_oracle", lambda: walk.entry_s.get("walks.n_oracle", 0.0))
    )
    out.measure(
        "walks.family_s",
        hooked(
            "bipcorr.walks.family_total_weight",
            lambda: walk.entry_s.get("walks.family_total_weight", 0.0),
        ),
    )
    for n in (400, 1600):
        out.measure(
            f"simulate.samples.N{n}",
            hooked(
                "bipcorr.simulate.sample_matrix",
                lambda n=n: sim.count_by_name_tag.get(("simulate.sample_matrix", f"N{n}"), 0),
            ),
        )
    out.measure(
        "simulate.estimate_self_s",
        hooked(
            "bipcorr.simulate.estimate_correlators",
            lambda: sim.self_by_name.get("simulate.estimate_correlators", 0.0),
        ),
    )
    return out


# ---------------------------------------------------------------------------
# Layer series


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def series_metrics(bipcorr, seed: int, budget: Budget) -> MetricSet:
    out = MetricSet()
    _nkk(bipcorr, seed, out, budget)
    _census(bipcorr, out, budget)
    _sampler(bipcorr, seed, out, budget)
    out.measure("simulate.thread_speedup.N400", lambda: _thread_speedup(bipcorr, seed, out, budget))
    return out


def _nkk(bipcorr, seed: int, out: MetricSet, budget: Budget) -> None:
    """Cold n_{k,k} with a fresh engine, in the exact workload's context.

    Each step is predicted to grow by the factor the previous step grew by.
    """
    params = bipcorr.model.ModelParams(Fraction(ALPHA), Fraction(P))
    moments = bipcorr.model.MomentSequence(draw_moments(seed, max(NKK)))
    done: list = []
    for k in NKK:
        def run(k=k):
            resolve("bipcorr.recurrence", "CoefficientEngine.memo_size")
            budget.allow(f"n_{{{k},{k}}}", done[-1] ** 2 / done[-2] if len(done) > 1 else 0.0)
            engine = bipcorr.recurrence.CoefficientEngine(params, moments)
            seconds, _ = _timed(engine.correlator_coefficient, k, k)
            done.append(seconds)
            return seconds, engine.memo_size

        out.measure((f"recurrence.nkk_s.k{k}", f"recurrence.nkk_keys.k{k}"), run)


def _census(bipcorr, out: MetricSet, budget: Budget) -> None:
    def run():
        resolve("bipcorr.walks", "census")
        budget.allow("the census", 0.0)
        clear_caches()
        k10, _ = _timed(bipcorr.walks.census, 4, 6)
        clear_caches()
        k12, (minimal, essential) = _timed(bipcorr.walks.census, 6, 6)
        clear_caches()
        return k10, k12, minimal, essential, essential / minimal, minimal / k12

    out.measure(
        (
            "walks.census_s.k10", "walks.census_s.k12", "walks.minimal_pairs",
            "walks.essential_pairs", "walks.kept_ratio", "walks.minimal_pairs_per_s",
        ),
        run,
    )


def _sampler(bipcorr, seed: int, out: MetricSet, budget: Budget) -> None:
    """Median per-call time of drawing one matrix and of extracting its moments.

    A size's calls are predicted to cost the previous size's per-call time
    times the cube of the size ratio, as a dense SVD does.
    """
    sim = bipcorr.simulate
    params = bipcorr.model.ModelParams(Fraction(1, 2), Fraction(4))
    done: list = []
    for n, calls in SAMPLER_CALLS.items():
        def run(n=n, calls=calls):
            resolve("bipcorr.simulate", "sample_matrix")
            resolve("bipcorr.simulate", "trace_moments")
            per_call = done[-1][1] * (n / done[-1][0]) ** 3 if done else 0.0
            budget.allow(f"the sampler at N={n}", per_call * calls)
            spec = sim.EnsembleSpec(n, params, sim.WeightDistribution("rademacher"), seed)
            draws, extracts = [], []
            for index in range(calls):
                seconds, matrix = _timed(sim.sample_matrix, spec, index)
                draws.append(seconds)
                seconds, _ = _timed(sim.trace_moments, matrix, 4, part_size=spec.part1_size)
                extracts.append(seconds)
                del matrix
            draw, extract = statistics.median(draws), statistics.median(extracts)
            done.append((n, draw + extract))
            return draw, extract, draw / (draw + extract)

        names = (f"simulate.draw_s.N{n}", f"simulate.moments_s.N{n}")
        if n in SHARE_SIZES:
            names += (f"simulate.draw_share.N{n}",)
        out.measure(names, run)


def _thread_speedup(bipcorr, seed: int, out: MetricSet, budget: Budget) -> float:
    """Median time at ``--threads 1`` over median time at ``--threads 2``, alternating.

    Predicted from the series' per-call draw and moments time at N=400.
    """
    if not cli_has_flag(bipcorr.cli, "simulate", "--threads"):
        raise MissingHook("simulate has no --threads flag")
    per_sample = sum(out.values.get(f"simulate.{part}_s.N400") or 0.0 for part in ("draw", "moments"))
    budget.allow("the --threads probe", per_sample * THREAD_PROBE["samples"] * 2 * THREAD_PROBE["pairs"])
    argv = [
        "simulate", "--n", THREAD_PROBE["n"], "--k", 4, "--m", 2, "--p", 4,
        "--samples", THREAD_PROBE["samples"], "--seed", seed,
    ]
    times = {1: [], 2: []}
    for _ in range(THREAD_PROBE["pairs"]):
        for threads in (1, 2):
            seconds, (code, _, err) = _timed(run_cli, bipcorr.cli, argv + ["--threads", threads])
            if code != 0:
                raise MissingHook(f"simulate --threads {threads} exited {code}: {err.strip()}")
            times[threads].append(seconds)
    return statistics.median(times[1]) / statistics.median(times[2])
