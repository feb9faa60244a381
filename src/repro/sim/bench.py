"""Engine throughput benchmark: regime-stepped fast path vs reference.

Times full :meth:`~repro.sim.engine.Engine.run` calls of the fast
(regime-stepped) engine against :class:`~repro.sim.engine.ReferenceEngine`
on a *standard campaign slice*: the fixed-frequency sweep runs that
dominate the training campaign (page x co-runner x operating point at
``dt = 2 ms``, tracing on), plus utilization-governor baselines
reported alongside but outside the campaign aggregate (their 20 ms
decision interval caps regimes at 10 steps, so their ceiling is
structurally lower).

Every timed pairing is also checked for result equivalence -- the
headline speedup is only meaningful because both engines produce
bit-identical results (see ``tests/sim/test_engine_equivalence.py``
for the exhaustive version).

Used by ``benchmarks/test_engine_throughput.py`` (writes
``BENCH_engine.json`` and asserts the >= 5x acceptance bar) and by the
``repro sim-bench`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench import assert_same_results, best_of, write_record
from repro.browser.browser import browser_tasks
from repro.browser.pages import page_by_name
from repro.core.governors import (
    FixedFrequencyGovernor,
    InteractiveGovernor,
    OndemandGovernor,
)
from repro.sim.engine import Engine, EngineConfig, ReferenceEngine
from repro.sim.governor import Governor, RunContext
from repro.soc.device import Device
from repro.workloads.kernels import kernel_by_name, kernel_task


@dataclass(frozen=True)
class BenchCase:
    """One timed workload configuration.

    Attributes:
        label: Display / record name.
        page: Page to load.
        kernel: Optional co-runner kernel.
        governor: ``"fixed"``, ``"interactive"`` or ``"ondemand"``.
        freq_hz: Operating point for fixed-frequency cases.
        dt_s: Engine step.
        record_trace: Keep per-step series (the campaign-slice cases
            time with tracing on -- the acceptance configuration).
        campaign: Whether the case counts toward the campaign-slice
            aggregate speedup.
    """

    label: str
    page: str
    kernel: str | None
    governor: str
    freq_hz: float | None = None
    dt_s: float = 0.002
    record_trace: bool = True
    campaign: bool = True


def standard_campaign_slice() -> tuple[BenchCase, ...]:
    """The benchmark workload set.

    Campaign cases mirror the training campaign's composition: fixed
    operating points across the frequency ladder, solo pages and
    kernel-contended ones, including a short-phase co-runner (srad)
    whose frequent phase crossings bound regime length.  The two
    baseline cases cover the utilization governors.
    """
    return (
        BenchCase("amazon@729.6MHz", "amazon", None, "fixed", 729.6e6),
        BenchCase(
            "amazon+backprop@1190.4MHz",
            "amazon", "backprop", "fixed", 1190.4e6,
        ),
        BenchCase(
            "amazon+backprop@2265.6MHz",
            "amazon", "backprop", "fixed", 2265.6e6,
        ),
        BenchCase(
            "espn+needleman-wunsch@1036.8MHz",
            "espn", "needleman-wunsch", "fixed", 1036.8e6,
        ),
        BenchCase(
            "espn+needleman-wunsch@1728.0MHz",
            "espn", "needleman-wunsch", "fixed", 1728.0e6,
        ),
        BenchCase(
            "aliexpress+srad@1958.4MHz",
            "aliexpress", "srad", "fixed", 1958.4e6,
        ),
        BenchCase(
            "amazon~interactive", "amazon", None, "interactive",
            campaign=False,
        ),
        BenchCase(
            "espn+needleman-wunsch~ondemand",
            "espn", "needleman-wunsch", "ondemand",
            campaign=False,
        ),
    )


def smoke_slice() -> tuple[BenchCase, ...]:
    """A CI-sized subset (seconds, not tens of seconds)."""
    cases = standard_campaign_slice()
    return (cases[0], cases[1], cases[6])


def _build_governor(case: BenchCase) -> Governor:
    if case.governor == "fixed":
        if case.freq_hz is None:
            raise ValueError(f"case {case.label!r} needs freq_hz")
        return FixedFrequencyGovernor(freq_hz=case.freq_hz, label="fixed")
    if case.governor == "interactive":
        return InteractiveGovernor()
    if case.governor == "ondemand":
        return OndemandGovernor()
    raise KeyError(f"unknown bench governor {case.governor!r}")


def _build_engine(cls, case: BenchCase):
    device = Device()
    page = page_by_name(case.page)
    tasks = browser_tasks(page).as_list()
    if case.kernel is not None:
        tasks.append(kernel_task(kernel_by_name(case.kernel)))
    return cls(
        device=device,
        tasks=tasks,
        governor=_build_governor(case),
        context=RunContext(spec=device.spec, page_features=page.features),
        config=EngineConfig(
            dt_s=case.dt_s, max_time_s=60.0, record_trace=case.record_trace
        ),
    )


def _time_case(case: BenchCase, repeats: int) -> tuple[int, float, float, float]:
    """Best-of-``repeats`` build and run wall times of both engines.

    Returns ``(steps, build_s, ref_s, fast_s)``.  ``build_s`` is the
    fast engine's construction (the reference is built by the same
    code); a page's one-off generation and style match are memoized
    per process, so only the first round of the first case touching a
    page pays them, and best-of drops that round.  ``run()`` resets
    the device, tasks and governor, so each engine is then timed
    repeatedly on its fastest build, in alternating rounds so
    background load drift cancels out of the ratio.  The warmup runs
    double as the equivalence check.
    """
    (build_s, fast_engine), (_, ref_engine) = best_of(
        repeats,
        lambda: _build_engine(Engine, case),
        lambda: _build_engine(ReferenceEngine, case),
    )
    ref_result = ref_engine.run()
    assert_same_results(case.label, [ref_result], [fast_engine.run()])
    (ref_s, _), (fast_s, _) = best_of(repeats, ref_engine.run, fast_engine.run)
    steps = int(round(ref_result.duration_s / case.dt_s))
    return steps, build_s, ref_s, fast_s


def run_engine_bench(
    cases: tuple[BenchCase, ...] | None = None,
    repeats: int = 5,
    output_path: str | Path | None = None,
) -> dict:
    """Time the fast engine against the reference on each case.

    Args:
        cases: Workload set (default: :func:`standard_campaign_slice`).
        repeats: Timed runs per engine per case (best-of).
        output_path: Optional JSON destination (``BENCH_engine.json``).

    Returns:
        The bench record: per-case build (``build_ms``) and run
        timings plus ``campaign`` and ``overall`` aggregates, each
        with the run speedup (total reference run time over total
        fast run time).
    """
    cases = cases if cases is not None else standard_campaign_slice()
    rows = []
    for case in cases:
        steps, build_s, ref_s, fast_s = _time_case(case, repeats)
        rows.append(
            {
                "label": case.label,
                "governor": case.governor,
                "dt_s": case.dt_s,
                "record_trace": case.record_trace,
                "campaign": case.campaign,
                "steps": steps,
                "build_ms": build_s * 1e3,
                "ref_ms": ref_s * 1e3,
                "fast_ms": fast_s * 1e3,
                "speedup": ref_s / fast_s,
            }
        )

    def aggregate(selected) -> dict:
        ref_ms = sum(row["ref_ms"] for row in selected)
        fast_ms = sum(row["fast_ms"] for row in selected)
        return {
            "cases": len(selected),
            "ref_ms": ref_ms,
            "fast_ms": fast_ms,
            "speedup": (ref_ms / fast_ms) if fast_ms else 0.0,
        }

    payload = {
        "repeats": repeats,
        "cases": rows,
        "campaign": aggregate([row for row in rows if row["campaign"]]),
        "overall": aggregate(rows),
    }
    return write_record("sim-bench", payload, output_path, repeats)
