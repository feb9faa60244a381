"""Fleet-simulation throughput benchmark: vectorized vs per-device.

Times :class:`~repro.sim.fleet_engine.FleetEngine` against the plain
per-device loop (one fast :class:`~repro.sim.engine.Engine` ``run()``
per row) on deterministic heterogeneous fleets
(:func:`~repro.sim.fleet_engine.heterogeneous_fleet`) of increasing
size, reporting rows-per-second and the fleet-over-loop speedup at
each row count, plus both sides' build times and the end-to-end
speedup over build plus run.

Both sides simulate *identical* devices, and every timed pairing is
also checked for field-exact result equality -- the speedup is only
meaningful because the fleet rows are bit-identical to single-device
runs (``tests/sim/test_fleet_engine.py`` holds the exhaustive
``ReferenceEngine`` version of that contract).

The cross-row win amortizes the per-row Python overhead of the
regime-stepped fast path: one batched epoch plan (SoA event-distance
estimate + grouped accumulates + chained no-op decisions) replaces N
scalar ``_plan_regime`` calls, and the regime-interior thermal/leakage
recurrences advance in shared passes instead of one Python loop per
device.  The speedup grows with row count; the event-adjacent scalar
work (phase-crossing steps) is identical on both sides by design and
bounds it from above.  Each entry carries the fleet's per-stage wall
breakdown so a regression is attributable to a stage.  On single-CPU
hosts the envelope is marked ``degraded_host`` and the acceptance bar
relaxes to equality-only (see
``benchmarks/test_fleetsim_throughput.py``).

Used by ``benchmarks/test_fleetsim_throughput.py`` (writes
``BENCH_fleetsim.json``) and the ``repro fleetsim-bench`` CLI command.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.bench import assert_same_results, best_of, wall_clock, write_record
from repro.sim.fleet_engine import (
    FleetEngine,
    build_row_engine,
    heterogeneous_fleet,
)

#: Row counts of the standard bench (the largest is the acceptance
#: configuration of ``benchmarks/test_fleetsim_throughput.py``).
STANDARD_ROW_COUNTS = (64, 256)

#: CI-sized configuration (seconds, not minutes).
SMOKE_ROW_COUNTS = (16,)


def _time_fleet(rows: int, seed: int, repeats: int) -> dict[str, Any]:
    """Best-of-``repeats`` build and run wall times at one row count.

    Mirrors ``sim/bench.py``: both sides are built in alternating
    best-of rounds, then timed repeatedly on their fastest builds
    (``run()`` resets all state), with the warmup runs doubling as the
    equivalence check.  ``stage_ms`` is the per-stage breakdown
    (:data:`repro.sim.fleet_engine._STAGES`) of the *fastest* fleet
    run, so a throughput regression in ``BENCH_fleetsim.json`` is
    attributable to a pipeline stage.
    """
    specs = heterogeneous_fleet(rows, seed=seed)
    (solo_build_s, solo_engines), (fleet_build_s, fleet_engine) = best_of(
        repeats,
        lambda: [build_row_engine(spec) for spec in specs],
        lambda: FleetEngine(rows=specs, clock=wall_clock),
    )
    assert_same_results(
        f"fleet of {rows}",
        [engine.run() for engine in solo_engines],
        fleet_engine.run(),
    )

    def run_fleet() -> dict[str, float]:
        fleet_engine.run()
        return dict(fleet_engine.stage_seconds)

    (solo_s, _), (fleet_s, stage_seconds) = best_of(
        repeats, lambda: [engine.run() for engine in solo_engines], run_fleet
    )
    return {
        "rows": rows,
        "solo_build_ms": solo_build_s * 1e3,
        "fleet_build_ms": fleet_build_s * 1e3,
        "solo_ms": solo_s * 1e3,
        "fleet_ms": fleet_s * 1e3,
        "solo_rows_per_s": rows / solo_s,
        "fleet_rows_per_s": rows / fleet_s,
        "speedup": solo_s / fleet_s,
        "end_to_end_speedup": (solo_build_s + solo_s)
        / (fleet_build_s + fleet_s),
        "stage_ms": {
            stage: seconds * 1e3 for stage, seconds in stage_seconds.items()
        },
    }


def run_fleetsim_bench(
    row_counts: Sequence[int] | None = None,
    repeats: int = 3,
    seed: int = 0,
    output_path: str | Path | None = None,
) -> dict:
    """Time the fleet engine against per-device loops per row count.

    Args:
        row_counts: Fleet sizes to sweep (default:
            :data:`STANDARD_ROW_COUNTS`).
        repeats: Timed runs per side per row count (best-of).
        seed: Fleet assignment seed
            (:func:`~repro.sim.fleet_engine.heterogeneous_fleet`).
        output_path: Optional JSON destination
            (``BENCH_fleetsim.json``).

    Returns:
        The bench record: one entry per row count with both sides'
        build and run wall times, rows-per-second, the fleet-over-loop
        run ``speedup`` and the ``end_to_end_speedup`` over build plus
        run; ``peak`` repeats the largest row count's entry.
    """
    counts = tuple(row_counts) if row_counts is not None else STANDARD_ROW_COUNTS
    if not counts:
        raise ValueError("need at least one row count")
    entries = [_time_fleet(rows, seed, repeats) for rows in counts]
    peak = max(entries, key=lambda entry: entry["rows"])
    payload = {
        "repeats": repeats,
        "seed": seed,
        "row_counts": entries,
        "peak": peak,
    }
    return write_record(
        "fleetsim-bench",
        payload,
        output_path,
        repeats,
        extra={"peak_stage_ms": peak["stage_ms"]},
    )


__all__ = [
    "STANDARD_ROW_COUNTS",
    "SMOKE_ROW_COUNTS",
    "run_fleetsim_bench",
]
