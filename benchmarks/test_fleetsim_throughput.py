"""Fleet-simulation throughput: struct-of-arrays engine vs device loops.

Times :class:`~repro.sim.fleet_engine.FleetEngine` against per-device
fast-``Engine`` loops on deterministic heterogeneous fleets, records
rows-per-second, speedup and the per-stage fleet breakdown per row
count in ``BENCH_fleetsim.json`` at the repo root, and asserts the
acceptance criteria:

* Every row of a 256-device heterogeneous fleet is field-exact
  against :class:`~repro.sim.engine.ReferenceEngine` (checked here on
  the full fleet; ``tests/sim/test_fleet_engine.py`` holds the
  per-field trace-level version).
* The measured speedup never regresses more than 20 % against the
  committed ``BENCH_fleetsim.json`` baseline.  The guard is
  degraded-host-aware: the committed number is only comparable when
  it was taken under the same ``degraded_host`` condition as this
  run, so cross-host-class noise cannot fail CI.
* On a multi-core host, the fleet engine clears 10x rows/sec over the
  per-device loop at 256+ rows; on a single-CPU host the envelope is
  marked ``degraded_host`` and the bar relaxes to the regression
  guard plus equality (cross-row amortization has no parallel
  substrate to run on there).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.fleet_engine import (
    _STAGES,
    FleetEngine,
    build_row_engine,
    heterogeneous_fleet,
)
from repro.sim.fleet_bench import run_fleetsim_bench
from tests.sim.test_engine_equivalence import assert_bit_identical

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleetsim.json"

ACCEPTANCE_ROWS = 256

#: Maximum tolerated fractional speedup drop vs the committed baseline.
REGRESSION_TOLERANCE = 0.20


def _committed_baseline() -> dict | None:
    """The committed bench record, read before this run overwrites it."""
    if not BENCH_PATH.exists():
        return None
    try:
        return json.loads(BENCH_PATH.read_text())
    except (json.JSONDecodeError, OSError):
        return None


def test_fleet_rows_are_field_exact_against_the_reference():
    specs = heterogeneous_fleet(ACCEPTANCE_ROWS, seed=0)
    results = FleetEngine(rows=specs).run()
    assert len(results) == ACCEPTANCE_ROWS
    for spec, result in zip(specs, results):
        reference = build_row_engine(spec, engine="reference").run()
        assert_bit_identical(reference, result)


def test_fleetsim_throughput():
    baseline = _committed_baseline()
    result = run_fleetsim_bench(
        row_counts=(64, ACCEPTANCE_ROWS),
        repeats=3,
        output_path=BENCH_PATH,
    )
    record = json.loads(BENCH_PATH.read_text())

    # The record is a complete, plottable artifact.
    assert record["envelope"]["command"] == "fleetsim-bench"
    assert "degraded_host" in record["envelope"]
    for row in record["row_counts"]:
        for key in ("rows", "solo_ms", "fleet_ms", "solo_rows_per_s",
                    "fleet_rows_per_s", "speedup", "stage_ms",
                    "solo_build_ms", "fleet_build_ms", "end_to_end_speedup"):
            assert key in row
        assert row["fleet_ms"] > 0
        assert row["solo_build_ms"] > 0
        assert row["fleet_build_ms"] > 0
        assert row["fleet_rows_per_s"] > 0
        # The stage breakdown is complete, non-negative, and accounts
        # for a meaningful share of the fleet wall time (the epoch
        # loop between timed stages is the only untimed remainder).
        assert set(row["stage_ms"]) == set(_STAGES)
        assert all(value >= 0.0 for value in row["stage_ms"].values())
        total_ms = sum(
            row["stage_ms"][stage] for stage in sorted(row["stage_ms"])
        )
        assert 0.0 < total_ms <= row["fleet_ms"] * 1.25
    peak = record["peak"]
    assert peak["rows"] == ACCEPTANCE_ROWS
    assert result["peak"]["speedup"] == peak["speedup"]
    assert record["envelope"]["peak_stage_ms"] == peak["stage_ms"]

    # Regression guard: the peak speedup must stay within tolerance of
    # the committed baseline, when that baseline is comparable (same
    # row count and same degraded_host condition).
    if baseline is not None:
        committed_peak = baseline.get("peak", {})
        comparable = (
            committed_peak.get("rows") == peak["rows"]
            and baseline.get("envelope", {}).get("degraded_host")
            == record["envelope"]["degraded_host"]
        )
        if comparable:
            floor = committed_peak["speedup"] * (1.0 - REGRESSION_TOLERANCE)
            assert peak["speedup"] >= floor, (
                f"fleet speedup regressed: {peak['speedup']:.3f}x vs "
                f"committed {committed_peak['speedup']:.3f}x "
                f"(floor {floor:.3f}x); stages: {peak['stage_ms']}"
            )

    # Acceptance bar: >= 10x rows/sec over per-device loops at 256+
    # rows on a multi-core host.  run_fleetsim_bench already raised if
    # any timed pairing's results diverged, which is the equality bar
    # a degraded (single-CPU) host falls back to, on top of the
    # baseline regression guard above.
    if not record["envelope"]["degraded_host"]:
        assert peak["speedup"] >= 10.0, (
            f"expected >= 10x over per-device Engine loops at "
            f"{peak['rows']} rows, got {peak['speedup']:.2f}x "
            f"({peak['solo_ms']:.1f}ms vs {peak['fleet_ms']:.1f}ms)"
        )
