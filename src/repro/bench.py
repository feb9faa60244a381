"""The bench core: one timer, one result check and one record writer.

Every benchmark in the repo produces a ratio against a baseline (fast
engine vs :class:`~repro.sim.engine.ReferenceEngine`, fleet vs solo
loops, batched vs scalar decisions, sharded vs single-process serving)
and writes it as a JSON record.  The drivers (:mod:`repro.sim.bench`,
:mod:`repro.sim.fleet_bench`, :mod:`repro.serve.loadgen`,
:mod:`repro.learn.bench` and ``benchmarks/test_runtime_throughput.py``)
share everything here:

* :func:`best_of` -- alternating best-of wall timing; every side runs
  once per round, so background load drift hits all sides alike and
  cancels out of their ratios.  :func:`best_replays` is the same loop
  for load replays, which report their own throughput.
* :func:`assert_same_results` / :func:`count_mismatches` -- the
  equivalence checks that make a speedup meaningful.
* :func:`write_record` -- attaches the provenance
  :func:`bench_envelope` and writes the record, refusing to when the
  live calibration fingerprint disagrees with the pin.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")

#: The wall clock every bench reads (also the stage clock handed to
#: :class:`~repro.sim.fleet_engine.FleetEngine`).
wall_clock = time.perf_counter

#: Schema tag of the shared benchmark-record envelope.
BENCH_ENVELOPE_SCHEMA = "repro-bench-envelope/1"

#: The run-result scalars that drift first when a fast path diverges
#: from its oracle (the exhaustive bit-identity suites live in tests/).
RESULT_FIELDS = (
    "load_time_s", "duration_s", "energy_j", "switch_count",
    "switch_stall_s", "final_temperature_c", "avg_temperature_c",
)


def timed(call: Callable[[], T]) -> tuple[float, T]:
    """Wall seconds of one call, and what it returned."""
    started = wall_clock()
    value = call()
    return wall_clock() - started, value


def best_of(
    repeats: int,
    *sides: Callable[[], Any],
    rank: Callable[[float, Any], float] = lambda seconds, _value: seconds,
) -> list[tuple[float, Any]]:
    """Alternating best-of: ``max(1, repeats)`` rounds of every side.

    Each side's best run is the one with the lowest
    ``rank(seconds, value)`` (by default its wall time; the first wins
    a tie).  Returns, per side, that run's wall seconds and what it
    returned -- e.g. the engine its fastest build produced, or the
    stage breakdown of its fastest run.
    """
    best: list[tuple[float, Any] | None] = [None] * len(sides)
    for _ in range(max(1, repeats)):
        for index, side in enumerate(sides):
            run = timed(side)
            kept = best[index]
            if kept is None or rank(*run) < rank(*kept):
                best[index] = run
    return [run for run in best if run is not None]


def best_replays(repeats: int, *replays: Callable[[], Any]) -> list[Any]:
    """:func:`best_of` for load replays: the highest throughput wins.

    Each replay returns its :class:`~repro.serve.loadgen.LoadgenReport`,
    or a tuple led by one (the rest rides along from the same run).
    """

    def rank(_seconds: float, run: Any) -> float:
        report = run[0] if isinstance(run, tuple) else run
        return -report.throughput_rps

    return [run for _, run in best_of(repeats, *replays, rank=rank)]


def assert_same_results(
    label: str, expected: Sequence[Any], actual: Sequence[Any]
) -> None:
    """Raise unless paired run results agree on :data:`RESULT_FIELDS`."""
    if len(expected) != len(actual):
        raise AssertionError(
            f"{label}: {len(expected)} results != {len(actual)}"
        )
    for row, (ours, theirs) in enumerate(zip(expected, actual)):
        for name in RESULT_FIELDS:
            if getattr(ours, name) != getattr(theirs, name):
                raise AssertionError(
                    f"{label} row {row}: results disagree on {name}: "
                    f"{getattr(ours, name)!r} != {getattr(theirs, name)!r}"
                )


def count_mismatches(left: Sequence[Any], right: Sequence[Any]) -> int:
    """Positions where two answer streams differ."""
    return sum(1 for ours, theirs in zip(left, right) if ours != theirs)


def _git(*args: str) -> str | None:
    """``git`` stdout in this checkout, or ``None`` when git fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_revision() -> str:
    """The repo's HEAD commit hash, or ``"unknown"`` outside a checkout."""
    return _git("rev-parse", "HEAD") or "unknown"


def bench_envelope(
    command: str, repeats: int = 1, extra: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The provenance envelope of one benchmark record.

    Attached as the record's ``"envelope"`` key (payload keys stay
    top-level, so consumers keep reading the same shapes).

    Args:
        command: The bench command name (``"serve-bench"`` etc.).
        repeats: Timed repetitions the record's numbers were taken
            over (at least one round always runs).
        extra: Optional command-specific additions merged in last.

    Returns:
        ``{"schema", "command", "git_sha", "dirty", "calibration",
        "host_cpu_count", "degraded_host", "repeats", ...extra}``.
        ``dirty`` says whether tracked files other than the
        ``BENCH_*.json`` records differed from ``git_sha`` (``None``
        outside a checkout); ``calibration`` is
        :func:`repro.experiments.fingerprint.calibration_identity`.
        ``degraded_host`` is true on single-CPU hosts, where
        concurrency and vectorization speedups are structurally
        unavailable -- comparisons against multi-core acceptance bars
        must not be read as regressions there.
    """
    from repro.experiments.fingerprint import calibration_identity

    cpu_count = os.cpu_count() or 1
    degraded = cpu_count == 1
    if degraded:
        print(
            f"warning: {command}: single-CPU host -- marking the bench "
            "envelope degraded_host; speedup bars do not apply here",
            file=sys.stderr,
        )
    # The committed records are outputs, not code: regenerating one must
    # not mark the next record's tree dirty.
    status = _git(
        "status", "--porcelain", "--untracked-files=no",
        "--", ":(top)", ":(top,exclude)BENCH_*.json",
    )
    envelope: dict[str, Any] = {
        "schema": BENCH_ENVELOPE_SCHEMA,
        "command": command,
        "git_sha": git_revision(),
        "dirty": None if status is None else bool(status),
        "calibration": calibration_identity(),
        "host_cpu_count": cpu_count,
        "degraded_host": degraded,
        "repeats": max(1, repeats),
    }
    if extra:
        envelope.update(extra)
    return envelope


def write_record(
    command: str,
    payload: dict[str, Any],
    output_path: str | Path | None,
    repeats: int,
    extra: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Attach the envelope to ``payload`` and write it as JSON.

    ``output_path=None`` only builds the record.  Writing refuses (and
    leaves no file) when the live calibration fingerprint differs from
    the pinned one: such a record could not be traced to the models
    the repo ships.

    Returns:
        The record, plus ``"output_path"`` (not written) when a file
        was written.
    """
    record = {"envelope": bench_envelope(command, repeats, extra), **payload}
    if output_path is not None:
        calibration = record["envelope"]["calibration"]
        if calibration["fingerprint"] != calibration["pinned_fingerprint"]:
            raise RuntimeError(
                f"{command}: live calibration fingerprint "
                f"{calibration['fingerprint']} differs from the pinned "
                f"{calibration['pinned_fingerprint']}; refusing to write "
                f"{output_path}"
            )
        path = Path(output_path)
        path.write_text(json.dumps(record, indent=2) + "\n")
        record["output_path"] = str(path)
    return record
