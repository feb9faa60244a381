"""What every workload shares: the timed loop and output fingerprints."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench.tracing import Tracer

#: Operation id of spans opened during set-up.
SETUP_OP = -1
#: Per-layer metrics cover set-up plus the first timed iteration, so
#: counts repeat exactly from run to run; later iterations alternate
#: untraced and traced to measure the tracing overhead.
LAYER_OPS = {SETUP_OP, 0}


@dataclass
class Iteration:
    """One timed iteration: operations done, wall and CPU seconds."""

    ops: int
    wall_s: float
    cpu_s: float
    traced: bool

    @property
    def rate(self) -> float:
        return self.ops / self.wall_s

    @property
    def cpu_ms_per_op(self) -> float:
        return self.cpu_s * 1e3 / self.ops


@dataclass
class Measurement:
    """Everything a workload's timed region produced.

    Attributes:
        iterations: Timed iterations in order.
        latencies_s: Per-result latency samples (what a caller waits
            for one result).
        max_rate_rps: Highest offered rate meeting the latency limit;
            ``None`` for closed-loop workloads, whose highest
            sustainable rate is their ``ops_per_s``.
        attempted: Operations whose outputs the checks cover.
        extra: Workload-specific record fields.
    """

    iterations: list[Iteration] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    max_rate_rps: float | None = None
    attempted: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


def timed_loop(
    seconds: float,
    body: Callable[[int], int],
    tracer: Tracer | None,
    first_index: int = 0,
    between: Callable[[], None] | None = None,
) -> list[Iteration]:
    """Run ``body(i)`` (returning its operation count) until ``seconds``
    have passed, for ``i`` from ``first_index``; ``between`` runs after
    each iteration, outside its timing.

    Without a tracer every iteration is untraced.  With one, even
    iterations are traced and odd ones not, and at least three run so
    both kinds exist; iteration 0 closes the per-layer scope.
    """
    min_iterations = 1 if tracer is None else 3
    iterations: list[Iteration] = []
    started = time.perf_counter()
    index = first_index
    while True:
        traced = tracer is not None and index % 2 == 0
        if tracer is not None:
            tracer.op_id = index
            tracer.active = traced
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        ops = body(index)
        cpu1 = time.process_time()
        wall1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
            if index == 0:
                tracer.end_scope()
        iterations.append(Iteration(ops, wall1 - wall0, cpu1 - cpu0, traced))
        if between is not None:
            between()
        index += 1
        if len(iterations) >= min_iterations and wall1 - started >= seconds:
            return iterations


def digest(payload: Any) -> str:
    """SHA-256 of a payload's ``repr`` (floats repr exactly)."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


#: Per-step series a ``Trace`` exposes.
_TRACE_SERIES = (
    "times_s", "freqs_hz", "total_power_w", "core_dynamic_w", "memory_w",
    "leakage_w", "soc_temperature_c",
)


def run_result_key(result) -> tuple:
    """Every field of a ``RunResult``, in a comparable form.

    Two results with equal keys are field-exact: per-task summaries,
    the decision log and any recorded trace series included.
    """
    trace = result.trace
    return (
        result.load_time_s,
        result.had_gating,
        result.duration_s,
        result.energy_j,
        result.switch_count,
        result.switch_stall_s,
        result.switch_energy_j,
        result.final_temperature_c,
        result.avg_temperature_c,
        result.governor_name,
        tuple(
            (task_id, tuple(sorted(vars(summary).items())))
            for task_id, summary in sorted(result.task_summaries.items())
        ),
        tuple(result.decisions.times_s),
        tuple(result.decisions.frequencies_hz),
        tuple(tuple(getattr(trace, name).tolist()) for name in _TRACE_SERIES),
        tuple(trace.completions),
        tuple(trace.phase_starts),
    )
