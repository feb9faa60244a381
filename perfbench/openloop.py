"""Open-loop load generation against a cooperative decision service.

The generator offers requests on a fixed schedule whatever the service
does: request ``i`` is due at ``start + i / rate``.  It is single
threaded, like the service, so while the service evaluates a batch the
generator falls behind; the requests it then submits late are still
timed from when they were *due*, which charges a stall to every request
it delayed.  How late the generator ran is reported separately.

The service is anything with the ``submit(request, now)`` /
``poll(now)`` / ``flush(now)`` surface of
``repro.serve.fleet.FleetDecisionService`` whose tickets count from 0,
so a response's ``request_id`` is the index of its request.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from perfbench.stats import percentile

#: Backlog is sampled at most this often (seconds).
_BACKLOG_SAMPLE_S = 0.001
#: Between submits the generator polls the service this often
#: (seconds): a twentieth of the 5 ms batching window.
_POLL_S = 0.00025
#: After the last submit, how long the service may take to answer on
#: its own before a forced flush (seconds).
_DRAIN_S = 0.25


@dataclass
class OpenLoopResult:
    """What one open-loop phase observed.

    Attributes:
        rate_rps: Offered rate.
        duration_s: Scheduled length of the phase.
        latencies_s: Per request, response time minus due time
            (``inf`` when no response came back).
        lateness_s: Per request, submit time minus due time.
        backlog: ``(seconds since start, due minus answered)`` samples.
        responses: Per request, the response (``None`` if dropped).
    """

    rate_rps: float
    duration_s: float
    latencies_s: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    backlog: list[tuple[float, int]] = field(default_factory=list)
    responses: list[Any] = field(default_factory=list)

    def backlog_growth(self) -> float:
        """Least-squares backlog slope times the phase length: how many
        requests the backlog gained over the phase.  Samples after the
        phase ends, while the backlog drains, are left out."""
        within = [(t, b) for t, b in self.backlog if t <= self.duration_s]
        return backlog_slope(within) * self.duration_s

    def passes(self, limit_s: float, max_growth: float) -> bool:
        """p99 within the limit and no growing backlog."""
        return (
            percentile(self.latencies_s, 99.0) <= limit_s
            and self.backlog_growth() <= max_growth
        )


def backlog_slope(samples: Sequence[tuple[float, int]]) -> float:
    """Least-squares slope of backlog against time (requests/s)."""
    if len(samples) < 2:
        return 0.0
    count = len(samples)
    mean_t = sum(t for t, _ in samples) / count
    mean_b = sum(b for _, b in samples) / count
    var = sum((t - mean_t) ** 2 for t, _ in samples)
    if var <= 0.0:
        return 0.0
    cov = sum((t - mean_t) * (b - mean_b) for t, b in samples)
    return cov / var


def run_open_loop(
    service,
    request_for: Callable[[int], Any],
    rate_rps: float,
    duration_s: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] | None = None,
) -> OpenLoopResult:
    """Offer ``rate_rps * duration_s`` requests on schedule.

    Args:
        service: A fresh cooperative service (tickets from 0).
        request_for: Builds request ``i``.
        rate_rps: Offered rate.
        duration_s: Phase length; the last request is due just before
            it ends.
        clock: Monotonic seconds; also handed to the service as ``now``.
        sleep: Idle wait between events.  ``None`` (the default) spins
            on the clock instead: on a virtual machine, waking a halted
            CPU from a timer can take milliseconds, which would be
            charged to the service.
    """
    count = max(1, int(rate_rps * duration_s))
    result = OpenLoopResult(rate_rps=rate_rps, duration_s=duration_s)
    answered_at: list[float | None] = [None] * count
    responses: list[Any] = [None] * count
    answered = 0
    start = clock()
    gap = 1.0 / rate_rps
    next_sample = start
    next_poll = start

    def absorb(batch, at: float) -> None:
        nonlocal answered
        for response in batch:
            index = response.request_id
            if 0 <= index < count and answered_at[index] is None:
                answered_at[index] = at
                responses[index] = response
                answered += 1

    def sample(now: float) -> None:
        """Record the backlog on the sampling cadence."""
        nonlocal next_sample
        if now >= next_sample:
            due = min(count, int((now - start) / gap) + 1)
            result.backlog.append((now - start, due - answered))
            next_sample = now + _BACKLOG_SAMPLE_S

    def idle(now: float, until: float) -> None:
        """Poll on the cadence, sample the backlog, wait for ``until``."""
        nonlocal next_poll
        if now >= next_poll:
            absorb(service.poll(now), clock())
            next_poll = now + _POLL_S
            now = clock()
            sample(now)
        if sleep is not None and until > now:
            sleep(min(until, next_poll) - now)

    index = 0
    while index < count:
        now = clock()
        due_at = start + index * gap
        if now >= due_at:
            result.lateness_s.append(now - due_at)
            absorb(service.submit(request_for(index), now), clock())
            index += 1
            # A service that works inside submit keeps a generator above
            # its capacity behind schedule, never idle: sample here too.
            sample(clock())
        else:
            idle(now, due_at)
    deadline = clock() + _DRAIN_S
    while answered < count and clock() < deadline:
        now = clock()
        idle(now, now + _POLL_S)
    if answered < count:
        absorb(service.flush(clock()), clock())
    for i, at in enumerate(answered_at):
        due_at = start + i * gap
        result.latencies_s.append(math.inf if at is None else at - due_at)
    result.responses = responses
    return result


def search_ladder(
    ladder: Sequence[float], probe: Callable[[float], bool]
) -> tuple[float, list[tuple[float, bool]]]:
    """The highest ladder rate whose probe passes, by bisection.

    Assumes pass/fail is monotone in the rate.  Returns ``(rate,
    probes)`` with ``rate = 0.0`` when no probed rung passed.
    """
    low, high = 0, len(ladder) - 1
    best = 0.0
    probes: list[tuple[float, bool]] = []
    while low <= high:
        middle = (low + high) // 2
        ok = probe(ladder[middle])
        probes.append((ladder[middle], ok))
        if ok:
            best = ladder[middle]
            low = middle + 1
        else:
            high = middle - 1
    return best, probes
