"""The percentile rule, self time, wrapper rebinding and the open loop."""

from __future__ import annotations

import math
import sys
import types
from collections import deque
from dataclasses import dataclass

import pytest

from perfbench.openloop import backlog_slope, run_open_loop, search_ladder
from perfbench.stats import percentile, tail_percentile, windowed_percentile
from perfbench.tracing import Probe, Tracer, self_times, summarize

# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9), (100000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile([1.0] * count) == (expected, count)


def test_nearest_rank_percentile_leaves_ten_samples_beyond_p99():
    samples = list(range(1, 1001))
    value = percentile(samples, 99.0)
    assert value == 990
    assert sum(1 for s in samples if s > value) == 10
    assert percentile([3.0, math.inf, 1.0], 99.0) == math.inf


def test_windowed_p99_ignores_one_stalled_window():
    samples = [1.0] * 1000
    samples[100:130] = [50.0] * 30  # a burst inside the first window
    assert percentile(samples, 99.0) == 50.0
    assert windowed_percentile(samples, 99.0) == 1.0
    assert windowed_percentile(samples[:40], 99.0) == percentile(samples[:40], 99.0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ("outer", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("grandchild", 2.0, 3.0, 1, 0),
        ("child", 5.0, 6.0, 0, 0),
        ("other", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    table = summarize(spans)
    assert table["child"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summarize(spans, ops={1}) == {
        "other": {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    }


# ----------------------------------------------------------------------
# Wrapper rebind and restore
# ----------------------------------------------------------------------


@pytest.fixture
def fake_package():
    """``pbfake.a`` defines ``work`` and ``Box.run``; ``pbfake.b`` holds a
    ``from``-import copy of ``work`` and calls it by its own name."""
    names = ["pbfake", "pbfake.a", "pbfake.b"]
    package = types.ModuleType("pbfake")
    a = types.ModuleType("pbfake.a")
    b = types.ModuleType("pbfake.b")

    def work(x):
        return x + 1

    class Box:
        def run(self):
            return a.work(1)

    a.work, a.Box = work, Box
    b.work = work
    exec("def call(x):\n    return work(x)\n", b.__dict__)
    for name, module in zip(names, (package, a, b)):
        sys.modules[name] = module
    yield a, b
    for name in names + ["pbfake.late"]:
        sys.modules.pop(name, None)


def test_wrappers_catch_from_imports_and_restore(fake_package):
    a, b = fake_package
    original_work, original_run = a.work, a.Box.__dict__["run"]
    tracer = Tracer(clock=iter(range(100)).__next__, prefix="pbfake")
    seen = []
    tracer.install(
        [
            Probe("work", "pbfake.a", "work", lambda t, args, kw, r: seen.append(r)),
            Probe("box", "pbfake.a", "Box.run"),
        ]
    )
    assert a.work is not original_work and b.work is a.work
    tracer.active = True
    assert b.call(1) == 2 and a.Box().run() == 2
    assert [span[0] for span in tracer.spans] == ["work", "box", "work"]
    assert tracer.spans[2][3] == 1  # Box.run is the parent of its work call
    assert seen == [2, 2]
    tracer.active = False
    b.call(5)
    assert len(tracer.spans) == 3  # inactive wrappers record nothing
    late = types.ModuleType("pbfake.late")
    late.work = a.work  # imported while the wrapper was live
    sys.modules["pbfake.late"] = late
    tracer.restore()
    assert a.work is original_work and b.work is original_work
    assert late.work is original_work
    assert a.Box.__dict__["run"] is original_run


# ----------------------------------------------------------------------
# Open loop against fake services
# ----------------------------------------------------------------------


class FakeClock:
    """Each reading costs a microsecond, as on a real host, so a loop
    that spins without sleeping still moves time on."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1e-6
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@dataclass
class Answer:
    request_id: int


class QueueService:
    """One server answering ``capacity`` requests per second, FIFO."""

    def __init__(self, clock: FakeClock, capacity: float) -> None:
        self.clock = clock
        self.service_s = 1.0 / capacity
        self.free_at = 0.0
        self.queue: deque[tuple[float, int]] = deque()
        self.ticket = 0

    def submit(self, request, now):
        done = max(now, self.free_at) + self.service_s
        self.free_at = done
        self.queue.append((done, self.ticket))
        self.ticket += 1
        return self.poll(now)

    def poll(self, now):
        ready = []
        while self.queue and self.queue[0][0] <= now:
            ready.append(Answer(self.queue.popleft()[1]))
        return ready

    def flush(self, now):
        ready = [Answer(t) for _, t in self.queue]
        self.queue.clear()
        return ready


def _probe(capacity: float, rate: float):
    clock = FakeClock()
    service = QueueService(clock, capacity)
    return run_open_loop(
        service, lambda i: i, rate, 1.0, clock=clock, sleep=clock.sleep
    )


def test_backlog_grows_only_above_capacity():
    under = _probe(capacity=1000.0, rate=500.0)
    over = _probe(capacity=1000.0, rate=2000.0)
    assert under.backlog_growth() < 5
    assert over.backlog_growth() > 500  # about (2000 - 1000) * 1 s
    assert under.passes(0.025, max_growth=64)
    assert not over.passes(0.025, max_growth=64)
    assert backlog_slope([(0.0, 0), (1.0, 10), (2.0, 20)]) == pytest.approx(10.0)


class SyncService:
    """Answers each request inside ``submit``, taking ``1 / capacity``
    seconds of the caller's clock, as a service that evaluates its batch
    synchronously does."""

    def __init__(self, clock: FakeClock, capacity: float) -> None:
        self.clock = clock
        self.service_s = 1.0 / capacity
        self.ticket = 0

    def submit(self, request, now):
        self.clock.now += self.service_s
        self.ticket += 1
        return [Answer(self.ticket - 1)]

    def poll(self, now):
        return []

    def flush(self, now):
        return []


def test_backlog_grows_when_submit_itself_is_slow():
    def probe(rate: float):
        clock = FakeClock()
        return run_open_loop(
            SyncService(clock, capacity=10000.0), lambda i: i, rate, 0.6,
            clock=clock, sleep=clock.sleep,
        )

    # The generator's clock readings add a few microseconds to each
    # submit, so offered at its nominal capacity the service falls about
    # 3 % behind.  The generator then never idles, and the backlog grows
    # by over a hundred requests while p99 stays under the limit: only
    # the backlog rule rejects the rate.
    over = probe(10000.0)
    assert percentile(over.latencies_s, 99.0) <= 0.025
    assert over.backlog_growth() > 64
    assert not over.passes(0.025, max_growth=64)
    under = probe(8000.0)
    assert under.backlog_growth() < 5
    assert under.passes(0.025, max_growth=64)


def test_max_rate_is_highest_rung_under_capacity():
    ladder = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0]
    rate, probes = search_ladder(
        ladder, lambda r: _probe(capacity=1000.0, rate=r).passes(0.025, 64)
    )
    assert rate == 800.0
    assert all(ok == (r <= 800.0) for r, ok in probes)
    assert search_ladder(ladder, lambda r: False) == (0.0, [(400.0, False),
                                                           (100.0, False)])


def test_latency_counts_from_due_time_when_generator_runs_late():
    clock = FakeClock()

    class StallingService(QueueService):
        def submit(self, request, now):
            if self.ticket == 0:
                clock.now += 0.010  # the first submit blocks for 10 ms
            return super().submit(request, now)

    service = StallingService(clock, capacity=1e9)
    result = run_open_loop(
        service, lambda i: i, 1000.0, 0.02, clock=clock, sleep=clock.sleep
    )
    # Requests 1..9 fell due during the stall: they were submitted late
    # and their latency counts from when they were due.
    assert result.lateness_s[1] == pytest.approx(0.009, abs=1e-4)
    assert result.latencies_s[1] >= result.lateness_s[1]
    assert result.lateness_s[12] == pytest.approx(0.0, abs=1e-3)
    assert max(result.latencies_s) >= 0.009
    assert all(latency < math.inf for latency in result.latencies_s)


def test_missing_answer_counts_as_infinite_latency():
    clock = FakeClock()

    class Dropping(QueueService):
        def flush(self, now):
            return []

    service = Dropping(clock, capacity=10.0)  # too slow to answer in time
    result = run_open_loop(
        service, lambda i: i, 100.0, 0.1, clock=clock, sleep=clock.sleep
    )
    assert math.inf in result.latencies_s
    assert not result.passes(0.025, max_growth=64)
