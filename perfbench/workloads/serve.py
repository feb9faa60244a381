"""``serve``: a seeded request stream through one in-process service.

Requests replay harvested counter traces into a single-shard
``FleetDecisionService`` on the host clock.  Three phases run in turn,
each on a fresh service:

1. **nominal** -- an open loop at :data:`NOMINAL_RPS`; its decision
   latency, timed from when each request was due, is the latency
   metric.
2. **ladder** -- open-loop probes on the fixed rate ladder
   :data:`LADDER_RPS`, bisected for the highest rate whose p99 stays
   within :data:`LIMIT_S` with no growing backlog.
3. **closed** -- :data:`~decisions.DEVICES` clients that each wait for
   their answer before sending again; its decisions per second are the
   throughput metric.

Responses are checked against the scalar decision as each phase (or
closed-loop iteration) ends, outside the timing, so the benchmark's
own bookkeeping stays small beside the service's memory.  The traced
run skips the ladder (it reports no end-to-end metric) and gives its
time to the closed loop.
"""

from __future__ import annotations

import math
import time
from collections import deque

from perfbench.openloop import run_open_loop, search_ladder
from perfbench.stats import percentile
from perfbench.workloads import decisions
from perfbench.workloads.base import Measurement, digest, timed_loop

NOMINAL_RPS = 2000.0
#: 1000 rps to 128k rps in steps of 2 ** (1 / 8) (about 9 %).
LADDER_RPS = tuple(round(1000.0 * 2 ** (step / 8)) for step in range(57))
#: A quarter of DORA's 100 ms decision interval.
LIMIT_S = 0.025
MAX_BATCH = 64
MAX_WAIT_S = 0.005
#: Shares of ``--seconds`` given to the nominal phase, to each ladder
#: probe (a bisection of the ladder makes six, plus retries), and to
#: the closed loop.
NOMINAL_SHARE = 0.25
PROBE_SHARE = 0.05
CLOSED_SHARE = 0.4
PROBE_ATTEMPTS = 2
#: Decisions per closed-loop iteration.
CHUNK = 2048


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.probes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def setup(self) -> None:
        self.predictor = decisions.train_bundle(self.seed)
        self.stream = decisions.RequestStream(decisions.harvest(), self.seed)
        self.oracle = decisions.ScalarOracle(self.predictor, self.stream)
        # Warm the kernel and the service paths outside the timed region.
        warm = self._service()
        warm.decide([self.stream.at(i) for i in range(2 * MAX_BATCH)])
        warm.close()

    def _service(self):
        from repro.serve.fleet import FleetConfig, FleetDecisionService
        from repro.serve.service import ServiceConfig

        return FleetDecisionService(
            self.predictor,
            FleetConfig(
                workers=1,
                service=ServiceConfig(max_batch_size=MAX_BATCH, max_wait_s=MAX_WAIT_S),
            ),
            clock=time.perf_counter,
        )

    def _verify(self, phase: str, keys, responses) -> list[int]:
        """Check served decisions against the scalar oracle; returns the
        positions that failed (wrong or missing)."""
        bad = [
            index
            for index, (key, response) in enumerate(zip(keys, responses))
            if not self.oracle.check(key, response)
        ]
        self.attempted += len(keys)
        if bad:
            self.failed += len(bad)
            self.notes.append(f"serve {phase}: {len(bad)} wrong or missing decisions")
        return bad

    def _open_loop(self, phase: str, rate: float, seconds: float):
        service = self._service()
        try:
            result = run_open_loop(service, self.stream.at, rate, seconds)
            stats = service.merged_stats()
        finally:
            service.close()
        return result, stats

    def _verify_open_loop(self, phase: str, result) -> list:
        """Check an open-loop phase; a failed request counts as over any
        latency limit.  Returns the request keys."""
        keys = [self.stream.at_key(i) for i in range(len(result.responses))]
        for index in self._verify(phase, keys, result.responses):
            result.latencies_s[index] = math.inf
        return keys

    def measure(self, seconds: float) -> Measurement:
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = 0
            tracer.active = True
        nominal, stats = self._open_loop("nominal", NOMINAL_RPS, NOMINAL_SHARE * seconds)
        if tracer is not None:
            tracer.active = False
            tracer.end_scope()
        keys = self._verify_open_loop("nominal", nominal)
        self.nominal = nominal
        self.nominal_stats = stats
        self.nominal_digest = digest(
            [
                (key, response.fopt_hz, response.accepted)
                for key, response in zip(keys, nominal.responses)
                if response is not None
            ]
        )
        max_rate = None
        closed_s = CLOSED_SHARE * seconds
        if tracer is None:
            max_rate, _ = search_ladder(
                LADDER_RPS, lambda rate: self._probe(rate, PROBE_SHARE * seconds)
            )
        else:
            closed_s = (1.0 - NOMINAL_SHARE) * seconds
        iterations = self._closed_loop(closed_s)
        return Measurement(
            iterations=iterations,
            latencies_s=nominal.latencies_s,
            max_rate_rps=max_rate,
            attempted=self.attempted,
            extra={"ladder": self.probes},
        )

    def _probe(self, rate: float, seconds: float) -> bool:
        """Whether ``rate`` meets the limit; a rung fails only when two
        probes in a row fail, so one stall on a shared host cannot cap
        the result."""
        for attempt in range(PROBE_ATTEMPTS):
            phase = f"ladder@{rate:g}#{attempt}"
            result, _ = self._open_loop(phase, rate, seconds)
            self._verify_open_loop(phase, result)
            ok = result.passes(LIMIT_S, max_growth=MAX_BATCH)
            self.probes.append(
                {
                    "rate_rps": rate,
                    "attempt": attempt,
                    "requests": len(result.latencies_s),
                    "p50_ms": percentile(result.latencies_s, 50.0) * 1e3,
                    "p99_ms": percentile(result.latencies_s, 99.0) * 1e3,
                    "backlog_growth": result.backlog_growth(),
                    "passed": ok,
                }
            )
            if ok:
                return True
        return False

    def _closed_loop(self, seconds: float):
        """Each device waits for its answer before sending its next request."""
        service = self._service()
        stream = self.stream
        ready = deque(range(decisions.DEVICES))
        sent = [0] * decisions.DEVICES
        outstanding: dict[int, tuple] = {}
        arrived: list = []
        ticket = 0

        def chunk(index: int) -> int:
            nonlocal ticket
            done = 0
            while done < CHUNK:
                if ready:
                    device = ready.popleft()
                    key = stream.key(device, sent[device])
                    sent[device] += 1
                    outstanding[ticket] = key
                    ticket += 1
                    out = service.submit(stream.build(key), time.perf_counter())
                else:
                    out = service.flush(time.perf_counter())
                for response in out:
                    key = outstanding.pop(response.request_id)
                    arrived.append((key, response))
                    ready.append(key[0])
                done += len(out)
            return done

        def verify() -> None:
            self._verify("closed", [k for k, _ in arrived], [r for _, r in arrived])
            arrived.clear()

        try:
            iterations = timed_loop(
                seconds, chunk, self.tracer, first_index=1, between=verify
            )
            for response in service.flush(time.perf_counter()):
                arrived.append((outstanding.pop(response.request_id), response))
            verify()
        finally:
            service.close()
        if outstanding:
            self.failed += len(outstanding)
            self.notes.append(f"serve closed: {len(outstanding)} never answered")
        return iterations

    def check(self) -> tuple[int, list[str]]:
        """Every served fopt equalled the scalar decision (the fmax
        fallback for rejected requests); checked as phases ended."""
        return self.failed, self.notes

    def digest(self) -> str:
        return self.nominal_digest

    def layer_values(self) -> dict[str, float]:
        waited = [
            r.queue_delay_s
            for r in self.nominal.responses
            if r is not None and r.accepted and not r.trace.skipped
        ]
        lateness = self.nominal.lateness_s
        return {
            **decisions.stats_values(self.nominal_stats),
            "serve.queue_p50_ms": percentile(waited, 50.0) * 1e3 if waited else 0.0,
            "serve.queue_p99_ms": percentile(waited, 99.0) * 1e3 if waited else 0.0,
            "serve.gen_late_ms": sum(lateness) / len(lateness) * 1e3,
        }
