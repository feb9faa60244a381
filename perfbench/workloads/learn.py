"""``learn``: one closed learning loop per iteration.

Each cycle, in a fresh directory: replay the request stream through a
single-shard ``FleetDecisionService`` with telemetry attached, retrain
from that telemetry (which publishes to a ``ModelRegistry``), replay
with the candidate in shadow, and replay once more hot-swapping the
candidate in mid-stream.  Replays run on a virtual arrival clock, so
batch boundaries -- and therefore the telemetry, the refit and every
output -- repeat exactly; an operation is one decision served by any of
the three replays.
"""

from __future__ import annotations

from pathlib import Path

from perfbench.workloads import decisions
from perfbench.workloads.base import Measurement, digest, timed_loop

#: Requests per replay.
REQUESTS = 4096
#: Virtual arrival rate of the replays.
VIRTUAL_RPS = 5000.0
MAX_WAIT_S = 0.005


class LearnWorkload:
    name = "learn"

    def __init__(self, seed: int, tracer=None, work_dir: Path | None = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        self.last: dict = {}
        self.first: tuple = ()
        self.first_stats = None
        self.cycles = 0
        self.failed = 0
        self.notes: list[str] = []

    def setup(self) -> None:
        self.predictor = decisions.train_bundle(self.seed)
        self.stream = decisions.RequestStream(decisions.harvest(), self.seed)
        self.requests = [self.stream.at(i) for i in range(REQUESTS)]
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def _fleet(self):
        from repro.serve.fleet import FleetConfig, FleetDecisionService
        from repro.serve.service import ServiceConfig

        return FleetDecisionService(
            self.predictor,
            FleetConfig(workers=1, service=ServiceConfig(max_wait_s=MAX_WAIT_S)),
        )

    def _replay(self, fleet, swap_to=None) -> list:
        """Every response of one paced replay, in ticket order."""
        gap = 1.0 / VIRTUAL_RPS
        half = len(self.requests) // 2
        responses = []
        for index, request in enumerate(self.requests):
            now = index * gap
            if swap_to is not None and index == half:
                fleet.swap_model(swap_to, now=now)
            responses.extend(fleet.poll(now))
            responses.extend(fleet.submit(request, now))
        responses.extend(fleet.flush(len(self.requests) * gap + MAX_WAIT_S))
        responses.sort(key=lambda response: response.request_id)
        return responses

    def _cycle(self, index: int) -> int:
        from repro.learn.registry import ModelRegistry
        from repro.learn.retrain import RetrainConfig, retrain_from_telemetry
        from repro.learn.telemetry import TelemetryStore

        root = self.work_dir / f"cycle-{index}"
        store = TelemetryStore(root / "telemetry")
        fleet = self._fleet()
        fleet.attach_telemetry(store)
        try:
            baseline = self._replay(fleet)
            stats = fleet.merged_stats()
        finally:
            fleet.close()
        retrain = retrain_from_telemetry(
            store,
            self.predictor,
            registry=ModelRegistry(root / "registry"),
            config=RetrainConfig(workers=0),
        )
        candidate = retrain.models.predictor
        fleet = self._fleet()
        fleet.start_shadow(candidate)
        try:
            shadowed = self._replay(fleet)
            shadow = fleet.shadow_report().to_record()
            promoted = fleet.promote(max_mismatch_rate=0.0)
        finally:
            fleet.close()
        fleet = self._fleet()
        try:
            swapped = self._replay(fleet, swap_to=candidate)
        finally:
            fleet.close()
        self.last = {
            "baseline": baseline,
            "shadowed": shadowed,
            "swapped": swapped,
            "retrain": retrain,
            "shadow": shadow,
            "promoted": promoted,
            "stats": stats,
        }
        return len(baseline) + len(shadowed) + len(swapped)

    def measure(self, seconds: float) -> Measurement:
        iterations = timed_loop(
            seconds, self._cycle, self.tracer, between=self._check_last
        )
        return Measurement(
            iterations=iterations,
            latencies_s=[it.wall_s for it in iterations],
            attempted=self.cycles * 3 * len(self.requests),
        )

    def _payload(self, cycle: dict) -> tuple:
        """The cycle's outputs, with the candidate's predictions for the
        first request standing in for its fitted coefficients."""
        request = self.requests[0]
        table = cycle["retrain"].models.predictor.prediction_table(
            page_features=request.page,
            corunner_mpki=request.corunner_mpki,
            corunner_utilization=request.corunner_utilization,
            temperature_c=request.temperature_c,
        )
        return (
            [(r.request_id, r.fopt_hz, r.accepted) for r in cycle["baseline"]],
            cycle["retrain"].to_record(),
            cycle["shadow"],
            cycle["promoted"],
            [(p.freq_hz, p.load_time_s, p.power_w) for p in table],
        )

    def _check_last(self) -> None:
        """No dropped tickets, no shadow mismatches, the swapped stream
        equal to the baseline, and every cycle equal to the first."""
        cycle, index = self.last, self.cycles
        expected = list(range(len(self.requests)))
        for phase in ("baseline", "shadowed", "swapped"):
            tickets = [response.request_id for response in cycle[phase]]
            if tickets != expected:
                dropped = len(set(expected) - set(tickets))
                self._fail(max(dropped, 1), f"cycle {index} {phase}: {dropped} dropped")
        scored, mismatches = cycle["shadow"]["scored"], cycle["shadow"]["mismatches"]
        if mismatches or not scored or not cycle["promoted"]:
            self._fail(
                max(mismatches, 1),
                f"cycle {index}: {mismatches} shadow mismatches of {scored}, "
                f"promoted={cycle['promoted']}",
            )
        diff = sum(
            1
            for a, b in zip(cycle["baseline"], cycle["swapped"])
            if (a.request_id, a.fopt_hz) != (b.request_id, b.fopt_hz)
        )
        if diff:
            self._fail(diff, f"cycle {index}: swapped stream differs at {diff}")
        payload = self._payload(cycle)
        if not index:
            self.first, self.first_stats = payload, cycle["stats"]
        elif payload != self.first:
            self._fail(1, f"cycle {index} differs from cycle 0")
        self.cycles += 1
        self.last = {}

    def _fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(f"learn {note}")

    def check(self) -> tuple[int, list[str]]:
        """The per-cycle checks ran between cycles."""
        return self.failed, self.notes

    def digest(self) -> str:
        return digest(self.first)

    def layer_values(self) -> dict[str, float]:
        return decisions.stats_values(self.first_stats)
