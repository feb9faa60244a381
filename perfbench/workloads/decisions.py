"""Decision-service inputs shared by the serve and learn workloads.

The bundle is trained on a small campaign of light pages, and the
request stream replays counter traces harvested from the simulator.
Every input derives from the workload seed; the amount of work per
request does not, so different seeds cost the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Campaign behind the served bundle (light pages keep set-up short).
TRAIN_PAGES = ("360", "amazon")
TRAIN_FREQS_HZ = (729.6e6, 1190.4e6, 1728.0e6, 2265.6e6)
TRAIN_DT_S = 0.004
#: Pages whose suite combos are harvested for counter traces.
TRACE_PAGES = ("360", "twitter", "instagram", "alipay")
TRACE_DT_S = 0.004
#: Devices in the stream; each keeps one session in the service.
DEVICES = 64
#: Half the devices re-submit each counter vector this many times.
REVISIT_PERIOD = 4
#: Share of requests whose deadline no frequency can meet.
TIGHT_SHARE = 0.02
#: An effective deadline below the model's load-time floor.
TIGHT_DEADLINE_S = 0.01
#: Length of the seeded tight-deadline pattern (repeats after this).
_PATTERN = 1 << 16


def train_bundle(seed: int):
    """A small trained ``DoraPredictor``; the seed drives campaign noise."""
    from repro.models.training import TrainingConfig, run_campaign, train_models

    config = TrainingConfig(
        pages=TRAIN_PAGES, freqs_hz=TRAIN_FREQS_HZ, dt_s=TRAIN_DT_S, seed=seed
    )
    return train_models(run_campaign(config, workers=0)).predictor


def harvest():
    """Counter traces of every suite combo on :data:`TRACE_PAGES`."""
    from repro.experiments.harness import HarnessConfig
    from repro.experiments.suite import all_combos
    from repro.serve.loadgen import harvest_traces

    combos = [combo for combo in all_combos() if combo.page_name in TRACE_PAGES]
    return harvest_traces(combos=combos, config=HarnessConfig(dt_s=TRACE_DT_S))


@dataclass
class RequestStream:
    """The seeded per-device request sequence.

    Device ``d`` replays trace ``assign[d]`` from observation
    ``offset[d]``; its ``c``-th request carries observation
    ``offset + c`` -- or ``offset + c // REVISIT_PERIOD`` on a revisiting
    device, which re-submits an unchanged vector the skip cache can
    answer.  Exactly half the devices revisit.
    """

    traces: list
    seed: int

    def __post_init__(self) -> None:
        from repro.serve.service import DecisionRequest

        self._request_cls = DecisionRequest
        rng = random.Random(f"perfbench-stream:{self.seed}")
        self.assign = [rng.randrange(len(self.traces)) for _ in range(DEVICES)]
        self.offset = [rng.randrange(64) for _ in range(DEVICES)]
        revisiting = rng.sample(range(DEVICES), DEVICES // 2)
        self.revisit = [device in revisiting for device in range(DEVICES)]
        self.tight = bytes(rng.random() < TIGHT_SHARE for _ in range(_PATTERN))

    def key(self, device: int, count: int) -> tuple[int, int, bool]:
        """``(device, observation index, tight)`` of one request; equal
        keys are equal requests."""
        step = count // REVISIT_PERIOD if self.revisit[device] else count
        tight = bool(self.tight[(count * DEVICES + device) % _PATTERN])
        length = len(self.traces[self.assign[device]].observations)
        return device, (self.offset[device] + step) % length, tight

    def build(self, key: tuple[int, int, bool]):
        """The request a key describes."""
        device, step, tight = key
        trace = self.traces[self.assign[device]]
        observation = trace.observation(step)
        return self._request_cls(
            device_id=f"device-{device:04d}",
            page=trace.page,
            corunner_mpki=observation.corunner_mpki,
            corunner_utilization=observation.corunner_utilization,
            temperature_c=observation.temperature_c,
            deadline_s=TIGHT_DEADLINE_S if tight else trace.deadline_s,
        )

    def request(self, device: int, count: int):
        """Device ``device``'s ``count``-th request."""
        return self.build(self.key(device, count))

    def at(self, index: int):
        """Request ``index`` of the round-robin interleaving."""
        return self.request(index % DEVICES, index // DEVICES)

    def at_key(self, index: int) -> tuple[int, int, bool]:
        """The key of request ``index`` of the round-robin interleaving."""
        return self.key(index % DEVICES, index // DEVICES)


class ScalarOracle:
    """The scalar decision for a request: ``prediction_table`` then
    ``select_fopt``, memoised per distinct request."""

    def __init__(self, predictor, stream: RequestStream) -> None:
        from repro.core.ppw import select_fopt

        self._select = select_fopt
        self.predictor = predictor
        self.stream = stream
        self._memo: dict[tuple, float] = {}

    def fopt(self, key: tuple[int, int, bool]) -> float:
        value = self._memo.get(key)
        if value is None:
            request = self.stream.build(key)
            table = self.predictor.prediction_table(
                page_features=request.page,
                corunner_mpki=request.corunner_mpki,
                corunner_utilization=request.corunner_utilization,
                temperature_c=request.temperature_c,
            )
            value = self._select(table, request.deadline_s).freq_hz
            self._memo[key] = value
        return value

    def check(self, key, response) -> bool:
        """Whether a served response is the scalar answer, rejected
        exactly when its deadline is infeasible."""
        if response is None:
            return False
        device, _, tight = key
        return (
            response.device_id == f"device-{device:04d}"
            and response.fopt_hz == self.fopt(key)
            and response.accepted == (not tight)
        )


def stats_values(stats) -> dict[str, float]:
    """The per-layer ``serve.*`` counters of a service's ``merged_stats()``."""
    return {
        "serve.batches": stats.batches_total,
        "serve.batch_mean": stats.mean_batch_size(),
        "serve.flush_on_size": stats.flushes_on_size,
        "serve.flush_on_wait": stats.flushes_on_wait,
        "serve.skips": stats.skips_total,
        "serve.skip_rate": stats.skip_rate(),
        "serve.rejected": stats.rejected_total,
    }
