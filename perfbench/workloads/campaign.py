"""``campaign``: a cold, serial measurement campaign plus the model fit.

One iteration is ``run_campaign`` + ``train_models`` over a fixed slice
of training pages, from small (``360``) to large (``espn``), each
measured alone and with its three suite co-runners at two frequencies.
The seed drives the measurement noise and which measurements the
output check replays; the slice -- and so the work -- is the same for
every seed.
"""

from __future__ import annotations

import random

from perfbench.workloads.base import Measurement, digest, timed_loop

PAGES = ("360", "amazon", "msn", "espn")
FREQS_HZ = (729.6e6, 1728.0e6)
#: Measurements the output check re-runs on ReferenceEngine.
CHECK_SAMPLE = 3


class CampaignWorkload:
    name = "campaign"

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.last: tuple = ()
        self.first: tuple = ()
        self.observations: list = []
        self.rounds = 0
        self.failed = 0
        self.notes: list[str] = []

    def setup(self) -> None:
        from repro.browser.pages import page_by_name
        from repro.models.training import TrainingConfig

        for page in PAGES:
            page_by_name(page)
        self.config = TrainingConfig(pages=PAGES, freqs_hz=FREQS_HZ, seed=self.seed)

    def _round(self, index: int) -> int:
        from repro.models.training import run_campaign, train_models

        observations = run_campaign(self.config, workers=0)
        self.last = (observations, train_models(observations))
        return len(observations)

    def _compare_last(self) -> None:
        """Every round must repeat the first."""
        payload = self._round_payload(*self.last)
        if not self.rounds:
            self.first = payload
            self.observations = self.last[0]
        elif payload != self.first:
            self.failed += len(self.last[0])
            self.notes.append(f"campaign round {self.rounds} differs from round 0")
        self.rounds += 1
        self.last = ()

    def measure(self, seconds: float) -> Measurement:
        iterations = timed_loop(
            seconds, self._round, self.tracer, between=self._compare_last
        )
        return Measurement(
            iterations=iterations,
            latencies_s=[it.wall_s for it in iterations],
            attempted=sum(it.ops for it in iterations),
        )

    def _round_payload(self, observations, models) -> tuple:
        return (
            tuple(observations),
            tuple(
                (
                    models.load_time_model.predict(obs.row),
                    models.power_model.predict(obs.row),
                )
                for obs in observations
            ),
        )

    def check(self) -> tuple[int, list[str]]:
        """Every round repeated the first (compared between rounds), and
        sampled measurements equal a ReferenceEngine run of the same
        measurement."""
        failed = self.failed
        notes = list(self.notes)
        observations = self.observations
        rng = random.Random(f"perfbench-campaign-check:{self.seed}")
        for index in sorted(rng.sample(range(len(observations)), CHECK_SAMPLE)):
            expected = self._reference_observation(index)
            if observations[index] != expected:
                failed += 1
                notes.append(
                    f"measurement {index} differs from ReferenceEngine: "
                    f"{observations[index]!r} != {expected!r}"
                )
        return failed, notes

    def _reference_observation(self, index: int):
        """Measurement ``index`` rebuilt on the per-step oracle."""
        from repro.browser.browser import browser_tasks
        from repro.browser.pages import page_by_name
        from repro.core.governors import FixedFrequencyGovernor
        from repro.models.features import IndependentVariables
        from repro.models.training import (
            Observation,
            campaign_pairs,
            corunner_signals,
            measurement_rng,
        )
        from repro.sim.engine import EngineConfig, ReferenceEngine
        from repro.sim.governor import RunContext
        from repro.sim.measurement import observe
        from repro.soc.device import Device
        from repro.workloads.kernels import kernel_by_name, kernel_task

        config = self.config
        page_name, kernel_name = campaign_pairs(config)[index // len(FREQS_HZ)]
        freq_hz = FREQS_HZ[index % len(FREQS_HZ)]
        device = Device()
        spec = device.spec
        page = page_by_name(page_name)
        tasks = browser_tasks(page).as_list()
        if kernel_name is not None:
            tasks.append(kernel_task(kernel_by_name(kernel_name)))
        result = ReferenceEngine(
            device=device,
            tasks=tasks,
            governor=FixedFrequencyGovernor(freq_hz=freq_hz, label="campaign"),
            context=RunContext(spec=spec, page_features=page.features),
            config=EngineConfig(
                dt_s=config.dt_s, max_time_s=config.max_time_s, record_trace=False
            ),
        ).run()
        measurement = observe(
            result,
            rng=measurement_rng(config.seed, index),
            load_time_noise=config.load_time_noise,
            power_noise=config.power_noise,
        )
        mpki, utilization = corunner_signals(result, kernel_name)
        state = spec.state_for(freq_hz)
        return Observation(
            page_name=page_name,
            kernel_name=kernel_name,
            row=IndependentVariables.build(
                page=page.features,
                l2_mpki=mpki,
                core_freq_hz=state.freq_hz,
                bus_freq_hz=state.bus_freq_hz,
                corunner_utilization=utilization,
            ),
            load_time_s=measurement.load_time_s,
            total_power_w=measurement.avg_power_w,
            avg_temperature_c=result.avg_temperature_c,
            voltage_v=state.voltage_v,
        )

    def digest(self) -> str:
        return digest(self.first)

    def layer_values(self) -> dict[str, float]:
        return {}
