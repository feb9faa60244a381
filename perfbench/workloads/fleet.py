"""``fleet``: build a seeded heterogeneous fleet, then run it repeatedly.

Set-up builds a ``FleetEngine`` over ``heterogeneous_fleet`` rows and
runs it once to warm up; the timed part is repeated ``run()`` calls,
each one operation per row.

``heterogeneous_fleet`` assigns pages, co-runners, governors,
frequencies and step sizes with periods dividing 84, and its seed
shifts the assignment by ``7919 * seed`` rows.  The fleet seed is
therefore ``84 * seed``: every workload seed gets the same rows -- and
so the same work -- under different ambient conditions, in a seeded
row order.
"""

from __future__ import annotations

import random
import time

from perfbench.layers import FLEET_STAGES
from perfbench.workloads.base import Measurement, digest, run_result_key, timed_loop

ROWS = 24
#: Period of heterogeneous_fleet's cost-relevant assignment.
_PERIOD = 84
#: Rows the output check re-runs on ReferenceEngine.
CHECK_SAMPLE = 3


class FleetWorkload:
    name = "fleet"

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.last: list = []
        self.runs = 0
        self.failed = 0
        self.notes: list[str] = []
        self.stage_seconds = dict.fromkeys(FLEET_STAGES, 0.0)

    def setup(self) -> None:
        from repro.sim.fleet_engine import FleetEngine, heterogeneous_fleet

        specs = list(heterogeneous_fleet(ROWS, seed=_PERIOD * self.seed))
        random.Random(f"perfbench-fleet-order:{self.seed}").shuffle(specs)
        self.specs = tuple(specs)
        # The stage clock is the engine's public timing hook; only the
        # traced run pays for it.
        clock = time.perf_counter if self.tracer is not None else None
        self.engine = FleetEngine(rows=self.specs, clock=clock)
        self.warm = [run_result_key(result) for result in self.engine.run()]

    def _run(self, index: int) -> int:
        self.last = self.engine.run()
        if index == 0 and self.tracer is not None:
            self.stage_seconds = dict(self.engine.stage_seconds)
        return len(self.last)

    def _compare_last(self) -> None:
        """The run just timed must repeat the warm-up run row for row."""
        keys = [run_result_key(result) for result in self.last]
        bad = sum(1 for a, b in zip(keys, self.warm) if a != b)
        bad += abs(len(keys) - len(self.warm))
        if bad:
            self.failed += bad
            self.notes.append(f"fleet run {self.runs}: {bad} rows differ from warm-up")
        self.runs += 1
        self.last = []

    def measure(self, seconds: float) -> Measurement:
        iterations = timed_loop(
            seconds, self._run, self.tracer, between=self._compare_last
        )
        return Measurement(
            iterations=iterations,
            latencies_s=[it.wall_s for it in iterations],
            attempted=sum(it.ops for it in iterations),
        )

    def check(self) -> tuple[int, list[str]]:
        """Every timed run repeated the warm-up run (compared between
        runs), and sampled rows are field-exact against their
        ReferenceEngine."""
        from repro.sim.fleet_engine import build_row_engine

        failed = self.failed
        notes = list(self.notes)
        rng = random.Random(f"perfbench-fleet-check:{self.seed}")
        for row in sorted(rng.sample(range(ROWS), CHECK_SAMPLE)):
            reference = build_row_engine(self.specs[row], "reference").run()
            if run_result_key(reference) != self.warm[row]:
                failed += 1
                notes.append(f"fleet row {row} differs from ReferenceEngine")
        return failed, notes

    def digest(self) -> str:
        return digest(self.warm)

    def layer_values(self) -> dict[str, float]:
        return {f"sim.fleet.{stage}_s": s for stage, s in self.stage_seconds.items()}
