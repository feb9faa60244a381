"""Runtime throughput: serial vs parallel suite evaluation.

Times a six-combo suite evaluation cold (``REPRO_NO_CACHE=1``) both
serially and over four workers, records the measured speedup in
``BENCH_runtime.json`` at the repo root (through
:func:`repro.bench.write_record`, so it carries the shared envelope),
and — on machines with enough cores to make the bar meaningful —
asserts the >= 2.5x acceptance threshold.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import timed, write_record
from repro.experiments.harness import HarnessConfig, evaluate_suite
from repro.experiments.suite import WorkloadCombo
from repro.models.training import TrainingConfig, run_campaign, train_models
from repro.workloads.classification import MemoryIntensity

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_runtime.json"

SIX_COMBOS = (
    WorkloadCombo("amazon", "kmeans", MemoryIntensity.LOW, True),
    WorkloadCombo("amazon", "bfs", MemoryIntensity.MEDIUM, True),
    WorkloadCombo("amazon", "backprop", MemoryIntensity.HIGH, True),
    WorkloadCombo("espn", "hotspot", MemoryIntensity.LOW, True),
    WorkloadCombo("espn", "srad2", MemoryIntensity.MEDIUM, True),
    WorkloadCombo("espn", "needleman-wunsch", MemoryIntensity.HIGH, True),
)

GOVERNORS = ("interactive", "performance", "EE")


@pytest.fixture(scope="module")
def bench_predictor():
    """A small trained predictor, built outside the timed sections."""
    training = TrainingConfig(
        pages=("amazon", "espn"),
        freqs_hz=(729.6e6, 1190.4e6, 1728.0e6, 2265.6e6),
        dt_s=0.004,
        seed=7,
    )
    return train_models(run_campaign(training)).predictor


def test_parallel_suite_throughput(bench_predictor, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # cold cache in both runs
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    config = HarnessConfig(dt_s=0.004)
    workers = 4

    def suite(count):
        return evaluate_suite(
            bench_predictor, combos=SIX_COMBOS, governors=GOVERNORS,
            config=config, workers=count,
        )

    serial_s, serial = timed(lambda: suite(0))
    parallel_s, parallel = timed(lambda: suite(workers))
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    payload = {
        "combos": len(SIX_COMBOS),
        "governors": list(GOVERNORS),
        "dt_s": config.dt_s,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "workers": workers,
        "cpu_count": os.cpu_count(),
    }
    write_record("runtime-bench", payload, BENCH_PATH, repeats=1)

    # Parallelism must never change the numbers.
    for lhs, rhs in zip(serial, parallel):
        assert lhs.runs.keys() == rhs.runs.keys()
        for name in lhs.runs:
            assert lhs.runs[name] == rhs.runs[name]

    # The speedup bar only means something with real cores under it.
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.5, (
            f"expected >= 2.5x on {os.cpu_count()} cores, got {speedup:.2f}x"
        )
