"""BENCHMARK.json, spec.json and the code name the same things."""

from __future__ import annotations

import json
from pathlib import Path

from perfbench import run
from perfbench.layers import METRICS
from perfbench.workloads import decisions, serve
from perfbench.workloads.base import Iteration, Measurement

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "spec.json").read_text())


def test_workloads_agree():
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert tuple(names) == run.WORKLOADS
    assert list(SPEC["workloads"]) == names
    assert all(len(workload["why"]) <= 200 for workload in BENCHMARK["workloads"])


def test_end_to_end_metrics_agree():
    measurement = Measurement(
        iterations=[Iteration(10, 1.0, 0.5, False)], latencies_s=[0.001] * 20
    )
    printed = run.end_to_end(measurement, [1.0])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == {name: unit for name, (_, unit) in printed.items()}
    assert set(SPEC["end_to_end"]) - {"error_rate"} == set(declared)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_per_layer_metrics_agree():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == METRICS
    assert {name.split(".")[0] for name in METRICS} == set(SPEC["layers"])


def test_serve_rates_agree():
    spec = SPEC["workloads"]["serve"]
    assert spec["nominal_rps"] == serve.NOMINAL_RPS
    assert spec["limit_ms"] == serve.LIMIT_S * 1e3
    assert serve.LADDER_RPS[0] == 1000 and serve.LADDER_RPS[-1] == 128000
    assert len(serve.LADDER_RPS) == 57
    assert decisions.DEVICES == 64 and decisions.REVISIT_PERIOD == 4
