"""The bench core: timer, result checks, envelope and record writer."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import repro.experiments.cache
from repro.bench import (
    BENCH_ENVELOPE_SCHEMA,
    RESULT_FIELDS,
    assert_same_results,
    bench_envelope,
    best_of,
    best_replays,
    count_mismatches,
    write_record,
)


def test_best_of_alternates_sides_and_keeps_each_sides_best_run():
    calls = []

    def side(name):
        def run():
            calls.append(name)
            return f"{name}{calls.count(name)}"

        return run

    # Rank by the run's value so the test does not depend on timing:
    # the second round of "a" and the first of "b" are the best.
    order = {"a1": 2, "a2": 1, "a3": 3, "b1": 0, "b2": 0, "b3": 5}
    runs = best_of(
        3, side("a"), side("b"), rank=lambda _seconds, value: order[value]
    )
    assert calls == ["a", "b"] * 3
    assert [value for _, value in runs] == ["a2", "b1"]  # first wins a tie
    assert all(seconds >= 0.0 for seconds, _ in runs)


def test_best_of_runs_at_least_one_round():
    calls = []
    best_of(0, lambda: calls.append("x"))
    assert calls == ["x"]


def test_best_replays_keeps_the_highest_throughput_run():
    rates = iter([10.0, 30.0, 20.0])

    def replay():
        return SimpleNamespace(throughput_rps=next(rates)), "extra"

    ((report, extra),) = best_replays(3, replay)
    assert report.throughput_rps == 30.0
    assert extra == "extra"


def test_assert_same_results_names_the_diverging_field():
    fields = {name: 1.0 for name in RESULT_FIELDS}
    ours = SimpleNamespace(**fields)
    theirs = SimpleNamespace(**{**fields, "energy_j": 2.0})
    assert_same_results("case", [ours], [SimpleNamespace(**fields)])
    with pytest.raises(AssertionError, match="case row 0.*energy_j"):
        assert_same_results("case", [ours], [theirs])
    with pytest.raises(AssertionError, match="1 results != 2"):
        assert_same_results("case", [ours], [ours, ours])


def test_count_mismatches():
    assert count_mismatches([1.0, 2.0, 3.0], [1.0, 5.0, 3.0]) == 1
    assert count_mismatches([], []) == 0


def test_envelope_records_provenance():
    envelope = bench_envelope("sim-bench", repeats=0, extra={"note": 1})
    assert envelope["schema"] == BENCH_ENVELOPE_SCHEMA
    assert envelope["command"] == "sim-bench"
    assert envelope["dirty"] in (True, False, None)
    assert envelope["repeats"] == 1  # at least one round always runs
    assert envelope["note"] == 1
    calibration = envelope["calibration"]
    assert calibration["fingerprint"] == calibration["pinned_fingerprint"]


def test_write_record_writes_the_envelope_and_payload(tmp_path):
    output = tmp_path / "BENCH.json"
    record = write_record("serve-bench", {"speedup": 2.0}, output, repeats=3)
    written = json.loads(output.read_text())
    assert output.read_text().endswith("}\n")
    assert written["speedup"] == 2.0
    assert written["envelope"]["command"] == "serve-bench"
    assert written["envelope"]["repeats"] == 3
    assert record["output_path"] == str(output)
    assert "output_path" not in written


def test_write_record_refuses_a_calibration_that_disagrees_with_the_pin(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(
        repro.experiments.cache, "CALIBRATION_FINGERPRINT", "0" * 16
    )
    output = tmp_path / "BENCH.json"
    with pytest.raises(RuntimeError, match="refusing to write"):
        write_record("sim-bench", {"speedup": 2.0}, output, repeats=1)
    assert not output.exists()
    assert list(tmp_path.iterdir()) == []
