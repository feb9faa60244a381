"""Telemetry store: record shape, fsync batching, partitioning."""

import json

import numpy as np
import pytest

from repro.browser.pages import page_by_name
from repro.learn.telemetry import (
    REQUIRED_FIELDS,
    TELEMETRY_SCHEMA,
    TelemetryStore,
    TelemetryWriter,
    decision_record,
)
from repro.serve.service import DecisionRequest, DecisionResponse


def _record(device="phone-0", mpki=2.0, accepted=True):
    return {
        "device_id": device,
        "page": [1500, 150, 300, 280, 120],
        "corunner_mpki": mpki,
        "corunner_utilization": 0.5,
        "temperature_c": 48.0,
        "deadline_s": 3.0,
        "fopt_hz": 1.19e9,
        "accepted": accepted,
    }


class TestDecisionRecord:
    def test_carries_every_required_field(self):
        request = DecisionRequest(
            device_id="phone-7",
            page=page_by_name("amazon").features,
            corunner_mpki=3.25,
            corunner_utilization=0.75,
            temperature_c=51.5,
            deadline_s=2.5,
        )
        response = DecisionResponse(
            request_id=42,
            device_id="phone-7",
            fopt_hz=1.7280e9,
            accepted=True,
            queue_delay_s=0.0,
            trace=None,
        )
        record = decision_record(request, response, now_s=1.5, model_version=3)
        for field in REQUIRED_FIELDS:
            assert field in record
        assert record["page"] == list(request.page.as_tuple())
        assert record["model_version"] == 3
        assert record["skipped"] is False
        assert record["simulated_load_time_s"] is None

    def test_schema_tag_is_versioned(self):
        assert TELEMETRY_SCHEMA.endswith("/1")


class TestWriterBatching:
    def test_records_buffer_until_the_batch_boundary(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        writer = TelemetryWriter(path, batch_size=4)
        for index in range(3):
            writer.append(_record(mpki=float(index)))
        # Below the batch size nothing has been synced yet.
        assert writer.sync_batches == 0
        assert path.read_text() == ""
        writer.append(_record(mpki=3.0))
        assert writer.sync_batches == 1
        assert writer.records_written == 4
        assert len(path.read_text().splitlines()) == 4
        writer.close()

    def test_close_flushes_the_tail(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        with TelemetryWriter(path, batch_size=64) as writer:
            writer.append(_record())
        assert writer.records_written == 1
        assert len(path.read_text().splitlines()) == 1
        writer.close()  # idempotent

    def test_missing_fields_are_rejected(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "s.jsonl", batch_size=1)
        bad = _record()
        del bad["fopt_hz"]
        with pytest.raises(ValueError, match="fopt_hz"):
            writer.append(bad)
        writer.close()

    def test_batch_size_floor(self, tmp_path):
        with pytest.raises(ValueError, match="batch size"):
            TelemetryWriter(tmp_path / "s.jsonl", batch_size=0)

    def test_lines_round_trip_floats_exactly(self, tmp_path):
        path = tmp_path / "shard-0000.jsonl"
        record = _record(mpki=2.0 / 3.0)
        with TelemetryWriter(path, batch_size=1) as writer:
            writer.append(record)
        replayed = json.loads(path.read_text())
        assert replayed["corunner_mpki"] == record["corunner_mpki"]


class TestStorePartitioning:
    def test_records_land_under_the_fingerprint(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe0123")
        assert store.partition == tmp_path / "cafe0123"
        assert store.shard_path(3).name == "shard-0003.jsonl"
        with pytest.raises(ValueError, match="shard index"):
            store.shard_path(-1)

    def test_different_calibrations_never_mix(self, tmp_path):
        old = TelemetryStore(tmp_path, fingerprint="aaaa")
        new = TelemetryStore(tmp_path, fingerprint="bbbb")
        with old.writer() as writer:
            writer.append(_record(device="old-phone"))
        with new.writer() as writer:
            writer.append(_record(device="new-phone"))
        devices = {record["device_id"] for record in new.iter_records()}
        assert devices == {"new-phone"}

    def test_iter_is_shard_major_append_order(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        with store.writer(shard=1) as writer:
            writer.append(_record(device="s1-a"))
        with store.writer(shard=0) as writer:
            writer.append(_record(device="s0-a"))
            writer.append(_record(device="s0-b"))
        devices = [record["device_id"] for record in store.iter_records()]
        assert devices == ["s0-a", "s0-b", "s1-a"]
        assert store.record_count() == 3

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        for shard in (0, 1):
            with store.writer(shard=shard) as writer:
                writer.append(_record(device=f"s{shard}-a"))
                writer.append(_record(device=f"s{shard}-b"))
            path = store.shard_path(shard)
            path.write_bytes(path.read_bytes()[:-7])
        devices = [record["device_id"] for record in store.iter_records()]
        assert devices == ["s0-a", "s1-a"]
        assert store.torn_lines == 2
        assert store.record_count() == 2
        assert store.torn_lines == 2

    def test_corrupt_complete_line_is_an_error(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        with store.writer() as writer:
            writer.append(_record(device="a"))
            writer.append(_record(device="b"))
        path = store.shard_path(0)
        first, second = path.read_text().splitlines()
        for lines in ([first[:-7], second], [first, second[:-7]]):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(json.JSONDecodeError):
                list(store.iter_records())

    def test_export_npz_encodes_missing_outcomes_as_nan(self, tmp_path):
        store = TelemetryStore(tmp_path, fingerprint="cafe", batch_size=1)
        with store.writer() as writer:
            record = _record()
            record["simulated_load_time_s"] = 1.25
            writer.append(record)
            writer.append(_record(accepted=False))
        out = tmp_path / "telemetry.npz"
        assert store.export_npz(out) == 2
        arrays = np.load(out)
        assert arrays["accepted"].tolist() == [True, False]
        assert arrays["simulated_load_time_s"][0] == 1.25
        assert np.isnan(arrays["simulated_energy_j"]).all()
