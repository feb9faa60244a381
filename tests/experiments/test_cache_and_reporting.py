"""Artifact cache and text-reporting tests."""

import pytest

from repro.experiments import cache as artifact_cache
from repro.experiments.reporting import banner, format_table, frac, ghz, pct, seconds


class TestArtifactCache:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

    def test_builder_runs_once(self):
        calls = []

        def build():
            calls.append(1)
            return {"answer": 42}

        first = artifact_cache.memoized("unit", ("k",), build)
        second = artifact_cache.memoized("unit", ("k",), build)
        assert first == second == {"answer": 42}
        assert len(calls) == 1

    def test_different_keys_are_distinct(self):
        a = artifact_cache.memoized("unit", ("a",), lambda: 1)
        b = artifact_cache.memoized("unit", ("b",), lambda: 2)
        assert (a, b) == (1, 2)

    def test_no_cache_env_disables_persistence(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []
        for _ in range(2):
            artifact_cache.memoized("unit", ("k2",), lambda: calls.append(1))
        assert len(calls) == 2

    def test_corrupt_artifact_is_rebuilt(self):
        artifact_cache.memoized("unit", ("k3",), lambda: "good")
        (pickle_file,) = list(artifact_cache.cache_dir().glob("unit-*.pkl"))
        pickle_file.write_bytes(b"not a pickle")
        rebuilt = artifact_cache.memoized("unit", ("k3",), lambda: "rebuilt")
        assert rebuilt == "rebuilt"

    @pytest.mark.parametrize(
        "payload",
        [
            # A global whose module no longer exists (a moved class).
            b"cnonexistent_module_xyz\nThing\n.",
            # A protocol-2 header with an unsupported protocol number.
            b"\x80\xff.",
            # A BINUNICODE string whose bytes are not valid UTF-8.
            b"X\x02\x00\x00\x00\xff\xfe.",
        ],
    )
    def test_unloadable_artifact_is_a_miss_and_removed(self, payload):
        path = artifact_cache.artifact_path("unit", ("k5",))
        path.write_bytes(payload)
        assert artifact_cache.peek("unit", ("k5",)) == (False, None)
        assert not path.exists()
        path.write_bytes(payload)
        rebuilt = artifact_cache.memoized("unit", ("k5",), lambda: "rebuilt")
        assert rebuilt == "rebuilt"
        assert artifact_cache.peek("unit", ("k5",)) == (True, "rebuilt")

    def test_clear_removes_artifacts(self):
        artifact_cache.memoized("unit", ("k4",), lambda: 1)
        assert artifact_cache.clear() >= 1
        assert list(artifact_cache.cache_dir().glob("*.pkl")) == []


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(("name", "value"), [("a", 1), ("longer", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [("only-one",)])

    def test_pct_is_signed_change(self):
        assert pct(1.16) == "+16.0%"
        assert pct(0.98) == "-2.0%"

    def test_frac(self):
        assert frac(0.215) == "21.5%"
        assert frac(0.5, digits=0) == "50%"

    def test_ghz(self):
        assert ghz(1497.6e6) == "1.50"
        assert ghz(None) == "--"

    def test_seconds(self):
        assert seconds(1.234) == "1.23s"
        assert seconds(None) == "timeout"

    def test_banner_contains_title(self):
        assert "Fig. 7" in banner("Fig. 7")
