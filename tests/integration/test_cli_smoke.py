"""CLI smoke tests: every core command exits cleanly via ``main(argv)``.

Unlike the end-to-end CLI tests (which assert on specific command
output), these just drive each command with tiny configurations and a
temporary cache directory -- the "does the wiring hold together"
check, covering ``list``, ``run``, ``sweep`` and every ``*-bench``
command.
"""

import json

import pytest

import repro.api
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated(monkeypatch, tmp_path, small_models):
    """Tiny models and a throwaway cache for every command."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setattr(
        repro.api, "default_trained_models", lambda config=None: small_models
    )
    monkeypatch.setattr(
        repro.api, "default_predictor", lambda config=None: small_models.predictor
    )


def test_list_smoke(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pages:" in out
    assert "governors:" in out


def test_run_smoke(capsys):
    assert main(["run", "amazon", "--governor", "interactive"]) == 0
    assert "load time" in capsys.readouterr().out


def test_sweep_smoke(capsys):
    assert main(["sweep", "amazon"]) == 0
    assert "fopt=" in capsys.readouterr().out


#: Tiny argument lists for every bench command: each exercises the
#: command's whole pipeline and record writer in a couple of seconds.
_SERVE_SMOKE = [
    "--smoke", "--devices", "4", "--requests", "64",
    "--batch-size", "16", "--qps", "50000",
]
BENCH_SMOKE_ARGS = {
    "sim-bench": ["--smoke", "--repeats", "1"],
    "fleetsim-bench": ["--rows", "4", "--repeats", "1"],
    "serve-bench": _SERVE_SMOKE,
    "fleet-bench": [*_SERVE_SMOKE, "--workers", "2"],
    "swap-bench": [
        "--smoke", "--devices", "4", "--requests", "64",
        "--revisit-period", "4", "--shards", "2",
    ],
}


@pytest.mark.parametrize("command", sorted(BENCH_SMOKE_ARGS))
def test_bench_command_smoke(command, capsys, tmp_path):
    output = tmp_path / "BENCH.json"
    argv = [command, *BENCH_SMOKE_ARGS[command], "--output", str(output)]
    if command == "swap-bench":
        argv += ["--work-dir", str(tmp_path / "swap-work")]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert f"wrote {output}" in out
    record = json.loads(output.read_text())
    assert record["envelope"]["command"] == command
    if command == "serve-bench":
        assert "throughput" in out
        assert "0 fopt mismatches" in out
        assert record["fopt_mismatches"] == 0
        assert record["requests"] == 64
        assert record["throughput_rps"] > 0


def test_serve_bench_is_registered():
    parser = build_parser()
    args = parser.parse_args(["serve-bench", "--smoke"])
    assert args.smoke
    assert args.batch_size == 64  # default flush-on-size
