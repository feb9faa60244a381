"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {campaign,fleet,serve,learn} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` reruns the workload with spans around each layer's public
entry points and prints every per-layer metric instead.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record (provenance, output digest,
iteration samples, check notes), which is also written under
``.perfbench/``.  A failed output check prints the result with
``"correct": false`` and exits 1; a tree whose calibration fingerprint
differs from its pin prints no result and exits 3.
"""

from __future__ import annotations

import time

#: Process start, as near as the script can see it: ``setup_s`` runs
#: from here to the first timed operation.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("campaign", "fleet", "serve", "learn")
#: Set-ups per untraced run (this process plus fresh child processes);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Subpackages the jobs load; the traced run imports all of them before
#: tracing, so every ``from``-import of a traced callable is in place to
#: be rebound.
PROGRAM_PACKAGES = (
    "browser", "core", "experiments", "learn", "models", "runtime", "serve",
    "sim", "soc", "workloads",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def hermetic_environment() -> None:
    """No disk cache, no worker pools, nothing written outside the tree."""
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop("REPRO_FORCE_POOL", None)
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "cache")


def import_program(every_module: bool) -> None:
    """Import ``repro`` from this tree's ``src``; with ``every_module``,
    also every module of :data:`PROGRAM_PACKAGES`.  Untraced runs leave
    the rest to the workload, so set-up pays only for what the job
    loads."""
    import importlib
    import pkgutil

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")
    if not every_module:
        return
    for package in PROGRAM_PACKAGES:
        module = importlib.import_module(f"repro.{package}")
        for info in pkgutil.walk_packages(module.__path__, f"repro.{package}."):
            importlib.import_module(info.name)


def caches_at_start() -> dict[str, int]:
    """Fill levels of the in-process caches a job could inherit."""
    from repro.browser.pages import alexa_pages, page_by_name
    from repro.browser.render import render_workload_for
    from repro.sim.engine import template_cache_stats

    return {
        "templates": template_cache_stats()["size"],
        "alexa_pages": alexa_pages.cache_info().currsize,
        "page_by_name": page_by_name.cache_info().currsize,
        "render_workload_for": render_workload_for.cache_info().currsize,
    }


def git_state() -> tuple[str | None, bool | None]:
    """``(HEAD sha, dirty tree)``; ``(None, None)`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status)


def provenance() -> dict:
    import numpy

    from repro.experiments.cache import CALIBRATION_FINGERPRINT, CALIBRATION_TAG
    from repro.experiments.fingerprint import model_fingerprint

    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_tag": CALIBRATION_TAG,
        "fingerprint": model_fingerprint(),
        "pinned_fingerprint": CALIBRATION_FINGERPRINT,
    }


def make_workload(name: str, seed: int, tracer):
    from perfbench.workloads.campaign import CampaignWorkload
    from perfbench.workloads.fleet import FleetWorkload
    from perfbench.workloads.learn import LearnWorkload
    from perfbench.workloads.serve import ServeWorkload

    if name == "learn":
        return LearnWorkload(seed, tracer, WORK / "tmp" / f"learn-{os.getpid()}")
    return {
        "campaign": CampaignWorkload,
        "fleet": FleetWorkload,
        "serve": ServeWorkload,
    }[name](seed, tracer)


def child_setups(args: argparse.Namespace, count: int) -> list[float]:
    """``count`` set-up samples, each from a fresh process."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-only",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(measurement, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    from perfbench.stats import median, percentile, windowed_percentile

    iterations = measurement.iterations
    ops_per_s = median([it.rate for it in iterations])
    latencies = measurement.latencies_s
    return {
        "setup_s": (median(setup_samples), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "cpu_ms_per_op": (median([it.cpu_ms_per_op for it in iterations]), "ms"),
        "latency_p50_ms": (percentile(latencies, 50.0) * 1e3, "ms"),
        "latency_p99_ms": (windowed_percentile(latencies, 99.0) * 1e3, "ms"),
        "max_rate_rps": (
            measurement.max_rate_rps
            if measurement.max_rate_rps is not None
            else ops_per_s,
            "1/s",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def tracing_overhead(iterations) -> float:
    """Share of ``ops_per_s`` lost on traced iterations."""
    from perfbench.stats import median

    traced = [it.rate for it in iterations if it.traced]
    plain = [it.rate for it in iterations if not it.traced]
    return 1.0 - median(traced) / median(plain)


def per_layer(tracer, workload, measurement, templates) -> dict[str, tuple[float, str]]:
    """Every per-layer metric over set-up and the first timed iteration."""
    from perfbench.layers import METRICS, layer_metrics
    from perfbench.workloads.base import LAYER_OPS

    start, end = templates["start"], templates["scope_end"]
    hits = end["hits"] - start["hits"]
    misses = end["misses"] - start["misses"]
    values = {
        **workload.layer_values(),
        "sim.templates.hits": hits,
        "sim.templates.misses": misses,
        "sim.templates.evictions": end["evictions"] - start["evictions"],
        "sim.templates.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead": tracing_overhead(measurement.iterations),
    }
    return {
        name: (value, METRICS[name])
        for name, value in layer_metrics(tracer, LAYER_OPS, values).items()
    }


def run_workload(args: argparse.Namespace):
    """Set up, measure and check one workload.

    Returns ``(workload, measurement, setup_s, tracer, templates)``, or
    ``None`` after printing the set-up time with ``--setup-only``.
    """
    from perfbench.layers import PROBES
    from perfbench.tracing import Tracer
    from perfbench.workloads.base import SETUP_OP
    from repro.sim.engine import template_cache_stats

    tracer = None
    templates: dict[str, dict] = {"start": template_cache_stats()}
    if args.trace:
        tracer = Tracer()
        tracer.install(list(PROBES))
        tracer.scope_hooks.append(
            lambda: templates.__setitem__("scope_end", template_cache_stats())
        )
        tracer.op_id = SETUP_OP
        tracer.active = True
    workload = make_workload(args.workload, args.seed, tracer)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return None
        if tracer is not None:
            tracer.active = False
        measurement = workload.measure(args.seconds)
        if tracer is not None:
            tracer.restore()
        return workload, measurement, setup_s, tracer, templates
    finally:
        if args.workload == "learn":
            shutil.rmtree(workload.work_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    hermetic_environment()
    import_program(every_module=bool(args.trace))
    from perfbench.stats import tail_record

    # Refuse before anything is measured or written.
    identity = provenance()
    if identity["fingerprint"] != identity["pinned_fingerprint"]:
        print(
            f"perfbench: live calibration fingerprint {identity['fingerprint']} "
            f"differs from the pin {identity['pinned_fingerprint']}; "
            "refusing to write a result",
            file=sys.stderr,
        )
        return 3
    caches = caches_at_start()
    ran = run_workload(args)
    if ran is None:
        return 0
    workload, measurement, setup_s, tracer, templates = ran
    failed, notes = workload.check()
    setup_samples = [setup_s]
    if tracer is None:
        setup_samples += child_setups(args, SETUP_REPEATS - 1)
        metrics = end_to_end(measurement, setup_samples)
    else:
        metrics = per_layer(tracer, workload, measurement, templates)
        tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")

    attempted = max(measurement.attempted, 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": identity,
        "caches_at_start": caches,
        "digest": workload.digest(),
        "setup_s_samples": setup_samples,
        "latency_ms": tail_record(measurement.latencies_s, scale=1e3),
        "iterations": [vars(it) for it in measurement.iterations],
        "error_rate": failed / attempted,
        "check_notes": notes,
        **measurement.extra,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for note in notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps(record, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Import the benchmark as the ``perfbench`` package, not its files as
    # top-level modules.
    sys.path[0] = str(ROOT)
    sys.exit(main())
