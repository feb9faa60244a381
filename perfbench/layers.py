"""The per-layer split: which public callables are traced, and the
metrics computed from their spans.

Every probe wraps a public entry point of one ``repro`` layer; the
hooks add the counts that only the returned values carry.
"""

from __future__ import annotations

from perfbench.tracing import Probe, Tracer

#: Stage keys of ``FleetEngine.stage_seconds``.
FLEET_STAGES = (
    "plan", "scalar_steps", "thermal_sweep", "write_back", "decide", "solo_tail",
)


def _count_checks(tracer, args, kwargs, result) -> None:
    tracer.count("browser.candidate_checks", result.candidate_checks)


def _see_page(tracer, args, kwargs, result) -> None:
    tracer.see("browser.render.pages", result.page_name)


def _count_simulated(tracer, args, kwargs, result) -> None:
    tracer.count("sim.simulated_s", result.duration_s)


def _count_fleet_simulated(tracer, args, kwargs, result) -> None:
    tracer.count("sim.simulated_s", sum(row.duration_s for row in result))


def _count_jobs(tracer, args, kwargs, result) -> None:
    tracer.count("runtime.jobs", len(result))
    tracer.count("runtime.failed", sum(1 for job in result if not job.ok))


def _count_rows(tracer, args, kwargs, result) -> None:
    tracer.count("serve.kernel.rows", result[0].shape[0])


def _count_retrain(tracer, args, kwargs, result) -> None:
    tracer.count("learn.records", result.records_seen)
    tracer.count("learn.vectors", result.vectors_unique)


def _keep_writer(tracer, args, kwargs, result) -> None:
    tracer.keep("learn.writers", result)


PROBES = (
    Probe("browser.pages", "repro.browser.pages", "build_page"),
    Probe("browser.match_styles", "repro.browser.css", "match_styles", _count_checks),
    Probe(
        "browser.render", "repro.browser.render", "build_render_workload", _see_page
    ),
    Probe("browser.tasks", "repro.browser.browser", "browser_tasks"),
    Probe("sim.engine", "repro.sim.engine", "Engine.run", _count_simulated),
    Probe(
        "sim.engine", "repro.sim.fleet_engine", "FleetEngine.run",
        _count_fleet_simulated,
    ),
    Probe("sim.fleet.build", "repro.sim.fleet_engine", "FleetEngine.__init__"),
    Probe("models.fit", "repro.models.training", "train_models"),
    Probe("models.table", "repro.models.predictor", "DoraPredictor.prediction_table"),
    Probe("runtime.run_jobs", "repro.runtime.pool", "run_jobs", _count_jobs),
    Probe("runtime.job", "repro.runtime.jobs", "execute"),
    Probe("serve.submit", "repro.serve.fleet", "FleetDecisionService.submit"),
    Probe("serve.poll", "repro.serve.fleet", "FleetDecisionService.poll"),
    Probe("serve.flush", "repro.serve.fleet", "FleetDecisionService.flush"),
    Probe(
        "serve.kernel", "repro.serve.batch_predictor", "BatchDoraPredictor.predict",
        _count_rows,
    ),
    Probe("learn.append", "repro.learn.telemetry", "TelemetryWriter.append"),
    Probe("learn.writer", "repro.learn.telemetry", "TelemetryStore.writer", _keep_writer),
    Probe(
        "learn.retrain", "repro.learn.retrain", "retrain_from_telemetry",
        _count_retrain,
    ),
    Probe("learn.label", "repro.learn.retrain", "label_chunk_job"),
    Probe("learn.publish", "repro.learn.registry", "ModelRegistry.publish"),
    Probe("learn.swap", "repro.serve.fleet", "FleetDecisionService.swap_model"),
    Probe("learn.shadow", "repro.learn.shadow", "ShadowScorer.score_batch"),
)

#: Per-layer metric names and units, in report order.  Values a
#: workload does not produce (the serve batching counters outside the
#: serve and learn workloads, say) report 0.
METRICS: dict[str, str] = {
    "browser.pages_s": "s",
    "browser.match_styles.calls": "count",
    "browser.match_styles.self_s": "s",
    "browser.candidate_checks": "count",
    "browser.render.calls": "count",
    "browser.render.distinct": "count",
    "browser.render.reuse": "ratio",
    "browser.tasks.self_s": "s",
    "sim.engine.calls": "count",
    "sim.engine.self_s": "s",
    "sim.simulated_s": "s",
    "sim.speed": "s/s",
    "sim.fleet.build_s": "s",
    **{f"sim.fleet.{stage}_s": "s" for stage in FLEET_STAGES},
    "sim.templates.hits": "count",
    "sim.templates.misses": "count",
    "sim.templates.evictions": "count",
    "sim.templates.hit_rate": "ratio",
    "models.fit.calls": "count",
    "models.fit.self_s": "s",
    "models.table.calls": "count",
    "models.table.self_s": "s",
    "runtime.jobs": "count",
    "runtime.failed": "count",
    "runtime.overhead_s": "s",
    "serve.submit.self_s": "s",
    "serve.poll.self_s": "s",
    "serve.flush.self_s": "s",
    "serve.kernel.calls": "count",
    "serve.kernel.rows": "count",
    "serve.kernel.self_s": "s",
    "serve.batches": "count",
    "serve.batch_mean": "count",
    "serve.flush_on_size": "count",
    "serve.flush_on_wait": "count",
    "serve.skips": "count",
    "serve.skip_rate": "ratio",
    "serve.rejected": "count",
    "serve.queue_p50_ms": "ms",
    "serve.queue_p99_ms": "ms",
    "serve.gen_late_ms": "ms",
    "learn.append.calls": "count",
    "learn.append.self_s": "s",
    "learn.sync_batches": "count",
    "learn.retrain.self_s": "s",
    "learn.label.self_s": "s",
    "learn.records": "count",
    "learn.vectors": "count",
    "learn.publish.self_s": "s",
    "learn.swap.self_s": "s",
    "learn.shadow.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(
    tracer: Tracer, ops: set[int], workload_values: dict[str, float]
) -> dict[str, float]:
    """Every metric of :data:`METRICS` over the spans of ``ops``.

    ``workload_values`` supplies what the workload measured itself
    (fleet stage seconds, service counters, template cache deltas, the
    tracing overhead); it overrides nothing computed from spans.
    """
    summary = tracer.summary(ops)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    renders = calls("browser.render")
    distinct = tracer.distinct_count("browser.render.pages", ops)
    simulated = tracer.counter("sim.simulated_s", ops)
    engine_s = total_s("sim.engine")
    writers = tracer.kept_objects("learn.writers", ops)
    from_spans = {
        "browser.pages_s": self_s("browser.pages"),
        "browser.match_styles.calls": calls("browser.match_styles"),
        "browser.match_styles.self_s": self_s("browser.match_styles"),
        "browser.candidate_checks": tracer.counter("browser.candidate_checks", ops),
        "browser.render.calls": renders,
        "browser.render.distinct": distinct,
        "browser.render.reuse": (renders - distinct) / renders if renders else 0.0,
        "browser.tasks.self_s": self_s("browser.tasks"),
        "sim.engine.calls": calls("sim.engine"),
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.simulated_s": simulated,
        "sim.speed": simulated / engine_s if engine_s > 0 else 0.0,
        "sim.fleet.build_s": total_s("sim.fleet.build"),
        "models.fit.calls": calls("models.fit"),
        "models.fit.self_s": self_s("models.fit"),
        "models.table.calls": calls("models.table"),
        "models.table.self_s": self_s("models.table"),
        "runtime.jobs": tracer.counter("runtime.jobs", ops),
        "runtime.failed": tracer.counter("runtime.failed", ops),
        "runtime.overhead_s": self_s("runtime.run_jobs"),
        "serve.submit.self_s": self_s("serve.submit"),
        "serve.poll.self_s": self_s("serve.poll"),
        "serve.flush.self_s": self_s("serve.flush"),
        "serve.kernel.calls": calls("serve.kernel"),
        "serve.kernel.rows": tracer.counter("serve.kernel.rows", ops),
        "serve.kernel.self_s": self_s("serve.kernel"),
        "learn.append.calls": calls("learn.append"),
        "learn.append.self_s": self_s("learn.append"),
        "learn.sync_batches": sum(writer.sync_batches for writer in writers),
        "learn.retrain.self_s": self_s("learn.retrain"),
        "learn.label.self_s": self_s("learn.label"),
        "learn.records": tracer.counter("learn.records", ops),
        "learn.vectors": tracer.counter("learn.vectors", ops),
        "learn.publish.self_s": self_s("learn.publish"),
        "learn.swap.self_s": self_s("learn.swap"),
        "learn.shadow.self_s": self_s("learn.shadow"),
    }
    clash = set(from_spans) & set(workload_values)
    if clash:
        raise ValueError(f"workload values shadow span metrics: {sorted(clash)}")
    unknown = set(workload_values) - set(METRICS)
    if unknown:
        raise ValueError(f"unknown per-layer metrics: {sorted(unknown)}")
    values = {**from_spans, **workload_values}
    return {name: float(values.get(name, 0.0)) for name in METRICS}
