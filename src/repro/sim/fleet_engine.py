"""Struct-of-arrays fleet simulation: many devices in lockstep.

One :class:`~repro.sim.engine.Engine` advances one phone.  Campaigns,
fleet benches and the serving stack's digital twin instead want
*populations*: hundreds of heterogeneous devices (different pages,
co-runners, governors, ambient temperatures, even step sizes) advanced
together.  :class:`FleetEngine` does that without forking the
simulator's semantics:

* Every row keeps its own :class:`~repro.sim.engine.Engine` for the
  event-adjacent scalar work -- equilibrium solves, template building,
  single-step fallbacks, governor decisions -- so a fleet row runs
  exactly the regime-stepped fast path's code.
* The interior of each regime is executed across rows: one batched
  planner builds every plannable row's resumed cumulative-sum planning
  table (rows sharing a step count share one grouped accumulate), and
  the thermal/leakage recurrences of all untraced rows advance in one
  no-series pass (:func:`repro.soc.numerics.advance_thermal_rows`).
  Traced rows, which need the per-step series, commit through the solo
  fast path's :meth:`Engine._integrate_regime`.

Rows are fully independent -- no cross-row arithmetic ever happens --
so heterogeneity costs nothing in correctness: a row that plans 50
steps and a row that plans 7 share the same passes, each reading only
its own values.  The bit-exactness contract is the same as the fast
path's: any row sliced out of a fleet run reproduces the single-device
:class:`~repro.sim.engine.ReferenceEngine` result field-exactly
(asserted by ``tests/sim/test_fleet_engine.py``).
"""
# repro: bit-exact -- every fleet row must equal a single-device
# ReferenceEngine run bit for bit (R003 forbids BLAS/pairwise
# reductions in this module).

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.sim import engine as _engine
from repro.sim.engine import (
    Engine,
    EngineConfig,
    ReferenceEngine,
    RunResult,
    _LoopState,
    _RegimePlan,
)
from repro.sim.governor import Governor, RunContext
from repro.soc.numerics import accumulate_rows, advance_thermal_rows

#: Below this many live rows the per-epoch NumPy passes cost more than
#: they amortize, so the fleet finishes its stragglers through the solo
#: regime-stepped loop (bit-identical either way; this is purely an
#: execution-strategy switch).  16 measured fastest on the bench host
#: (1.07s -> 1.02s at 256 rows vs a cutoff of 4); the equivalence
#: tests pin this to 0 so small fleets still exercise the batched
#: path.
_SOLO_TAIL_ROWS = 16

#: Planning-horizon cap for chained regimes (regimes that run through
#: provably no-op decision boundaries).  Chains are usually bounded by
#: a phase crossing well before this; the cap only bounds the transient
#: size of one epoch's grouped planning tables.
_MAX_CHAIN_STEPS = 1024


def _zero_clock() -> float:
    """Default stage clock: simulation code never reads wall time."""
    return 0.0


#: Stage keys of :attr:`FleetEngine.stage_seconds`.
_STAGES = (
    "plan", "scalar_steps", "thermal_sweep", "write_back", "decide",
    "solo_tail",
)

#: Governor kinds a row spec can name (model-free, so fleet building
#: never needs a trained bundle; custom governors go through
#: ``FleetEngine(engines=...)``).
_ROW_GOVERNORS = ("fixed", "interactive", "ondemand")


@dataclass(frozen=True)
class FleetRowSpec:
    """One device row of a heterogeneous fleet.

    Attributes:
        page: Page the device loads.
        kernel: Optional co-runner kernel.
        governor: ``"fixed"``, ``"interactive"`` or ``"ondemand"``.
        freq_hz: Operating point (required for ``"fixed"``).
        ambient_c: Environment temperature of the row's device.
        initial_junction_c: Junction temperature at run start.
        dt_s: The row's simulation step.
        max_time_s: The row's safety timeout.
        deadline_s: QoS target handed to the governor context.
        record_trace: Keep the row's per-step time series.
    """

    page: str
    kernel: str | None = None
    governor: str = "interactive"
    freq_hz: float | None = None
    ambient_c: float = 25.0
    initial_junction_c: float = 48.0
    dt_s: float = 0.002
    max_time_s: float = 60.0
    deadline_s: float = 3.0
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.governor not in _ROW_GOVERNORS:
            raise KeyError(f"unknown row governor {self.governor!r}")
        if self.governor == "fixed" and self.freq_hz is None:
            raise ValueError("a 'fixed' row needs freq_hz")


def _row_governor(spec: FleetRowSpec) -> Governor:
    # Imported here (with the workload builders below) to keep this
    # module importable from ``repro.sim`` without a cycle through the
    # browser package, which itself imports ``repro.sim.task``.
    from repro.core.governors import (
        FixedFrequencyGovernor,
        InteractiveGovernor,
        OndemandGovernor,
    )

    if spec.governor == "fixed":
        assert spec.freq_hz is not None
        return FixedFrequencyGovernor(freq_hz=spec.freq_hz, label="fixed")
    if spec.governor == "interactive":
        return InteractiveGovernor()
    return OndemandGovernor()


def build_row_engine(spec: FleetRowSpec, engine: str = "fast") -> Engine:
    """Build the single-device engine a fleet row corresponds to.

    With ``engine="reference"`` this is the row's bit-exactness oracle:
    the same device, tasks, governor and config, run through
    :class:`~repro.sim.engine.ReferenceEngine`'s per-step loop.
    """
    from repro.browser.browser import browser_tasks
    from repro.browser.pages import page_by_name
    from repro.soc.device import Device, DeviceConfig
    from repro.soc.thermal import AmbientScenario
    from repro.workloads.kernels import kernel_by_name, kernel_task

    scenario = AmbientScenario(
        name=f"fleet-{spec.ambient_c:g}-{spec.initial_junction_c:g}",
        ambient_c=spec.ambient_c,
        initial_junction_c=spec.initial_junction_c,
    )
    device = Device(DeviceConfig(ambient=scenario))
    page = page_by_name(spec.page)
    tasks = browser_tasks(page).as_list()
    if spec.kernel is not None:
        tasks.append(kernel_task(kernel_by_name(spec.kernel)))
    cls = ReferenceEngine if engine == "reference" else Engine
    return cls(
        device=device,
        tasks=tasks,
        governor=_row_governor(spec),
        context=RunContext(
            spec=device.spec,
            deadline_s=spec.deadline_s,
            page_features=page.features,
        ),
        config=EngineConfig(
            dt_s=spec.dt_s,
            max_time_s=spec.max_time_s,
            record_trace=spec.record_trace,
            engine=engine,
        ),
    )


_FLEET_PAGES = ("amazon", "espn", "aliexpress", "msn")
_FLEET_KERNELS = (None, "backprop", "needleman-wunsch", "srad")
_FLEET_FREQS = (729.6e6, 1036.8e6, 1190.4e6, 1728.0e6, 1958.4e6, 2265.6e6)
#: (ambient_c, initial_junction_c) pairs: room, cooled (Fig. 10b),
#: warm device, and a hot pocket.
_FLEET_AMBIENTS = ((25.0, 48.0), (5.0, 26.0), (25.0, 58.0), (35.0, 52.0))
#: Campaign-weighted governor mix (fixed sweeps dominate real
#: campaigns; the utilization governors ride along).
_FLEET_GOVERNOR_MIX = (
    "fixed", "fixed", "fixed", "fixed", "interactive", "ondemand",
)
_FLEET_DTS = (0.002, 0.002, 0.004)


def heterogeneous_fleet(
    rows: int, seed: int = 0, record_trace: bool = False
) -> tuple[FleetRowSpec, ...]:
    """A deterministic heterogeneous fleet of ``rows`` devices.

    Pages, co-runners, operating points, governors, ambient conditions
    and step sizes all vary across rows (coprime strides decorrelate
    the cycles); ``seed`` rotates the whole assignment.  Purely
    arithmetic -- the same ``(rows, seed)`` always yields the same
    fleet, which is what makes fleet benches and the serving digital
    twin replayable.
    """
    if rows < 1:
        raise ValueError("need at least one fleet row")
    specs = []
    for row in range(rows):
        index = row + 7919 * seed
        governor = _FLEET_GOVERNOR_MIX[index % len(_FLEET_GOVERNOR_MIX)]
        ambient_c, junction_c = _FLEET_AMBIENTS[
            (index // 5) % len(_FLEET_AMBIENTS)
        ]
        specs.append(
            FleetRowSpec(
                page=_FLEET_PAGES[index % len(_FLEET_PAGES)],
                kernel=_FLEET_KERNELS[(index // 3) % len(_FLEET_KERNELS)],
                governor=governor,
                freq_hz=(
                    _FLEET_FREQS[(index // 2) % len(_FLEET_FREQS)]
                    if governor == "fixed"
                    else None
                ),
                ambient_c=ambient_c,
                initial_junction_c=junction_c,
                dt_s=_FLEET_DTS[(index // 7) % len(_FLEET_DTS)],
                record_trace=record_trace,
            )
        )
    return tuple(specs)


class FleetEngine:
    """Advances many device simulations in lockstep.

    Each *fleet epoch* gives every live row exactly one iteration of
    :meth:`Engine.run`'s loop -- a planned bulk regime, or one scalar
    step -- so a row's operation sequence is identical to running its
    engine alone.  All regimes planned in the same epoch are then
    integrated and committed together (see :meth:`_execute_plans`).

    Args:
        rows: Fleet row specs to build engines from.
        engines: Prebuilt engines to drive instead (exactly one of
            ``rows`` / ``engines`` must be given).  Engines are
            coerced to the fast path; each must be a distinct object
            (rows own their mutable device/task state).
        clock: Monotonic-seconds source for the per-stage timing in
            :attr:`stage_seconds` (e.g. ``time.perf_counter``).
            Simulation code never reads the wall clock itself; without
            an injected clock the breakdown stays all-zero and the
            simulation is unaffected either way.
    """

    def __init__(
        self,
        rows: Sequence[FleetRowSpec] | None = None,
        engines: Sequence[Engine] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if (rows is None) == (engines is None):
            raise ValueError("pass exactly one of rows= or engines=")
        if rows is not None:
            built = [build_row_engine(spec) for spec in rows]
        else:
            assert engines is not None
            built = list(engines)
            for engine in built:
                if isinstance(engine, ReferenceEngine):
                    raise TypeError(
                        "FleetEngine drives the fast path; run "
                        "ReferenceEngine rows individually (they are "
                        "the oracle, not fleet material)"
                    )
                if engine.config.engine != "fast":
                    engine.config = replace(engine.config, engine="fast")
            if len({id(engine) for engine in built}) != len(built):
                raise ValueError("each fleet row needs its own engine")
        if not built:
            raise ValueError("need at least one fleet row")
        self.engines: list[Engine] = built
        self._clock: Callable[[], float] = (
            clock if clock is not None else _zero_clock
        )
        #: Seconds per pipeline stage of the last ``run()`` (keys in
        #: :data:`_STAGES`) measured on the injected ``clock``; the
        #: fleet bench reports these so a throughput regression is
        #: attributable to a stage.  All-zero when no clock was given.
        self.stage_seconds: dict[str, float] = {}
        # Per-run working state, rebuilt at the top of every run().
        self._max_times: list[float] = []
        self._intervals: list[float] = []
        self._dt_list: list[float] = []
        self._decay_list: list[float] = []
        self._ambient_list: list[float] = []
        self._r_th_list: list[float] = []
        self._record_rows: list[bool] = []
        self._chain_targets: list[tuple[str, float, float] | None] = []
        self._plan_cache: dict[int, tuple] = {}
        self._seg_cache: dict[int, tuple] = {}

    def run(self) -> list[RunResult]:
        """Simulate every row to completion; results in row order."""
        engines = self.engines
        loops = [engine._begin() for engine in engines]
        # Per-row run constants, hoisted out of the epoch loop.  The
        # decay factor is exp(-dt / tau) via math.exp, exactly as the
        # scalar thermal model computes it.
        self._max_times = [engine.config.max_time_s for engine in engines]
        self._intervals = [engine.governor.interval_s for engine in engines]
        self._dt_list = [loop.dt for loop in loops]
        self._decay_list = [
            math.exp(-loop.dt / engine.device.thermal.tau_s)
            for engine, loop in zip(engines, loops)
        ]
        self._ambient_list = [
            engine.device.thermal.ambient_c for engine in engines
        ]
        self._r_th_list = [
            engine.device.thermal.r_th_c_per_w for engine in engines
        ]
        self._record_rows = [engine.config.record_trace for engine in engines]
        self._chain_targets = [
            self._chain_target(engine) for engine in engines
        ]
        self._seg_cache = {}
        # Per-row plan signature (state, running, template), reused
        # across epochs.  A row's signature can only change through a
        # scalar step (phase walks, task completion) or a frequency
        # switch; steps invalidate the entry and switches are caught by
        # the state identity check at reuse time, so a cached signature
        # is always exactly what _regime_template would return.
        self._plan_cache = {}
        stage = dict.fromkeys(_STAGES, 0.0)
        self.stage_seconds = stage
        clock = self._clock
        results: list[RunResult | None] = [None] * len(engines)
        active = list(range(len(engines)))
        while active:
            if len(active) <= _SOLO_TAIL_ROWS:
                # Straggler tail: too few rows left for the batched
                # passes to amortize; finish them on the solo loop.
                started = clock()
                for index in active:
                    results[index] = self._run_solo_tail(
                        engines[index], loops[index]
                    )
                stage["solo_tail"] += clock() - started
                break
            started = clock()
            planned, stepping = self._plan_epoch(
                engines, loops, active, results
            )
            stage["plan"] += clock() - started
            started = clock()
            for index in stepping:
                if not engines[index]._step(loops[index]):
                    results[index] = engines[index]._finish(loops[index])
            stage["scalar_steps"] += clock() - started
            if planned:
                self._execute_plans(engines, loops, planned, stage)
            active = [index for index in active if results[index] is None]
        return [result for result in results if result is not None]

    @staticmethod
    def _run_solo_tail(engine: Engine, loop: _LoopState) -> RunResult:
        """Finish one row through the solo regime-stepped loop.

        Exactly the body of :meth:`Engine.run`'s fast path, resumed on
        the fleet's in-flight loop state -- where a regime is cut makes
        no difference to the committed values (every accumulation
        resumes from its running total), so switching strategies
        mid-run is bit-exact.
        """
        max_time = engine.config.max_time_s
        while loop.time_s < max_time:
            if loop.regime_cooldown:
                loop.regime_cooldown -= 1
            elif engine._run_regime(loop):
                continue
            if not engine._step(loop):
                break
        return engine._finish(loop)

    def _plan_epoch(
        self,
        engines: list[Engine],
        loops: list[_LoopState],
        active: list[int],
        results: list[RunResult | None],
    ) -> tuple[list[tuple[int, _RegimePlan, tuple | None]], list[int]]:
        """Plan all plannable rows of one epoch together.

        The batched counterpart of calling :meth:`Engine._plan_regime`
        once per row: one NumPy pass over packed struct-of-arrays
        estimates every row's event distance, rows sharing a step
        count advance their planning tables through one grouped
        :func:`~repro.soc.numerics.accumulate_rows` call, and each
        row's exact boundary seal (:meth:`Engine._seal_plan`) runs on
        its slice of the group table.  Rows are planned down to
        single-step regimes (``min_steps=1``): with the planning
        overhead amortized across the fleet, even a one-step bulk
        commit is cheaper than the scalar step path.

        Rows whose due decisions are provably no-ops (see
        :meth:`_chain_target`) plan *through* decision boundaries in
        one chained regime: the boundary's only observable effects --
        the decision-log entry, the governor-context timestamp and the
        window reset -- are reconstructed at commit time
        (:meth:`_seal_chained` / :meth:`_commit_chain`), everything
        else in the regime is unaffected by the boundary, so the
        committed row state is bit-identical to deciding at every
        interval.

        Returns ``(planned, stepping)``: the sealed plans (with their
        chain commits, if any) and the rows that must take a scalar
        step instead.  Rows at their safety timeout are finished into
        ``results`` here.
        """
        plan_cache = self._plan_cache
        max_times = self._max_times
        intervals = self._intervals
        chain_targets = self._chain_targets
        max_steps = _engine._MAX_REGIME_STEPS
        chain_cap = min(_MAX_CHAIN_STEPS, max_steps)
        candidates: list[tuple] = []
        stepping: list[int] = []
        # The event-distance estimate packs SoA-style while rows
        # classify: one array op chain replaces the per-row Python
        # mins of the scalar estimate.  Per-row bound first (timeout
        # and decision boundary include their step), then the per-task
        # phase-crossing mins via a segmented reduction.  min(a, b)/dt
        # equals min(a/dt, b/dt) exactly (division by a positive is
        # monotone and applied to whichever operand won), and every
        # elementwise op rounds identically to the scalar path; the
        # boundary seal never trusts the estimate anyway.
        time_left: list[float] = []
        window_left: list[float] = []
        dts: list[float] = []
        caps: list[float] = []
        segments: list[int] = []
        done_flat: list[float] = []
        budget_flat: list[float] = []
        instr_flat: list[float] = []
        for index in active:
            engine = engines[index]
            loop = loops[index]
            if loop.time_s >= max_times[index]:
                results[index] = engine._finish(loop)
                plan_cache.pop(index, None)
                continue
            if loop.regime_cooldown:
                loop.regime_cooldown -= 1
                stepping.append(index)
                plan_cache.pop(index, None)
                continue
            if loop.pending_stall_s > 0:
                stepping.append(index)
                plan_cache.pop(index, None)
                continue
            cached = plan_cache.get(index)
            if cached is not None and engine.device.state is cached[0]:
                state, running, template = cached
            else:
                running = [task for task in engine.tasks if task.running]
                if not running:
                    # _step will return False and finish the row.
                    stepping.append(index)
                    plan_cache.pop(index, None)
                    continue
                state = engine.device.state
                template = engine._regime_template(loop, state, running)
                plan_cache[index] = (state, running, template)
            chain = chain_targets[index]
            if chain is None:
                chained = False
                target = 0.0
            else:
                mode, target, anchor = chain
                if mode == "fixed":
                    # A pinned row chains from any window position: the
                    # boundary ignores the counter sample entirely.
                    chained = state.freq_hz == anchor
                else:
                    # Utilization rows chain only from a fresh window
                    # (elapsed 0 implies the window dict is empty), so
                    # every in-chain sample is a full segment with
                    # utilization exactly 1.0.
                    chained = (
                        state.freq_hz == anchor
                        and loop.window_s == 0.0
                        and engine.device.counters.elapsed_s == 0.0
                    )
            candidates.append(
                (index, engine, loop, state, running, template, chained,
                 target)
            )
            time_left.append(max_times[index] - loop.time_s)
            # Chained rows ignore the decision boundary: the chain seal
            # reconstructs every boundary the regime runs through.
            window_left.append(
                math.inf if chained else intervals[index] - loop.window_s
            )
            caps.append(chain_cap if chained else max_steps)
            dts.append(loop.dt)
            segments.append(len(done_flat))
            done_flat.extend(
                task.instructions_done_in_phase for task in running
            )
            budget_flat.extend(template.budgets)
            instr_flat.extend(template.instructions)
        if not candidates:
            return [], stepping
        bounds = np.trunc(
            np.minimum(time_left, window_left) / np.asarray(dts)
        ) + 1.0
        crossings = np.trunc(
            (np.asarray(instr_flat) - np.asarray(done_flat))
            / np.asarray(budget_flat)
        )
        estimates = np.minimum(
            bounds, np.minimum.reduceat(crossings, segments)
        )
        caps_rows = np.asarray(caps)
        clamped_mask = estimates > caps_rows
        counts = np.minimum(estimates, caps_rows).astype(np.int64).tolist()

        # Group rows by step count: each group's planning tables stack
        # into one resumed cumulative sum (strictly sequential per
        # planning row, exactly as each row's own accumulate would be).
        groups: dict[int, list[tuple]] = {}
        for record, n, clamped in zip(
            candidates, counts, clamped_mask.tolist()
        ):
            if n < 1:
                record[2].regime_cooldown = n
                stepping.append(record[0])
                plan_cache.pop(record[0], None)
                continue
            groups.setdefault(n, []).append((record, clamped))
        planned: list[tuple[int, _RegimePlan, tuple | None]] = []
        for n, members in groups.items():
            bases_flat: list[float] = []
            increments_flat: list[float] = []
            offsets: list[int] = []
            for record, _clamped in members:
                engine = record[1]
                loop = record[2]
                running = record[4]
                template = record[5]
                offsets.append(len(bases_flat))
                bases_flat.extend(engine._plan_bases(loop, running))
                increments_flat.extend(template.increments_list)
            table = accumulate_rows(bases_flat, increments_flat, steps=n)
            offsets.append(len(bases_flat))
            for position, (record, clamped) in enumerate(members):
                index, engine, loop, state, running, template, chained, \
                    target = record
                series = table[offsets[position] : offsets[position + 1]]
                if chained:
                    plan, commit = self._seal_chained(
                        index, engine, loop, state, running, template,
                        series, n, clamped, target,
                    )
                else:
                    plan = engine._seal_plan(
                        loop, state, running, template, series, n,
                        clamped, min_steps=1,
                    )
                    commit = None
                if plan is None:
                    stepping.append(index)
                    plan_cache.pop(index, None)
                else:
                    planned.append((index, plan, commit))
        return planned, stepping

    @staticmethod
    def _chain_target(engine: Engine) -> tuple[str, float, float] | None:
        """Prove one row's governor decisions no-ops, or return None.

        A decision boundary can be planned through only when its whole
        effect is the log entry, the context timestamp and the window
        reset -- i.e. ``decide`` returns the frequency the actuator is
        already at (``DvfsActuator.set_frequency`` is a pure no-op for
        the current state: zero stall, zero mutation).

        * A :class:`FixedFrequencyGovernor` always returns its pinned
          ``freq_hz``; the no-op condition is just "the actuator sits
          on that frequency's ladder state" (checked per epoch).
        * Interactive/ondemand rows saturate: inside a chain every
          sample is one untouched full window of always-running tasks,
          so busy == window exactly and utilization is exactly 1.0
          (``x / x == 1.0`` in IEEE-754).  Evaluating ``decide`` once
          at ``load=1.0, current=fmax`` -- replicating its arithmetic
          verbatim, including ``ceil_state``'s saturation at the
          ladder top -- proves whether a row parked at fmax stays
          there.  Neither governor mutates state on such a decision
          (interactive's floor branch only reads, and never raises a
          target already at the ladder top).

        Returns ``(mode, recorded_target, anchor_freq)`` where *mode*
        selects the per-epoch eligibility check, *recorded_target* is
        the exact float ``decide`` would return (what the decision log
        records) and *anchor_freq* the actuator frequency the proof is
        conditioned on; ``None`` if decisions cannot be proven no-ops
        (any error lands here, keeping raise paths on the reference
        route).
        """
        from repro.core.governors import (
            FixedFrequencyGovernor,
            InteractiveGovernor,
            OndemandGovernor,
        )

        governor = engine.governor
        spec = engine.context.spec
        kind = type(governor)
        try:
            if kind is FixedFrequencyGovernor:
                anchor = spec.state_for(governor.freq_hz).freq_hz
                return ("fixed", governor.freq_hz, anchor)
            if kind is InteractiveGovernor:
                fmax = spec.max_state.freq_hz
                if (
                    1.0 >= governor.go_hispeed_load
                    and fmax < governor.hispeed_freq_hz
                ):
                    target = spec.ceil_state(governor.hispeed_freq_hz).freq_hz
                else:
                    target = spec.ceil_state(
                        fmax * 1.0 / governor.target_load
                    ).freq_hz
                return ("util", target, fmax) if target == fmax else None
            if kind is OndemandGovernor:
                fmax = spec.max_state.freq_hz
                if 1.0 >= governor.up_threshold:
                    target = fmax
                else:
                    target = spec.ceil_state(
                        fmax * 1.0 / governor.up_threshold
                    ).freq_hz
                return ("util", target, fmax) if target == fmax else None
        except (ValueError, KeyError, ZeroDivisionError):
            return None
        return None

    def _seal_chained(
        self,
        index: int,
        engine: Engine,
        loop: _LoopState,
        state: object,
        running: list,
        template: object,
        series: np.ndarray,
        n: int,
        clamped: bool,
        target: float,
    ) -> tuple[_RegimePlan | None, tuple | None]:
        """Seal one chained regime and schedule its no-op decisions.

        The planning table accumulates window rows *without* the
        resets the reference run performs at each boundary -- valid up
        to the first boundary, garbage past it.  That is enough: the
        first boundary ``b1`` is read off the table's window clock
        (row 1), and because every post-reset segment restarts from
        exactly 0.0 with the same constant increments, all later
        boundaries follow at the fixed stride of the row's shared
        segment table (:meth:`_segment_table`), whose columns are the
        exact float sequences the reference recomputes per segment.
        The plan's final window cells are overridden from that table
        (column ``n - last_boundary``), and interior boundary times
        become the chain commit replayed at write-back
        (:meth:`_commit_chain`).
        """
        plan = engine._seal_plan(
            loop, state, running, template, series, n, clamped,
            min_steps=1, decision_check=False,
        )
        if plan is None:
            return None, None
        n = plan.n
        interval = self._intervals[index]
        # The window clock only grows, so the regime contains no
        # boundary at all iff its final cell stays short of one --
        # checked on the already-materialized Python float before
        # paying for the column scan.
        if plan.last[1] + 1e-12 < interval:
            return plan, None
        crossed = np.nonzero(series[1, 1 : n + 1] + 1e-12 >= interval)[0]
        first = int(crossed[0]) + 1
        seg_steps, seg_table = self._segment_table(
            index, loop, template, interval
        )
        boundaries = list(range(first, n + 1, seg_steps))
        if boundaries[-1] == n:
            # The regime ends exactly on a boundary: hand that one to
            # the epoch's batched decide pass (it drains a real sample
            # and actuates -- still a proven no-op on frequency).
            plan.decision_due = True
            interior = boundaries[:-1]
        else:
            interior = boundaries
        if not interior:
            return plan, None
        # Window rows restarted from exactly 0.0 at the last interior
        # boundary, so their values at the regime end are the shared
        # segment table's column for the remaining step count.
        column = seg_table[:, n - interior[-1]].tolist()
        last = plan.last
        last[1] = column[0]
        last[2] = column[0]
        for position in range(len(running)):
            row = 3 + 10 * position + 6
            base = 1 + 4 * position
            last[row] = column[base]
            last[row + 1] = column[base + 1]
            last[row + 2] = column[base + 2]
            last[row + 3] = column[base + 3]
        return plan, (series[0, interior].tolist(), target)

    def _segment_table(
        self,
        index: int,
        loop: _LoopState,
        template: object,
        interval: float,
    ) -> tuple[int, np.ndarray]:
        """One row's shared full-segment window table.

        Between consecutive in-regime decisions every window row
        restarts from exactly 0.0 and accumulates the same constant
        increments, so a single resumed cumulative sum serves every
        full segment of every chained regime built on this template:
        row 0 is the window clock (the dt sums that trigger the next
        decision), followed by the four window-counter rows of each
        running task.  Returns ``(steps_per_segment, table)``; cached
        per row until the template changes.
        """
        cached = self._seg_cache.get(index)
        if cached is not None and cached[0] is template:
            return cached[1], cached[2]
        dt = loop.dt
        increments = [dt]
        source = template.increments_list
        for position in range((len(source) - 3) // 10):
            base = 3 + 10 * position + 6
            increments.extend(source[base : base + 4])
        width = int(interval / dt) + 2
        while True:
            table = np.empty((len(increments), width + 1))
            table[:, 0] = 0.0
            table[:, 1:] = np.asarray(increments)[:, None]
            np.add.accumulate(table, axis=1, out=table)
            hits = np.nonzero(table[0, 1:] + 1e-12 >= interval)[0]
            if hits.size:
                break
            width *= 2
        steps = int(hits[0]) + 1
        table = np.ascontiguousarray(table[:, : steps + 1])
        self._seg_cache[index] = (template, steps, table)
        return steps, table

    @staticmethod
    def _commit_chain(
        engine: Engine, loop: _LoopState, commit: tuple
    ) -> None:
        """Bookkeep one chained regime's interior decision points.

        Replays, in time order, the only observable effects the
        reference run's boundary has on a chain-eligible row: the
        decision-log entry and the governor-context timestamp.  The
        sample drain / window reset is already baked into the plan's
        overridden window cells, ``set_frequency`` is a proven pure
        no-op (``pending_stall += 0.0`` is a bitwise identity), and
        governor state is untouched on both paths.
        """
        times, target = commit
        record = loop.decisions.record
        for time_s in times:
            record(time_s, target)
        engine.context.elapsed_s = times[-1]

    def _execute_plans(
        self,
        engines: list[Engine],
        loops: list[_LoopState],
        planned: list[tuple[int, _RegimePlan, tuple | None]],
        stage: dict[str, float],
    ) -> None:
        """Integrate and commit one epoch's regimes across rows.

        Untraced rows skip materializing the per-step series and
        advance together through the row-major no-series recurrence
        (:func:`~repro.soc.numerics.advance_thermal_rows`), which runs
        exactly the scalar
        :meth:`~repro.soc.thermal.ThermalModel.integrate_regime`
        per-step order on exactly the per-row constants it would read,
        including the ``math.exp`` decay factor and the Eq. 5 leakage
        term.  Rows that keep a trace need the full series (the trace
        block is its only consumer), so they commit through the solo
        fast path's own :meth:`Engine._integrate_regime`.  Due decision
        points are deferred past the write-backs and taken as one
        batched governor-kernel pass (:meth:`_decide_rows`).
        """
        clock = self._clock
        started = clock()
        record_rows = self._record_rows
        plain_items = [item for item in planned if not record_rows[item[0]]]
        if plain_items:
            counts = []
            non_leakage = []
            rest = []
            evaluators = []
            constants = []
            dts = []
            decays = []
            ambients = []
            r_ths = []
            temperatures = []
            energies = []
            integrals = []
            dt_list = self._dt_list
            decay_list = self._decay_list
            ambient_list = self._ambient_list
            r_th_list = self._r_th_list
            for index, regime, _commit in plain_items:
                loop = loops[index]
                template = regime.template
                counts.append(regime.n)
                non_leakage.append(template.non_leakage_w)
                rest.append(template.rest_of_device_w)
                evaluators.append(template.leak_power_of_c)
                constants.append(template.leak_constants)
                dts.append(dt_list[index])
                decays.append(decay_list[index])
                ambients.append(ambient_list[index])
                r_ths.append(r_th_list[index])
                temperatures.append(
                    engines[index].device.thermal.soc_temperature_c
                )
                energies.append(loop.energy_j)
                integrals.append(loop.temperature_integral)
            plain_t, plain_e, plain_i = advance_thermal_rows(
                steps=counts,
                dt_s=dts,
                decay=decays,
                ambient_c=ambients,
                r_th_c_per_w=r_ths,
                non_leakage_soc_w=non_leakage,
                rest_of_device_w=rest,
                leak_power_of_c=evaluators,
                leak_constants=constants,
                temperature_c=temperatures,
                energy_j=energies,
                temperature_integral=integrals,
            )
        now = clock()
        stage["thermal_sweep"] += now - started
        started = now
        decisions: list[tuple[int, object]] = []
        rank = 0
        for index, regime, commit in planned:
            engine = engines[index]
            loop = loops[index]
            if commit is not None:
                self._commit_chain(engine, loop, commit)
            if record_rows[index]:
                engine._integrate_regime(loop, regime, decide=False)
            else:
                engine.device.thermal.install_regime(
                    plain_t[rank], regime.template.per_core_power
                )
                engine._execute_plan(
                    loop,
                    regime,
                    None,
                    None,
                    None,
                    plain_e[rank],
                    plain_i[rank],
                    decide=False,
                )
                rank += 1
            if regime.decision_due:
                decisions.append((index, regime.state))
        now = clock()
        stage["write_back"] += now - started
        started = now
        if decisions:
            self._decide_rows(engines, loops, decisions)
        stage["decide"] += clock() - started

    @staticmethod
    def _decide_rows(
        engines: list[Engine],
        loops: list[_LoopState],
        decisions: list[tuple[int, object]],
    ) -> None:
        """Take one epoch's due governor decisions, batched by kind.

        Interactive and ondemand rows sharing a platform spec round
        their targets through one ``decide_rows`` kernel pass
        (:func:`repro.core.ppw.ceil_state_rows` under the hood).
        Fixed-frequency rows skip materializing the counter sample
        entirely: ``FixedFrequencyGovernor.decide`` ignores it, the
        decision log records only time and target, and the window
        reset is the drain's only effect on future behaviour -- so
        resetting the window and actuating the pinned target is the
        exact same state transition.  Every other governor --
        model-based ones, custom subclasses -- decides scalar, exactly
        as the solo path would.  Row order within the epoch is
        immaterial: rows share no state, and each row's
        drain/decide/actuate sequence is unchanged.
        """
        from repro.core.governors import (
            FixedFrequencyGovernor,
            InteractiveGovernor,
            OndemandGovernor,
        )

        groups: dict[tuple, list[tuple[int, object]]] = {}
        for index, state in decisions:
            engine = engines[index]
            kind = type(engine.governor)
            if kind is FixedFrequencyGovernor:
                loop = loops[index]
                engine.device.counters.reset_windows()
                engine.context.elapsed_s = loop.time_s
                engine._apply_decision(loop, engine.governor.freq_hz)
            elif kind is InteractiveGovernor or kind is OndemandGovernor:
                key = (kind, id(engine.context.spec))
                groups.setdefault(key, []).append((index, state))
            else:
                engine._decide(loops[index], state)
        for (kind, _spec), members in groups.items():
            governors = [engines[index].governor for index, _ in members]
            samples = [
                engines[index]._decision_sample(loops[index], state)
                for index, state in members
            ]
            contexts = [engines[index].context for index, _ in members]
            targets = kind.decide_rows(governors, samples, contexts)
            for (index, _state), target in zip(members, targets):
                engines[index]._apply_decision(loops[index], target)
