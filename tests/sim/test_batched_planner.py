"""Batched epoch planner vs per-row scalar ``_plan_regime``.

``test_fleet_engine.py`` anchors fleet rows to the ``ReferenceEngine``
oracle; this module pins the *other* side of the tentpole contract:
the batched planner (SoA event-distance estimate, grouped accumulate,
chained no-op decisions) and its write-back (the no-series cross-row
thermal pass for untraced rows, the solo
:meth:`Engine._integrate_regime` for traced ones) must agree
bit-for-bit with the scalar fast path -- the same rows run solo
through :meth:`Engine._plan_regime` -- across random heterogeneous
mixes, including the clamped planning-horizon and cooldown paths.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
import repro.sim.fleet_engine as fleet_module
from repro.core.governors import (
    FixedFrequencyGovernor,
    InteractiveGovernor,
    OndemandGovernor,
)
from repro.sim.fleet_engine import (
    FleetEngine,
    FleetRowSpec,
    build_row_engine,
    heterogeneous_fleet,
)
from tests.sim.test_engine_equivalence import assert_bit_identical
from tests.sim.test_fleet_engine import batched_path


def _mix(rows: int, seed: int, trace_mix: bool) -> tuple[FleetRowSpec, ...]:
    """A heterogeneous fleet, optionally with per-row trace flags."""
    specs = heterogeneous_fleet(rows, seed=seed)
    if trace_mix:
        specs = tuple(
            replace(spec, record_trace=(row % 2 == 0))
            for row, spec in enumerate(specs)
        )
    return specs


@settings(max_examples=10, deadline=None)
@given(
    rows=st.integers(5, 7),
    seed=st.integers(0, 40),
    trace_mix=st.booleans(),
    max_steps=st.sampled_from((None, 6, 17)),
)
def test_batched_planner_matches_scalar_planning(
    rows, seed, trace_mix, max_steps
):
    """Property: a fleet row equals its solo scalar-planned run.

    ``max_steps`` monkeypatches ``_MAX_REGIME_STEPS`` for *both* sides
    (the clamp is an execution-strategy knob, so results must not move)
    -- small values force the clamped seal path, chained-regime caps
    and the cooldown path on every row.
    """
    specs = _mix(rows, seed, trace_mix)
    saved = engine_module._MAX_REGIME_STEPS
    if max_steps is not None:
        engine_module._MAX_REGIME_STEPS = max_steps
    try:
        solo = [build_row_engine(spec).run() for spec in specs]
        with batched_path():
            fleet = FleetEngine(rows=specs).run()
    finally:
        engine_module._MAX_REGIME_STEPS = saved
    for expected, actual in zip(solo, fleet):
        assert_bit_identical(expected, actual)


class TestChainTargets:
    """Eligibility proofs behind decision-spanning chained regimes."""

    def test_fixed_governor_chains_at_its_pin(self):
        engine = build_row_engine(
            FleetRowSpec(page="amazon", governor="fixed", freq_hz=1728.0e6)
        )
        mode, target, anchor = FleetEngine._chain_target(engine)
        assert mode == "fixed"
        assert target == 1728.0e6
        assert anchor == engine.context.spec.state_for(1728.0e6).freq_hz

    def test_interactive_governor_saturates_at_fmax(self):
        engine = build_row_engine(
            FleetRowSpec(page="amazon", governor="interactive")
        )
        assert isinstance(engine.governor, InteractiveGovernor)
        mode, target, anchor = FleetEngine._chain_target(engine)
        fmax = engine.context.spec.max_state.freq_hz
        assert (mode, target, anchor) == ("util", fmax, fmax)

    def test_ondemand_governor_saturates_at_fmax(self):
        engine = build_row_engine(
            FleetRowSpec(page="amazon", governor="ondemand")
        )
        assert isinstance(engine.governor, OndemandGovernor)
        mode, target, anchor = FleetEngine._chain_target(engine)
        fmax = engine.context.spec.max_state.freq_hz
        assert (mode, target, anchor) == ("util", fmax, fmax)

    def test_unknown_governor_kind_never_chains(self):
        engine = build_row_engine(FleetRowSpec(page="amazon"))

        class Custom(FixedFrequencyGovernor):
            pass

        engine.governor = Custom(freq_hz=1728.0e6, label="custom")
        assert FleetEngine._chain_target(engine) is None


class TestChainedRegimes:
    def test_chains_absorb_interior_decisions(self, monkeypatch):
        """Fixed rows actually plan through boundaries (not just may)."""
        specs = tuple(
            FleetRowSpec(
                page=page, governor="fixed", freq_hz=1190.4e6, kernel=kernel
            )
            for page in ("amazon", "espn", "msn")
            for kernel in (None, "srad")
        )
        commits = []
        original = FleetEngine._commit_chain

        def spy(engine, loop, commit):
            commits.append(len(commit[0]))
            return original(engine, loop, commit)

        monkeypatch.setattr(FleetEngine, "_commit_chain", staticmethod(spy))
        with batched_path():
            fleet = FleetEngine(rows=specs).run()
        assert sum(commits) > 0
        solo = [build_row_engine(spec).run() for spec in specs]
        for expected, actual in zip(solo, fleet):
            assert_bit_identical(expected, actual)

    def test_chain_cap_bounds_the_horizon(self):
        """A tiny chain cap still yields bit-identical rows."""
        specs = heterogeneous_fleet(6, seed=3)
        saved = fleet_module._MAX_CHAIN_STEPS
        fleet_module._MAX_CHAIN_STEPS = 8
        try:
            with batched_path():
                fleet = FleetEngine(rows=specs).run()
        finally:
            fleet_module._MAX_CHAIN_STEPS = saved
        solo = [build_row_engine(spec).run() for spec in specs]
        for expected, actual in zip(solo, fleet):
            assert_bit_identical(expected, actual)
