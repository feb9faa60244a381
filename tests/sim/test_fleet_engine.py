"""Fleet engine: lockstep rows vs the single-device oracle.

The contract under test is the tentpole's bit-exactness guarantee:
every row sliced out of a :class:`~repro.sim.fleet_engine.FleetEngine`
run reproduces the single-device
:class:`~repro.sim.engine.ReferenceEngine` result field-exactly --
result scalars, task summaries, decisions, completions, phase stamps
and (when tracing) every trace column, compared with ``==``.

Two layers, mirroring ``test_engine_equivalence.py``:

* A curated heterogeneous fleet (pages x co-runners x governors x
  ambients x dt, traces on) checked row by row against the oracle.
* Hypothesis-driven random rows embedded in a mixed fleet, so each
  random device shares its epochs' batched planning and thermal
  passes with rows of *different* regime lengths and step sizes.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.fleet_engine as fleet_module
from repro.sim.engine import EngineConfig
from repro.sim.fleet_engine import (
    FleetEngine,
    FleetRowSpec,
    build_row_engine,
    heterogeneous_fleet,
)
from tests.sim.test_engine_equivalence import assert_bit_identical


@contextmanager
def batched_path(tail: int = 0):
    """Pin the solo-tail cutoff so small fleets run the batched epochs.

    The production cutoff (``_SOLO_TAIL_ROWS``) finishes fleets at or
    below 16 live rows on the solo loop, which would let these small
    equivalence fixtures bypass the very code under test.
    """
    saved = fleet_module._SOLO_TAIL_ROWS
    fleet_module._SOLO_TAIL_ROWS = tail
    try:
        yield
    finally:
        fleet_module._SOLO_TAIL_ROWS = saved


def _reference(spec: FleetRowSpec):
    return build_row_engine(spec, engine="reference").run()


class TestHeterogeneousFleet:
    def test_same_arguments_same_fleet(self):
        assert heterogeneous_fleet(12, seed=2) == heterogeneous_fleet(12, seed=2)

    def test_seed_rotates_the_assignment(self):
        assert heterogeneous_fleet(12, seed=2) != heterogeneous_fleet(12, seed=3)

    def test_population_is_heterogeneous(self):
        specs = heterogeneous_fleet(48)
        assert len({spec.page for spec in specs}) > 1
        assert len({spec.kernel for spec in specs}) > 1
        assert len({spec.governor for spec in specs}) > 1
        assert len({spec.ambient_c for spec in specs}) > 1
        assert len({spec.dt_s for spec in specs}) > 1

    def test_fixed_rows_carry_an_operating_point(self):
        for spec in heterogeneous_fleet(24):
            if spec.governor == "fixed":
                assert spec.freq_hz is not None
            else:
                assert spec.freq_hz is None

    def test_record_trace_propagates(self):
        assert all(
            spec.record_trace
            for spec in heterogeneous_fleet(4, record_trace=True)
        )

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            heterogeneous_fleet(0)


class TestRowSpec:
    def test_rejects_unknown_governor(self):
        with pytest.raises(KeyError, match="powersave"):
            FleetRowSpec(page="amazon", governor="powersave")

    def test_fixed_requires_a_frequency(self):
        with pytest.raises(ValueError, match="freq_hz"):
            FleetRowSpec(page="amazon", governor="fixed")


class TestConstruction:
    def test_requires_exactly_one_source(self):
        spec = FleetRowSpec(page="amazon")
        with pytest.raises(ValueError, match="exactly one"):
            FleetEngine()
        with pytest.raises(ValueError, match="exactly one"):
            FleetEngine(rows=[spec], engines=[build_row_engine(spec)])

    def test_rejects_reference_engines(self):
        spec = FleetRowSpec(page="amazon")
        with pytest.raises(TypeError, match="oracle"):
            FleetEngine(engines=[build_row_engine(spec, engine="reference")])

    def test_rejects_shared_engines(self):
        engine = build_row_engine(FleetRowSpec(page="amazon"))
        with pytest.raises(ValueError, match="its own engine"):
            FleetEngine(engines=[engine, engine])

    def test_coerces_engines_to_the_fast_path(self):
        engine = build_row_engine(FleetRowSpec(page="amazon"))
        engine.config = replace(engine.config, engine="reference")
        assert isinstance(engine.config, EngineConfig)
        FleetEngine(engines=[engine])
        assert engine.config.engine == "fast"

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetEngine(engines=[])


class TestBitExactness:
    def test_curated_fleet_matches_reference_with_traces(self):
        specs = heterogeneous_fleet(12, seed=5, record_trace=True)
        with batched_path():
            results = FleetEngine(rows=specs).run()
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert_bit_identical(_reference(spec), result)

    def test_solo_tail_handoff_matches_reference(self):
        """Rows that start batched and finish on the solo tail."""
        specs = heterogeneous_fleet(12, seed=5)
        with batched_path(tail=6):
            results = FleetEngine(rows=specs).run()
        for spec, result in zip(specs, results):
            assert_bit_identical(_reference(spec), result)

    def test_timeout_rows_match_reference(self):
        specs = (
            FleetRowSpec(page="aliexpress", kernel="srad", max_time_s=0.2),
            FleetRowSpec(page="amazon", governor="fixed", freq_hz=729.6e6),
            FleetRowSpec(page="msn", dt_s=0.004, max_time_s=0.1),
        )
        with batched_path():
            results = FleetEngine(rows=specs).run()
        assert results[0].load_time_s is None
        assert results[2].load_time_s is None
        for spec, result in zip(specs, results):
            assert_bit_identical(_reference(spec), result)

    def test_rerun_reproduces_the_fleet(self):
        fleet = FleetEngine(rows=heterogeneous_fleet(6, seed=9))
        with batched_path():
            first = fleet.run()
            second = fleet.run()
        for a, b in zip(first, second):
            assert_bit_identical(a, b)


#: Filler rows with deliberately different step sizes and regime
#: lengths, so random rows never get a sweep to themselves.
_FILLER_ROWS = (
    FleetRowSpec(page="espn", governor="fixed", freq_hz=2265.6e6),
    FleetRowSpec(page="amazon", kernel="srad", dt_s=0.004),
)


@settings(max_examples=15, deadline=None)
@given(
    page=st.sampled_from(("amazon", "espn", "aliexpress", "msn")),
    kernel=st.sampled_from((None, "backprop", "needleman-wunsch", "srad")),
    governor=st.sampled_from(("fixed", "interactive", "ondemand")),
    freq_hz=st.sampled_from((729.6e6, 1190.4e6, 1728.0e6, 2265.6e6)),
    ambient=st.sampled_from(((25.0, 48.0), (5.0, 26.0), (35.0, 58.0))),
    dt_s=st.sampled_from((0.002, 0.004)),
    record_trace=st.booleans(),
)
def test_random_row_matches_reference(
    page, kernel, governor, freq_hz, ambient, dt_s, record_trace
):
    """Property: any row of a mixed fleet equals its solo oracle run."""
    spec = FleetRowSpec(
        page=page,
        kernel=kernel,
        governor=governor,
        freq_hz=freq_hz if governor == "fixed" else None,
        ambient_c=ambient[0],
        initial_junction_c=ambient[1],
        dt_s=dt_s,
        record_trace=record_trace,
    )
    with batched_path():
        results = FleetEngine(rows=(spec,) + _FILLER_ROWS).run()
    assert_bit_identical(_reference(spec), results[0])
