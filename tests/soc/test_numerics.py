"""Cross-row thermal pass vs the scalar recurrence."""

import pytest

from repro.soc.leakage import nexus5_leakage_parameters
from repro.soc.numerics import advance_thermal_rows
from repro.soc.thermal import ThermalModel


def _rows():
    """Three heterogeneous rows: dt, ambient and power all differ."""
    evaluator = nexus5_leakage_parameters().bound_evaluator(1.05)
    hot_evaluator = nexus5_leakage_parameters().bound_evaluator(1.225)
    return dict(
        steps=[7, 4, 1],
        dt_s=[0.002, 0.004, 0.002],
        decay=[],  # filled by the fixture from per-row tau values
        ambient_c=[25.0, 5.0, 35.0],
        r_th_c_per_w=[9.0, 9.0, 9.0],
        non_leakage_soc_w=[1.5, 0.4, 2.75],
        rest_of_device_w=[0.35, 0.35, 0.5],
        leak_power_of_c=[evaluator, evaluator, hot_evaluator],
        temperature_c=[48.0, 26.0, 58.0],
        energy_j=[0.0, 1.25, 10.5],
        temperature_integral=[0.0, 30.0, 700.0],
    )


def _scalar_reference(kwargs):
    """Drive each row through ThermalModel.integrate_regime."""
    import math

    outcomes = []
    for row in range(len(kwargs["steps"])):
        model = ThermalModel(
            r_th_c_per_w=kwargs["r_th_c_per_w"][row],
            ambient_c=kwargs["ambient_c"][row],
            soc_temperature_c=kwargs["temperature_c"][row],
        )
        # Recover tau from the row's decay factor so both paths use
        # the identical exp(-dt/tau).
        model.tau_s = -kwargs["dt_s"][row] / math.log(kwargs["decay"][row])
        leak, total, temp = model.integrate_regime(
            steps=kwargs["steps"][row],
            dt_s=kwargs["dt_s"][row],
            non_leakage_soc_w=kwargs["non_leakage_soc_w"][row],
            rest_of_device_w=kwargs["rest_of_device_w"][row],
            leak_power_of_c=kwargs["leak_power_of_c"][row],
        )
        energy = kwargs["energy_j"][row]
        integral = kwargs["temperature_integral"][row]
        for power, temperature in zip(total, temp):
            energy += power * kwargs["dt_s"][row]
            integral += temperature * kwargs["dt_s"][row]
        outcomes.append(
            (leak, total, temp, model.soc_temperature_c, energy, integral)
        )
    return outcomes


@pytest.fixture
def kwargs():
    import math

    values = _rows()
    values["decay"] = [
        math.exp(-dt / tau)
        for dt, tau in zip(values["dt_s"], (2.5, 1.75, 2.5))
    ]
    return values


class TestAdvanceThermalRows:
    """The no-series row-major pass vs ThermalModel.integrate_regime."""

    @pytest.mark.parametrize("inline", [False, True])
    def test_finals_match_the_series_sweep(self, kwargs, inline):
        if inline:
            # Voltages matching the two bound_evaluator closures of the
            # fixture rows (1.05, 1.05, 1.225).
            constants = [
                nexus5_leakage_parameters().bound_constants(voltage)
                for voltage in (1.05, 1.05, 1.225)
            ]
        else:
            constants = [None, None, None]
        finals = advance_thermal_rows(
            leak_constants=constants,
            **{k: v for k, v in kwargs.items()},
        )
        expected = _scalar_reference(kwargs)
        assert finals[0] == [outcome[3] for outcome in expected]
        assert finals[1] == [outcome[4] for outcome in expected]
        assert finals[2] == [outcome[5] for outcome in expected]

    def test_accepts_any_row_order(self, kwargs):
        """Rows need no particular order of step counts."""
        order = [1, 2, 0]
        reordered = {
            key: [values[row] for row in order]
            for key, values in kwargs.items()
        }
        finals = advance_thermal_rows(
            leak_constants=[None, None, None], **reordered
        )
        straight = advance_thermal_rows(
            leak_constants=[None, None, None], **kwargs
        )
        for row, source in enumerate(order):
            assert finals[0][row] == straight[0][source]

    def test_inputs_are_not_mutated(self, kwargs):
        temperature = list(kwargs["temperature_c"])
        advance_thermal_rows(
            leak_constants=[None, None, None], **kwargs
        )
        assert kwargs["temperature_c"] == temperature

    def test_rejects_empty_rows(self, kwargs):
        kwargs["steps"] = [7, 0, 1]
        with pytest.raises(ValueError, match="at least one step"):
            advance_thermal_rows(
                leak_constants=[None, None, None], **kwargs
            )
