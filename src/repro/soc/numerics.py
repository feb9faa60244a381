"""Bit-identical bulk accumulation primitives.

The regime-stepped engine fast path replaces thousands of scalar
``value += increment`` updates with one NumPy call per regime.  The
results must be *bit-identical* to the scalar loop -- the repo's
calibration tag and every cached artifact depend on exact float
reproduction -- so the only primitive allowed here is ``np.cumsum``,
which reduces strictly left-to-right in IEEE-754 order (unlike
``np.sum``, whose pairwise tree reduction rounds differently).

Placing the running value as element 0 of the summed row makes
``cumsum`` resume an in-flight accumulation exactly:

    cumsum([base, inc0, inc1, ...])[k] == base ``+=``-ed k times

which is the identity the engine, counter bank, and energy integrators
rely on.
"""
# repro: bit-exact -- the cumsum contract above is the whole point of
# this module (R003 forbids BLAS/pairwise reductions here).

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.soc.leakage import KELVIN_OFFSET


def accumulate_rows(
    bases: ArrayLike,
    increments: ArrayLike,
    steps: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise running totals, bit-identical to scalar ``+=`` loops.

    Args:
        bases: Per-row starting values, shape ``(rows,)``.
        increments: Per-row, per-step increments.  Either shape
            ``(rows, steps)`` for varying increments, or shape
            ``(rows,)`` of constants broadcast over ``steps`` (which is
            then required).
        steps: Number of accumulation steps when ``increments`` is a
            per-row constant vector.
        out: Optional float64 scratch of at least
            ``(rows, steps + 1)``; the table is built and accumulated
            in place in its top-left corner, skipping both allocations.
            Callers planning thousands of small regimes (the fleet
            engine's grouped accumulates) reuse one buffer per group.

    Returns:
        Array of shape ``(rows, steps + 1)`` where column 0 is
        ``bases`` and column ``k`` is each base after ``k`` sequential
        additions of its increments, accumulated strictly left-to-right
        (identical rounding to a Python ``for`` loop).
    """
    bases = np.asarray(bases, dtype=np.float64)
    increments = np.asarray(increments, dtype=np.float64)
    if increments.ndim == 1:
        if steps is None:
            raise ValueError("steps is required for constant increments")
        width = steps
        increments = increments[:, None]
    else:
        width = increments.shape[1]
        if steps is not None and steps != width:
            raise ValueError("steps disagrees with increments' width")
    rows = bases.shape[0]
    if out is None:
        table = np.empty((rows, width + 1), dtype=np.float64)
    else:
        if out.dtype != np.float64:
            raise ValueError("out must be a float64 scratch")
        if out.shape[0] < rows or out.shape[1] < width + 1:
            raise ValueError("out is too small for the requested table")
        table = out[:rows, : width + 1]
    table[:, 0] = bases
    table[:, 1:] = increments
    return np.cumsum(table, axis=1, out=table)


def advance_thermal_rows(
    steps: Sequence[int],
    dt_s: Sequence[float],
    decay: Sequence[float],
    ambient_c: Sequence[float],
    r_th_c_per_w: Sequence[float],
    non_leakage_soc_w: Sequence[float],
    rest_of_device_w: Sequence[float],
    leak_power_of_c: Sequence[Callable[[float], float]],
    leak_constants: Sequence[tuple[float, float, float] | None],
    temperature_c: Sequence[float],
    energy_j: Sequence[float],
    temperature_integral: Sequence[float],
) -> tuple[list[float], list[float], list[float]]:
    """Advance many thermal recurrences without materializing series.

    The per-step ``leak_w`` / ``total_w`` / ``temp_c`` series of
    :meth:`repro.soc.thermal.ThermalModel.integrate_regime` exist only
    to feed trace recording; rows that do not record a trace need just
    the three advanced accumulators.  This runs the identical scalar
    recurrence (same expressions, same strictly sequential order, so
    the same IEEE-754 roundings) row-major over plain Python floats,
    one row after another, writing nothing per step.  Rows are
    independent, so heterogeneous ``dt`` / decay / ambient per row is
    exact by construction.

    ``leak_constants[row]`` may carry the Equation 5 constants from
    :meth:`repro.soc.leakage.LeakageParameters.bound_constants`; the
    leakage term is then inlined (bit-identical to the closure, whose
    own body is this expression).  A ``None`` entry falls back to
    calling ``leak_power_of_c[row]`` per step, so custom leakage models
    stay exact too.

    Args:
        steps: Per-row step counts, all >= 1 (any order).
        dt_s / decay / ambient_c / r_th_c_per_w: Per-row step duration,
            ``exp(-dt / tau)``, environment temperature and thermal
            resistance, as Python-float sequences.
        non_leakage_soc_w / rest_of_device_w: Per-row constant powers.
        leak_power_of_c: Per-row leakage closures (fallback path).
        leak_constants: Per-row inline constants, or ``None``.
        temperature_c / energy_j / temperature_integral: Per-row
            starting accumulators (not mutated).

    Returns:
        ``(temperature_c, energy_j, temperature_integral)`` lists of
        per-row advanced values.
    """
    exp = math.exp
    out_temperature: list[float] = []
    out_energy: list[float] = []
    out_integral: list[float] = []
    for row in range(len(steps)):
        count = steps[row]
        if count < 1:
            raise ValueError("every row needs at least one step")
        value = temperature_c[row]
        energy = energy_j[row]
        integral = temperature_integral[row]
        dt = dt_s[row]
        decay_row = decay[row]
        ambient = ambient_c[row]
        r_th = r_th_c_per_w[row]
        non_leakage = non_leakage_soc_w[row]
        rest = rest_of_device_w[row]
        constants = leak_constants[row]
        if constants is None:
            evaluate = leak_power_of_c[row]
            for _ in range(count):
                leak_value = evaluate(value)
                soc_value = non_leakage + leak_value
                total_value = soc_value + rest
                energy += total_value * dt
                target_value = ambient + soc_value * r_th
                value = target_value + (value - target_value) * decay_row
                integral += value * dt
        else:
            k1v, slope, gate = constants
            for _ in range(count):
                kelvin = value + KELVIN_OFFSET
                if kelvin <= 0:
                    raise ValueError(
                        "temperature must be above absolute zero"
                    )
                leak_value = k1v * kelvin**2 * exp(slope / kelvin) + gate
                soc_value = non_leakage + leak_value
                total_value = soc_value + rest
                energy += total_value * dt
                target_value = ambient + soc_value * r_th
                value = target_value + (value - target_value) * decay_row
                integral += value * dt
        out_temperature.append(value)
        out_energy.append(energy)
        out_integral.append(integral)
    return out_temperature, out_energy, out_integral
