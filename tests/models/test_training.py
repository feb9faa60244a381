"""Measurement campaign and training pipeline tests.

Uses the session-scoped small campaign (three pages, four frequencies)
so the whole file runs in seconds.
"""

import dataclasses

import numpy as np
import pytest

from repro.models import training
from repro.models.leakage_fit import calibration_samples, fit_leakage
from repro.models.training import (
    TrainingConfig,
    error_cdf,
    fit_leakage_from_calibration,
    measure_once,
    overall_accuracy,
    page_error_summary,
    run_campaign,
    train_models,
)
from repro.soc.device import DeviceConfig
from tests.conftest import SMALL_TRAINING


class TestCampaign:
    def test_observation_count(self, small_models):
        """3 pages x (3 co-runners + solo) x 4 frequencies."""
        assert len(small_models.observations) == 3 * 4 * 4

    def test_observations_carry_measured_interference(self, small_models):
        corun = [o for o in small_models.observations if o.kernel_name]
        solo = [o for o in small_models.observations if o.kernel_name is None]
        assert all(o.row.l2_mpki > 0 for o in corun)
        assert all(o.row.l2_mpki == 0 for o in solo)
        assert all(o.row.corunner_utilization > 0.9 for o in corun)

    def test_observations_span_the_requested_frequencies(self, small_models):
        freqs = {round(o.freq_hz) for o in small_models.observations}
        assert freqs == {round(f) for f in SMALL_TRAINING.freqs_hz}

    def test_noise_makes_repeat_measurements_differ(self):
        config = TrainingConfig(dt_s=0.004, seed=1)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        first = measure_once("amazon", "bfs", 2265.6e6, rng_a, config)
        second = measure_once("amazon", "bfs", 2265.6e6, rng_b, config)
        assert first.load_time_s != second.load_time_s

    def test_campaign_is_seed_deterministic(self):
        config = TrainingConfig(
            pages=("amazon",), freqs_hz=(2265.6e6,), dt_s=0.004, seed=11
        )
        first = run_campaign(config)
        second = run_campaign(config)
        assert [o.load_time_s for o in first] == [o.load_time_s for o in second]


class TestTraining:
    def test_training_requires_observations(self):
        with pytest.raises(ValueError):
            train_models([])

    def test_predictor_is_wired_with_all_models(self, small_models):
        predictor = small_models.predictor
        assert predictor.load_time_model is small_models.load_time_model
        assert predictor.power_model is small_models.power_model
        assert predictor.leakage_model is small_models.leakage_model

    def test_small_campaign_models_are_usably_accurate(self, small_models):
        time_acc, power_acc = overall_accuracy(small_models)
        assert time_acc > 0.90
        assert power_acc > 0.90

    def test_page_error_summary_covers_training_pages(self, small_models):
        summary = page_error_summary(small_models)
        assert set(summary) == set(SMALL_TRAINING.pages)
        for time_error, power_error in summary.values():
            assert 0.0 <= time_error < 0.2
            assert 0.0 <= power_error < 0.2


def _uncached_fit(device_config, seed):
    """The calibration fit recomputed from scratch, bypassing the memo."""
    voltages = sorted({s.voltage_v for s in device_config.spec.dvfs_table})
    temperatures = [20.0 + 5.0 * i for i in range(13)]
    samples = calibration_samples(
        device_config.power_model.leakage,
        voltages,
        temperatures,
        rng=np.random.default_rng(seed),
    )
    return fit_leakage(samples)


class TestLeakageCalibrationMemo:
    @pytest.fixture
    def fits(self, monkeypatch):
        """Count the uncached fits run from an empty memo."""
        calls = []
        real = training.fit_leakage

        def counting(samples):
            calls.append(len(samples))
            return real(samples)

        monkeypatch.setattr(training, "fit_leakage", counting)
        training._fit_calibration.cache_clear()
        yield calls
        training._fit_calibration.cache_clear()

    def test_equal_calibrations_share_one_fit(self, fits):
        first = fit_leakage_from_calibration()
        assert fit_leakage_from_calibration(DeviceConfig()) is first
        assert fit_leakage_from_calibration(DeviceConfig(), seed=77) is first
        assert len(fits) == 1

    def test_memoized_fit_equals_an_uncached_fit(self, fits):
        fitted = fit_leakage_from_calibration(DeviceConfig(), seed=5)
        assert fitted == _uncached_fit(DeviceConfig(), seed=5)

    def test_each_changed_input_refits(self, fits):
        base = DeviceConfig()
        spec = base.spec
        top = spec.dvfs_table[-1]
        ladder = dataclasses.replace(
            spec,
            dvfs_table=spec.dvfs_table[:-1]
            + (dataclasses.replace(top, voltage_v=top.voltage_v + 0.01),),
        )
        leakage = dataclasses.replace(
            base.power_model.leakage, k1=base.power_model.leakage.k1 * 1.1
        )
        variants = [
            (base, 78),
            (
                dataclasses.replace(
                    base,
                    power_model=dataclasses.replace(
                        base.power_model, leakage=leakage
                    ),
                ),
                77,
            ),
            (dataclasses.replace(base, spec=ladder), 77),
        ]
        reference = fit_leakage_from_calibration(base)
        for config, seed in variants:
            fitted = fit_leakage_from_calibration(config, seed=seed)
            assert fitted is not reference
            assert fitted == _uncached_fit(config, seed)
        assert len(fits) == 1 + len(variants)


class TestErrorCdf:
    def test_cdf_is_sorted_and_ends_at_one(self):
        cdf = error_cdf([0.05, 0.01, 0.03])
        errors = [point[0] for point in cdf]
        fractions = [point[1] for point in cdf]
        assert errors == sorted(errors)
        assert fractions[-1] == 1.0
        assert fractions[0] == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_cdf([])
