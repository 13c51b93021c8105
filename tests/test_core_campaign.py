"""Tests for fault-injection campaigns."""

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignConfig,
    default_fault_rates,
    run_campaign,
)
from repro.hw.faultmodels import BurstFault, FaultSet
from repro.hw.memory import WeightMemory

RATES = (1e-5, 1e-4, 1e-3)


@pytest.fixture
def campaign_parts(trained_mlp, mlp_eval_arrays):
    images, labels = mlp_eval_arrays
    memory = WeightMemory.from_model(trained_mlp)
    config = CampaignConfig(fault_rates=RATES, trials=4, seed=11, batch_size=96)
    return trained_mlp, memory, images, labels, config


class TestCampaignConfig:
    def test_defaults_valid(self):
        config = CampaignConfig()
        assert config.trials == 20
        assert len(config.fault_rates) >= 4

    def test_rates_must_increase(self):
        with pytest.raises(ValueError):
            CampaignConfig(fault_rates=(1e-5, 1e-6))

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignConfig(fault_rates=(0.0, 1e-6))

    def test_empty_rates_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(fault_rates=())

    def test_default_fault_rates_log_spaced(self):
        rates = default_fault_rates(1e-7, 1e-4, points_per_decade=1)
        assert rates[0] == pytest.approx(1e-7)
        assert rates[-1] == pytest.approx(1e-4)
        ratios = rates[1:] / rates[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-6)

    def test_default_fault_rates_validation(self):
        with pytest.raises(ValueError):
            default_fault_rates(1e-4, 1e-7)


class TestCampaignRun:
    def test_shape_and_determinism(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        a = run_campaign(model, memory, images, labels, config)
        b = run_campaign(model, memory, images, labels, config)
        assert a.accuracies.shape == (3, 4)
        np.testing.assert_array_equal(a.accuracies, b.accuracies)

    def test_weights_restored_after_campaign(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        before = memory.snapshot()
        run_campaign(model, memory, images, labels, config)
        after = memory.snapshot()
        for old, new in zip(before, after):
            np.testing.assert_array_equal(old, new)

    def test_accuracy_degrades_with_rate(self, campaign_parts):
        model, memory, images, labels, _ = campaign_parts
        config = CampaignConfig(fault_rates=(1e-6, 1e-3), trials=6, seed=0)
        curve = run_campaign(model, memory, images, labels, config)
        means = curve.mean_accuracies()
        assert means[0] > means[-1]
        assert curve.clean_accuracy >= means[0] - 0.05

    def test_different_seeds_differ(self, campaign_parts):
        model, memory, images, labels, _ = campaign_parts
        a = run_campaign(
            model, memory, images, labels,
            CampaignConfig(fault_rates=(1e-3,), trials=4, seed=0),
        )
        b = run_campaign(
            model, memory, images, labels,
            CampaignConfig(fault_rates=(1e-3,), trials=4, seed=1),
        )
        assert not np.array_equal(a.accuracies, b.accuracies)

    def test_common_random_numbers_across_samplers(self, campaign_parts):
        """The per-(rate, trial) rng must not depend on the sampler, so two
        protection variants see the same raw randomness."""
        model, memory, images, labels, config = campaign_parts
        seen = {}

        def recording_sampler(mem, rate, rng):
            seen.setdefault("draws", []).append(rng.random())
            return FaultSet.empty()

        def run():
            run_campaign(
                model, memory, images, labels, config, sampler=recording_sampler
            )

        run()
        first = list(seen["draws"])
        seen.clear()
        run()
        assert seen["draws"] == first

    def test_custom_fault_model_sampler(self, campaign_parts):
        model, memory, images, labels, _ = campaign_parts
        config = CampaignConfig(fault_rates=(1e-6,), trials=2, seed=0)
        burst = BurstFault(n_bursts=2, burst_length=4)
        curve = run_campaign(
            model, memory, images, labels, config,
            sampler=lambda mem, rate, rng: burst.sample(mem, rng),
        )
        assert curve.accuracies.shape == (1, 2)

    def test_label_propagates(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        curve = run_campaign(model, memory, images, labels, config, label="x")
        assert curve.label == "x"

    def test_mismatched_eval_arrays_rejected(self, campaign_parts):
        model, memory, images, labels, config = campaign_parts
        with pytest.raises(ValueError, match="disagree on sample count"):
            run_campaign(model, memory, images, labels[:-1], config)


class TestAlternativeFaultModels:
    def test_stuck_at_campaign_runs(self, campaign_parts):
        """Permanent stuck-at-1 faults also degrade accuracy with rate."""
        from repro.hw.faultmodels import StuckAt

        model, memory, images, labels, _ = campaign_parts
        config = CampaignConfig(fault_rates=(1e-6, 1e-3), trials=4, seed=2)
        curve = run_campaign(
            model, memory, images, labels, config,
            sampler=lambda mem, rate, rng: StuckAt(rate, value=1).sample(mem, rng),
        )
        means = curve.mean_accuracies()
        assert means[0] >= means[-1]

    def test_fixed_fault_map_gives_zero_variance(self, campaign_parts):
        """A permanent manufacturing-defect map yields identical accuracy
        in every trial (the paper's Fig. 1a 'permanent fault' scenario)."""
        from repro.hw.faultmodels import FixedFaultMap, RandomBitFlip

        model, memory, images, labels, _ = campaign_parts
        fixed = FixedFaultMap(
            RandomBitFlip(1e-4).sample(memory, np.random.default_rng(7))
        )
        config = CampaignConfig(fault_rates=(1e-4,), trials=5, seed=0)
        curve = run_campaign(
            model, memory, images, labels, config,
            sampler=lambda mem, rate, rng: fixed.sample(mem, rng),
        )
        row = curve.accuracies[0]
        assert np.ptp(row) == 0.0  # all trials identical

    def test_burst_campaign_runs(self, campaign_parts):
        from repro.hw.faultmodels import BurstFault

        model, memory, images, labels, _ = campaign_parts
        config = CampaignConfig(fault_rates=(1e-6,), trials=3, seed=1)
        burst = BurstFault(n_bursts=4, burst_length=16)
        curve = run_campaign(
            model, memory, images, labels, config,
            sampler=lambda mem, rate, rng: burst.sample(mem, rng),
        )
        assert curve.accuracies.shape == (1, 3)
