"""Tests for the end-to-end FT-ClipAct pipeline (paper Fig. 4)."""

import numpy as np
import pytest

from repro.core.clipped import ClampedReLU, ClippedReLU
from repro.core.metrics import evaluate_accuracy_arrays
from repro.core.pipeline import FTClipAct, FTClipActConfig, harden_model
from repro.data import ArrayDataset, SyntheticCIFAR10
from repro.models import MLP
from repro.optim import Adam, Trainer
from repro.data.loader import DataLoader

FAST = dict(
    profile_images=64,
    eval_images=48,
    trials=2,
    fault_rates=(1e-4, 1e-3),
    seed=0,
)


def _fresh_model(trained_mlp):
    clone = MLP(3 * 8 * 8, 10, hidden=(64, 32), seed=0)
    clone.load_state_dict(trained_mlp.state_dict())
    clone.eval()
    return clone


@pytest.fixture
def val_set():
    generator = SyntheticCIFAR10(image_size=8, seed=3)
    return generator.dataset(160, "val")


class TestConfig:
    def test_defaults_valid(self):
        FTClipActConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            FTClipActConfig(profile_images=0)
        with pytest.raises(ValueError):
            FTClipActConfig(tune_scope="galaxy")
        with pytest.raises(ValueError):
            FTClipActConfig(variant="fold")
        with pytest.raises(ValueError):
            FTClipActConfig(workers=-1)

    def test_workers_zero_means_cpu_count(self):
        FTClipActConfig(workers=0)  # valid: resolved at campaign time


class TestHardenModel:
    def test_produces_clipped_model_with_reports(self, trained_mlp, val_set):
        model = _fresh_model(trained_mlp)
        hardened = harden_model(model, val_set, FTClipActConfig(**FAST))
        assert hardened.model is model
        assert hardened.finetune_results
        assert set(hardened.thresholds) == {"FC-1", "FC-2"}
        assert set(hardened.act_max) == {"FC-1", "FC-2"}
        # Step 3 never raises thresholds above ACT_max (Algorithm 1's
        # search interval is [0, ACT_max]).
        for layer, threshold in hardened.thresholds.items():
            assert threshold <= hardened.act_max[layer] + 1e-6
        # Live modules are clipped.
        assert any(isinstance(m, ClippedReLU) for m in model.modules())

    def test_threshold_table(self, trained_mlp, val_set):
        model = _fresh_model(trained_mlp)
        hardened = harden_model(model, val_set, FTClipActConfig(**FAST))
        table = hardened.threshold_table()
        assert len(table) == 2
        for layer, act_max, threshold in table:
            assert hardened.act_max[layer] == act_max
            assert hardened.thresholds[layer] == threshold

    def test_skip_fine_tune_keeps_act_max(self, trained_mlp, val_set):
        model = _fresh_model(trained_mlp)
        config = FTClipActConfig(fine_tune=False, **FAST)
        hardened = harden_model(model, val_set, config)
        assert not hardened.finetune_results
        assert hardened.thresholds == pytest.approx(hardened.act_max)

    def test_clamp_variant(self, trained_mlp, val_set):
        model = _fresh_model(trained_mlp)
        config = FTClipActConfig(variant="clamp", fine_tune=False, **FAST)
        harden_model(model, val_set, config)
        assert any(isinstance(m, ClampedReLU) for m in model.modules())

    def test_clean_accuracy_preserved(self, trained_mlp, val_set, mlp_eval_arrays):
        """Clipping at profiled ACT_max must not hurt fault-free accuracy
        much (thresholds sit above the observed activations)."""
        images, labels = mlp_eval_arrays
        baseline = evaluate_accuracy_arrays(trained_mlp, images, labels)
        model = _fresh_model(trained_mlp)
        config = FTClipActConfig(fine_tune=False, **FAST)
        harden_model(model, val_set, config)
        hardened_accuracy = evaluate_accuracy_arrays(model, images, labels)
        assert hardened_accuracy >= baseline - 0.05

    def test_accepts_array_tuple(self, trained_mlp, val_set):
        model = _fresh_model(trained_mlp)
        images, labels = val_set.arrays()
        hardened = harden_model(model, (images, labels), FTClipActConfig(**FAST))
        assert hardened.thresholds

    def test_network_scope(self, trained_mlp, val_set):
        model = _fresh_model(trained_mlp)
        config = FTClipActConfig(tune_scope="network", **FAST)
        hardened = harden_model(model, val_set, config)
        assert hardened.finetune_results

    def test_deterministic(self, trained_mlp, val_set):
        a = harden_model(_fresh_model(trained_mlp), val_set, FTClipActConfig(**FAST))
        b = harden_model(_fresh_model(trained_mlp), val_set, FTClipActConfig(**FAST))
        assert a.thresholds == pytest.approx(b.thresholds)

    def test_small_validation_set_still_works(self, trained_mlp):
        generator = SyntheticCIFAR10(image_size=8, seed=3)
        tiny = generator.dataset(20, "val")  # smaller than profile_images
        model = _fresh_model(trained_mlp)
        hardened = harden_model(model, tiny, FTClipActConfig(**FAST))
        assert hardened.profile.num_images == 20


class TestEndToEndImprovement:
    def test_hardening_improves_auc_under_faults(self, trained_mlp, val_set, mlp_eval_arrays):
        """The paper's headline claim, verified end to end on a small model:
        FT-ClipAct raises the AUC over the unprotected network."""
        from repro.core.campaign import CampaignConfig, run_campaign
        from repro.hw.memory import WeightMemory

        images, labels = mlp_eval_arrays
        config = CampaignConfig(fault_rates=(1e-5, 1e-4, 1e-3), trials=6, seed=42)

        unprotected = _fresh_model(trained_mlp)
        memory_u = WeightMemory.from_model(unprotected)
        base_curve = run_campaign(unprotected, memory_u, images, labels, config)

        hardened_model = _fresh_model(trained_mlp)
        harden_model(hardened_model, val_set, FTClipActConfig(**FAST))
        memory_h = WeightMemory.from_model(hardened_model)
        hard_curve = run_campaign(hardened_model, memory_h, images, labels, config)

        assert hard_curve.auc() > base_curve.auc()
        # Mean accuracy should dominate at every damaging rate.
        assert (
            hard_curve.mean_accuracies()[1:] >= base_curve.mean_accuracies()[1:] - 0.02
        ).all()
