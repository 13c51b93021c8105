"""The end-to-end FT-ClipAct methodology (paper Fig. 4).

Step 1  profile per-layer ``ACT_max`` on a validation subset;
Step 2  swap unbounded activations for clipped ones initialised at
        ``ACT_max``;
Step 3  fine-tune each layer's threshold with Algorithm 1.

The pipeline needs *no training data* and never touches weights or biases
— exactly the paper's deployment constraint for third-party DNN IP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import nn
from repro.core.campaign import CampaignConfig, FaultSampler, default_fault_rates
from repro.core.executor import resolve_workers
from repro.core.finetune import FineTuneConfig, FineTuneResult, ThresholdFineTuner
from repro.core.profiling import ProfileResult, profile_activations
from repro.core.swap import ActivationSwapResult, get_thresholds, swap_activations
from repro.data.dataset import ArrayDataset, Dataset, Subset
from repro.data.loader import DataLoader
from repro.hw.memory import WeightMemory
from repro.utils.validation import check_in_choices, check_positive

__all__ = ["FTClipActConfig", "HardenedModel", "FTClipAct", "harden_model"]


@dataclass(frozen=True)
class FTClipActConfig:
    """All knobs of the hardening pipeline."""

    # Step 1: how many validation images to profile on.
    profile_images: int = 200
    # Step 3 campaign parameters (kept small: Algorithm 1 runs one campaign
    # per boundary evaluation).
    fault_rates: Sequence[float] = field(
        default_factory=lambda: tuple(default_fault_rates())
    )
    trials: int = 5
    eval_images: int = 128
    batch_size: int = 128
    seed: int = 0
    # Fault scope for threshold tuning: "layer" injects only into the layer
    # being tuned (paper Fig. 5's setting); "network" injects everywhere.
    tune_scope: str = "layer"
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    # Clipping variant: "clip" (paper) or "clamp" (ablation).
    variant: str = "clip"
    # Skip Step 3 entirely (thresholds stay at ACT_max) when False.
    fine_tune: bool = True
    # Worker processes per Step-3 campaign (0 = cpu_count).  Any value
    # yields bit-identical thresholds: campaigns are deterministic under
    # parallelism (see repro.core.executor).
    workers: int = 1

    def __post_init__(self) -> None:
        check_positive("profile_images", self.profile_images)
        check_positive("trials", self.trials)
        check_positive("eval_images", self.eval_images)
        check_positive("batch_size", self.batch_size)
        check_in_choices("tune_scope", self.tune_scope, ("layer", "network"))
        check_in_choices("variant", self.variant, ("clip", "clamp"))
        resolve_workers(self.workers)  # shared validation; 0 resolves at run time


@dataclass
class HardenedModel:
    """The pipeline's product: a fault-tolerant DNN plus its provenance."""

    model: nn.Module
    thresholds: dict[str, float]
    act_max: dict[str, float]
    profile: ProfileResult
    swap: ActivationSwapResult
    finetune_results: dict[str, FineTuneResult] = field(default_factory=dict)

    def threshold_table(self) -> list[tuple[str, float, float]]:
        """(layer, ACT_max, final threshold) rows for reports."""
        return [
            (name, self.act_max[name], self.thresholds[name])
            for name in self.thresholds
        ]


class FTClipAct:
    """Drives the three-step methodology on a pre-trained model."""

    def __init__(self, config: "FTClipActConfig | None" = None):
        self.config = config if config is not None else FTClipActConfig()

    def harden(
        self,
        model: nn.Module,
        validation_set: Dataset,
        sampler: "FaultSampler | None" = None,
    ) -> HardenedModel:
        """Run Steps 1-3 on ``model`` (modified in place) and report.

        ``validation_set`` plays the paper's role of "a small subset of
        the validation set": profiling uses its first ``profile_images``
        samples and threshold tuning uses a disjoint slice of
        ``eval_images`` samples (falling back to overlap only if the set
        is too small).
        """
        config = self.config
        model.eval()

        profile_set, tune_set = self._split_validation(validation_set)

        # Step 1: statistical profiling.
        profile = profile_activations(
            model,
            DataLoader(profile_set, batch_size=config.batch_size),
            seed=config.seed,
        )
        # A layer whose activations never exceed zero on the profile set
        # (a dead ReLU) would yield ACT_max = 0, which is not a valid
        # clipping threshold; floor it at a tiny positive value so the
        # layer simply stays fully clipped.
        act_max = {
            layer: max(value, 1e-6) for layer, value in profile.act_max.items()
        }

        # Step 2: swap in clipped activations at ACT_max.
        swap = swap_activations(model, act_max, variant=config.variant)

        # Step 3: per-layer threshold fine-tuning.
        finetune_results: dict[str, FineTuneResult] = {}
        if config.fine_tune:
            tune_images, tune_labels = tune_set.arrays()
            campaign_config = CampaignConfig(
                fault_rates=tuple(config.fault_rates),
                trials=config.trials,
                seed=config.seed,
                batch_size=config.batch_size,
            )
            tuner = ThresholdFineTuner(
                model,
                memory_factory=self._memory_factory(model),
                images=tune_images,
                labels=tune_labels,
                campaign_config=campaign_config,
                finetune_config=config.finetune,
                sampler=sampler,
                workers=config.workers,
            )
            finetune_results = tuner.tune_all(act_max)

        return HardenedModel(
            model=model,
            thresholds=get_thresholds(model),
            act_max=act_max,
            profile=profile,
            swap=swap,
            finetune_results=finetune_results,
        )

    def _split_validation(self, validation_set: Dataset) -> tuple[Dataset, Dataset]:
        """Disjoint (profile, tune) slices of the validation set."""
        config = self.config
        n = len(validation_set)
        n_profile = min(config.profile_images, n)
        profile_set = Subset(validation_set, range(n_profile))
        remaining = n - n_profile
        if remaining >= config.eval_images:
            tune_set: Dataset = Subset(
                validation_set, range(n_profile, n_profile + config.eval_images)
            )
        elif remaining > 0:
            tune_set = Subset(validation_set, range(n_profile, n))
        else:
            # Degenerate small set: reuse the profiling images.
            tune_set = Subset(validation_set, range(min(config.eval_images, n)))
        return profile_set, tune_set

    def _memory_factory(self, model: nn.Module):
        """Per-layer or whole-network fault scope for tuning campaigns."""
        if self.config.tune_scope == "layer":
            return lambda layer_name: WeightMemory.from_model(model, layers=[layer_name])
        whole = WeightMemory.from_model(model)
        return lambda layer_name: whole


def harden_model(
    model: nn.Module,
    validation_set: "Dataset | tuple[np.ndarray, np.ndarray]",
    config: "FTClipActConfig | None" = None,
    sampler: "FaultSampler | None" = None,
) -> HardenedModel:
    """Functional one-shot wrapper around :class:`FTClipAct`.

    ``validation_set`` may be a :class:`Dataset` or an (images, labels)
    array pair.
    """
    if isinstance(validation_set, tuple):
        validation_set = ArrayDataset(*validation_set)
    return FTClipAct(config).harden(model, validation_set, sampler=sampler)
