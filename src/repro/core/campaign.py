"""Fault-injection campaigns: rate sweeps with repeated trials.

A campaign evaluates one model under one fault sampler across a grid of
fault rates, with ``trials`` independent injections per rate, producing a
:class:`~repro.core.metrics.ResilienceCurve`.  Seeds are derived from a
:class:`~repro.utils.rng.SeedTree`, so two campaigns created with the same
seed share *common random numbers*: trial ``j`` at rate ``i`` draws the
same fault locations in both — essential for the threshold fine-tuning
sweep, where AUC differences between thresholds must not be noise.

Execution is delegated to :class:`~repro.core.executor.CampaignExecutor`
via :class:`~repro.core.executor.WeightFaultCellTask` — the same
substrate that runs the quantized, activation-fault and cross-campaign
sweeps — so ``workers=`` fans any campaign over a process pool with
bit-identical results, and several campaigns (layerwise layers,
mitigation variants) can share one pool through
:meth:`~repro.core.executor.CampaignExecutor.run_tasks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import nn
from repro.core.metrics import ResilienceCurve, evaluate_accuracy_arrays
from repro.hw.faultmodels import FaultSet, RandomBitFlip
from repro.hw.memory import WeightMemory
from repro.utils.validation import check_positive

__all__ = [
    "FaultSampler",
    "RandomBitFlipSampler",
    "random_bitflip_sampler",
    "CampaignConfig",
    "FaultInjectionCampaign",
    "run_campaign",
    "default_fault_rates",
]

# A fault sampler draws the *effective* fault set for one trial at one rate.
# Protection baselines (ECC/TMR) plug in here: they sample raw faults over
# their enlarged protected bit space and return only the survivors, and
# declarative scenarios (repro.scenarios.SpecFaultSampler) compile their
# fault_model block to this same protocol — stuck-at / burst / targeted
# models reach any weight-fault campaign through it.
#
# Samplers are expressed as module-level callable classes rather than
# closures so they pickle — a parallel campaign (workers > 1) ships its
# sampler to every worker process.
FaultSampler = Callable[[WeightMemory, float, np.random.Generator], FaultSet]


class RandomBitFlipSampler:
    """The paper's fault model: independent random bit flips."""

    def __call__(
        self, memory: WeightMemory, rate: float, rng: np.random.Generator
    ) -> FaultSet:
        return RandomBitFlip(rate).sample(memory, rng)


def random_bitflip_sampler() -> FaultSampler:
    """The paper's fault model: independent random bit flips."""
    return RandomBitFlipSampler()


def default_fault_rates(
    low: float = 1e-7, high: float = 1e-4, points_per_decade: int = 2
) -> np.ndarray:
    """Log-spaced fault-rate grid, like the paper's 1e-8..1e-5 sweeps.

    Our scaled-down networks hold fewer weight bits than the paper's
    full-size models, so the default grid is shifted upward by roughly the
    bit-count ratio (see DESIGN.md) to land on the same accuracy cliff.
    """
    check_positive("low", low)
    if high <= low:
        raise ValueError(f"high ({high}) must exceed low ({low})")
    check_positive("points_per_decade", points_per_decade)
    decades = np.log10(high) - np.log10(low)
    count = int(round(decades * points_per_decade)) + 1
    return np.logspace(np.log10(low), np.log10(high), count)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign run (except the model)."""

    fault_rates: Sequence[float] = field(default_factory=lambda: tuple(default_fault_rates()))
    trials: int = 20
    seed: int = 0
    batch_size: int = 128

    def __post_init__(self) -> None:
        rates = np.asarray(list(self.fault_rates), dtype=np.float64)
        if rates.size == 0:
            raise ValueError("fault_rates must be non-empty")
        if np.any(rates <= 0):
            raise ValueError("fault rates must be positive (rate 0 is implicit)")
        if np.any(np.diff(rates) <= 0):
            raise ValueError("fault_rates must be strictly increasing")
        check_positive("trials", self.trials)
        check_positive("batch_size", self.batch_size)
        object.__setattr__(self, "fault_rates", tuple(float(r) for r in rates))


class FaultInjectionCampaign:
    """Reusable campaign runner bound to one model and evaluation set."""

    def __init__(
        self,
        model: nn.Module,
        memory: WeightMemory,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
    ):
        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels disagree on sample count")
        self.config = config if config is not None else CampaignConfig()
        self._clean_accuracy: "float | None" = None

    @property
    def clean_accuracy(self) -> float:
        """Fault-free accuracy on the evaluation set (computed lazily)."""
        if self._clean_accuracy is None:
            self._clean_accuracy = evaluate_accuracy_arrays(
                self.model, self.images, self.labels, self.config.batch_size
            )
        return self._clean_accuracy

    def invalidate_clean_accuracy(self) -> None:
        """Force re-evaluation (call after changing thresholds/weights)."""
        self._clean_accuracy = None

    def run(
        self,
        sampler: "FaultSampler | None" = None,
        label: str = "",
        workers: int = 1,
        progress: "Callable | None" = None,
        checkpoint: "str | None" = None,
    ) -> ResilienceCurve:
        """Execute the full (rates x trials) sweep.

        The per-(rate, trial) seed depends only on the campaign seed and
        the (rate index, trial index) pair — not on the sampler — so
        different mitigation variants evaluated with the same config see
        identical raw randomness (common random numbers).

        ``workers`` fans the grid across a process pool (``0`` = one per
        CPU core); the result is bit-identical to the serial run.
        ``progress`` receives a :class:`~repro.core.executor.CellResult`
        per completed cell and ``checkpoint`` names a JSONL journal enabling
        resume of an interrupted sweep — see
        :class:`~repro.core.executor.CampaignExecutor`.

        The clean accuracy comes from the executor's own clean pass and
        refills :attr:`clean_accuracy`'s cache, so a run costs no extra
        fault-free forward over the evaluation set.
        """
        from repro.core.executor import CampaignExecutor, WeightFaultCellTask

        task = WeightFaultCellTask(
            self.model, self.memory, self.images, self.labels,
            config=self.config, sampler=sampler, label=label,
        )
        executor = CampaignExecutor(
            workers=workers, progress=progress, checkpoint=checkpoint
        )
        curve = executor.run_tasks([task])[0]
        self._clean_accuracy = curve.clean_accuracy
        return curve


def run_campaign(
    model: nn.Module,
    memory: WeightMemory,
    images: np.ndarray,
    labels: np.ndarray,
    config: "CampaignConfig | None" = None,
    sampler: "FaultSampler | None" = None,
    label: str = "",
    workers: int = 1,
    progress: "Callable | None" = None,
    checkpoint: "str | None" = None,
) -> ResilienceCurve:
    """Functional one-shot wrapper around :class:`FaultInjectionCampaign`."""
    campaign = FaultInjectionCampaign(model, memory, images, labels, config)
    return campaign.run(
        sampler=sampler,
        label=label,
        workers=workers,
        progress=progress,
        checkpoint=checkpoint,
    )
