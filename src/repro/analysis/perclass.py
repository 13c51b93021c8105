"""Per-class vulnerability analysis.

Aggregate accuracy can hide that faults hurt some classes far more than
others (a network can collapse into predicting one class — the classic
failure of exponent-flip corruption, where one logit's pathway saturates).
This analysis measures per-class recall under fault injection and the
distribution of predicted classes, exposing that collapse.

Like the outcome taxonomy, it is a vector-valued cell task on the shared
executor substrate: ``workers=`` fans it out with weights mapped
zero-copy from the shared-memory tensor plane and the clean pass shared
across workers (``docs/MEMORY_MODEL.md``), bit-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import nn
from repro.core.campaign import CampaignConfig, FaultSampler, random_bitflip_sampler
from repro.core.executor import CampaignExecutor, InjectionCellRunner, payload_state
from repro.core.metrics import predict_labels
from repro.hw.memory import WeightMemory

__all__ = ["PerClassResult", "PerClassCellTask", "run_per_class_analysis"]


@dataclass
class PerClassResult:
    """Per-class recall and prediction distribution at each fault rate."""

    fault_rates: np.ndarray  # (R,)
    recall: np.ndarray  # (R, C) mean per-class recall over trials
    prediction_share: np.ndarray  # (R, C) fraction of predictions per class
    clean_recall: np.ndarray  # (C,)
    num_classes: int

    def most_vulnerable_classes(self, rate_index: int = -1, k: int = 3) -> list[int]:
        """Classes with the largest recall drop at the given rate."""
        drop = self.clean_recall - self.recall[rate_index]
        return [int(i) for i in np.argsort(drop)[::-1][:k]]

    def prediction_collapse(self, rate_index: int = -1) -> float:
        """Max single-class share of predictions at the given rate.

        1/num_classes means perfectly spread; 1.0 means total collapse
        into one predicted class.
        """
        return float(self.prediction_share[rate_index].max())


def _per_class_stats(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """(recall per class, prediction share per class) for one trial."""
    recall = np.zeros(num_classes)
    for cls in range(num_classes):
        mask = labels == cls
        if mask.any():
            recall[cls] = float((predictions[mask] == cls).mean())
    share = np.bincount(
        np.clip(predictions, 0, num_classes - 1), minlength=num_classes
    ).astype(np.float64)
    share /= max(predictions.size, 1)
    return recall, share


class PerClassCellTask:
    """Cell protocol for per-class analysis (see :mod:`repro.core.executor`).

    Each cell is vector-valued — one trial's per-class recall followed by
    its per-class prediction share (``cell_width = 2 * num_classes``) —
    and :meth:`build_result` averages them per rate in trial order,
    matching the historical serial accumulation bit for bit.
    """

    kind = "per-class"

    def __init__(
        self,
        model: nn.Module,
        memory: WeightMemory,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
        sampler: "FaultSampler | None" = None,
        num_classes: "int | None" = None,
        label: str = "",
    ):
        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.sampler = sampler if sampler is not None else random_bitflip_sampler()
        if num_classes is None:
            num_classes = int(self.labels.max()) + 1
        self.num_classes = int(num_classes)
        self.cell_width = 2 * self.num_classes
        self.label = label

    def __getstate__(self) -> dict:
        return payload_state(self)

    def measure(self, forward=None) -> np.ndarray:
        """Per-class stats of the (currently fault-injected) model."""
        predictions = predict_labels(
            self.model, self.images, self.config.batch_size, forward=forward
        )
        trial_recall, trial_share = _per_class_stats(
            predictions, self.labels, self.num_classes
        )
        return np.concatenate([trial_recall, trial_share])

    def make_runner(self) -> InjectionCellRunner:
        return InjectionCellRunner(self)

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> PerClassResult:
        clean_predictions = predict_labels(self.model, self.images, self.config.batch_size)
        clean_recall, _ = _per_class_stats(
            clean_predictions, self.labels, self.num_classes
        )
        classes = self.num_classes
        recall = np.zeros((rates.size, classes))
        share = np.zeros((rates.size, classes))
        # Accumulate in trial order (not np.sum's pairwise reduction) so
        # the result matches the historical serial loop bit for bit.
        for rate_index in range(rates.size):
            for trial in range(self.config.trials):
                recall[rate_index] += values[rate_index, trial, :classes]
                share[rate_index] += values[rate_index, trial, classes:]
            recall[rate_index] /= self.config.trials
            share[rate_index] /= self.config.trials
        return PerClassResult(
            fault_rates=rates,
            recall=recall,
            prediction_share=share,
            clean_recall=clean_recall,
            num_classes=classes,
        )


def run_per_class_analysis(
    model: nn.Module,
    memory: WeightMemory,
    images: np.ndarray,
    labels: np.ndarray,
    config: "CampaignConfig | None" = None,
    sampler: "FaultSampler | None" = None,
    num_classes: "int | None" = None,
    workers: int = 1,
    progress: "Callable | None" = None,
    checkpoint: "str | None" = None,
) -> PerClassResult:
    """Sweep fault rates and record per-class recall / prediction share.

    ``workers`` fans the grid across a process pool (``0`` = one per CPU
    core) with results bit-identical to the serial sweep.
    """
    task = PerClassCellTask(
        model, memory, images, labels,
        config=config, sampler=sampler, num_classes=num_classes,
    )
    executor = CampaignExecutor(
        workers=workers, progress=progress, checkpoint=checkpoint
    )
    return executor.run_tasks([task])[0]
