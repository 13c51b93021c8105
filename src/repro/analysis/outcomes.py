"""Fault-outcome taxonomy: masked / benign / SDC / DUE classification.

Accuracy alone hides *how* a network fails.  The dependability literature
(e.g. Ares) classifies each faulty inference against the fault-free run:

* **masked** — the prediction is identical to the clean prediction;
* **benign** — the prediction changed but is still correct;
* **sdc** (silent data corruption) — the prediction changed from correct
  to wrong: the dangerous case for safety-critical deployment;
* **due** (detected uncorrectable error) — the output logits contain
  non-finite values, i.e. the corruption is at least *detectable* by a
  cheap runtime check.

A key appeal of clipped activations that plain accuracy understates: they
convert would-be SDCs into masked outcomes rather than merely shifting
the accuracy curve.

The analysis is a vector-valued cell task on the shared executor
substrate: ``workers=`` fans it out with weights shipped zero-copy
through the shared-memory tensor plane and the clean reference pass
published once per host (``docs/MEMORY_MODEL.md``), bit-identical to
the serial loop.
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

__all__ = [
    "OutcomeCounts",
    "OutcomeBreakdown",
    "OutcomeCellTask",
    "run_outcome_analysis",
]


@dataclass(frozen=True)
class OutcomeCounts:
    """Counts of inference outcomes at one fault rate (summed over trials)."""

    masked: int
    benign: int
    sdc: int
    due: int

    @property
    def total(self) -> int:
        """Total classified inferences."""
        return self.masked + self.benign + self.sdc + self.due

    def rate(self, outcome: str) -> float:
        """Fraction of inferences with the given outcome."""
        value = getattr(self, outcome)
        return value / self.total if self.total else 0.0


@dataclass
class OutcomeBreakdown:
    """Per-fault-rate outcome statistics of one campaign."""

    fault_rates: np.ndarray
    counts: list[OutcomeCounts]
    clean_accuracy: float
    label: str = ""

    def sdc_rates(self) -> np.ndarray:
        """Silent-data-corruption fraction per fault rate."""
        return np.asarray([c.rate("sdc") for c in self.counts])

    def masked_rates(self) -> np.ndarray:
        """Masked fraction per fault rate."""
        return np.asarray([c.rate("masked") for c in self.counts])

    def due_rates(self) -> np.ndarray:
        """Detected (non-finite output) fraction per fault rate."""
        return np.asarray([c.rate("due") for c in self.counts])

    def summary_rows(self) -> list[list[object]]:
        """Table rows: rate, masked, benign, sdc, due fractions."""
        rows: list[list[object]] = []
        for rate, count in zip(self.fault_rates, self.counts):
            rows.append(
                [
                    float(rate),
                    count.rate("masked"),
                    count.rate("benign"),
                    count.rate("sdc"),
                    count.rate("due"),
                ]
            )
        return rows


def _classify_trial(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    clean_predictions: np.ndarray,
    batch_size: int,
    forward=None,
) -> tuple[int, int, int, int]:
    """Classify every image's outcome for the currently-injected faults.

    ``forward`` optionally replaces the per-batch full forward (see
    :data:`repro.core.metrics.BatchForward`); the suffix engine's partial
    re-execution is bit-identical, so the taxonomy — including the
    non-finite-logit DUE check — is unchanged.
    """
    masked = benign = sdc = due = 0
    was_training = model.training
    model.eval()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, images.shape[0], batch_size):
                batch = images[start : start + batch_size]
                batch_labels = labels[start : start + batch_size]
                batch_clean = clean_predictions[start : start + batch_size]
                logits = model(batch) if forward is None else forward(batch, start)
                finite = np.isfinite(logits).all(axis=1)
                predictions = np.argmax(logits, axis=1)

                due += int((~finite).sum())
                same = finite & (predictions == batch_clean)
                masked += int(same.sum())
                changed = finite & ~same
                benign += int((changed & (predictions == batch_labels)).sum())
                sdc += int(
                    (changed & (batch_clean == batch_labels) & (predictions != batch_labels)).sum()
                )
                # Changed wrong->different-wrong is neither benign nor SDC;
                # count it as masked-equivalent harm-neutral "benign".
                benign += int(
                    (changed & (batch_clean != batch_labels) & (predictions != batch_labels)).sum()
                )
    finally:
        model.train(was_training)
    return masked, benign, sdc, due


class OutcomeCellTask:
    """Cell protocol for the outcome taxonomy (see :mod:`repro.core.executor`).

    Each cell is vector-valued — the ``(masked, benign, sdc, due)``
    counts of one trial — and :meth:`build_result` sums them per rate.
    The clean predictions the taxonomy compares against are computed
    once parent-side and ship inside the task payload.
    """

    kind = "outcome"
    cell_width = 4

    def __init__(
        self,
        model: nn.Module,
        memory: WeightMemory,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
        sampler: "FaultSampler | None" = None,
        label: str = "",
    ):
        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.sampler = sampler if sampler is not None else random_bitflip_sampler()
        self.label = label
        self.clean_predictions = predict_labels(
            model, self.images, self.config.batch_size
        )

    def __getstate__(self) -> dict:
        return payload_state(self)

    def clean_accuracy(self) -> float:
        return float((self.clean_predictions == self.labels).mean())

    def measure(self, forward=None) -> tuple[float, ...]:
        """Outcome counts of the (currently fault-injected) model."""
        masked, benign, sdc, due = _classify_trial(
            self.model, self.images, self.labels,
            self.clean_predictions, self.config.batch_size,
            forward=forward,
        )
        return (float(masked), float(benign), float(sdc), float(due))

    def make_runner(self) -> InjectionCellRunner:
        return InjectionCellRunner(self)

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> OutcomeBreakdown:
        counts = []
        for rate_index in range(rates.size):
            sums = values[rate_index].sum(axis=0)  # ints, exact in float64
            counts.append(
                OutcomeCounts(
                    masked=int(sums[0]),
                    benign=int(sums[1]),
                    sdc=int(sums[2]),
                    due=int(sums[3]),
                )
            )
        return OutcomeBreakdown(
            fault_rates=rates,
            counts=counts,
            clean_accuracy=self.clean_accuracy(),
            label=self.label,
        )


def run_outcome_analysis(
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
) -> OutcomeBreakdown:
    """Sweep fault rates and classify every inference's outcome.

    Uses the same ``rate/<i>/trial/<j>`` seed derivation as
    :func:`~repro.core.campaign.run_campaign`, so outcome
    breakdowns pair exactly with accuracy curves from the same config.
    ``workers`` fans the grid across a process pool (``0`` = one per CPU
    core) with counts bit-identical to the serial sweep.
    """
    task = OutcomeCellTask(
        model, memory, images, labels, config=config, sampler=sampler, label=label,
    )
    executor = CampaignExecutor(
        workers=workers, progress=progress, checkpoint=checkpoint
    )
    return executor.run_tasks([task])[0]
