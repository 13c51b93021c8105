"""Per-layer error-resilience analysis (paper Section III, Fig. 3a/e/i).

Runs one fault-injection campaign per computational layer with faults
scoped to that layer's weight memory, revealing which layers are most
sensitive and where each layer's accuracy cliff sits.

With ``workers > 1`` every layer's cells share one pool, one
shared-memory tensor plane (each per-layer task's weights mapped as
zero-copy read-only views; see ``docs/MEMORY_MODEL.md``) and one
published clean pass per task — and because each campaign scopes its
memory to a single layer, copy-on-write privatizes exactly that layer's
regions per worker, the best case for the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import nn
from repro.core.campaign import CampaignConfig, FaultSampler
from repro.core.executor import CampaignExecutor, WeightFaultCellTask
from repro.core.metrics import ResilienceCurve
from repro.hw.memory import WeightMemory
from repro.models.registry import layer_names

__all__ = ["LayerwiseResult", "run_layerwise_analysis", "cliff_fault_rate"]


@dataclass
class LayerwiseResult:
    """Per-layer resilience curves plus the layers' memory sizes."""

    curves: dict[str, ResilienceCurve]
    bits_per_layer: dict[str, int]

    def ordered_layers(self) -> list[str]:
        """Layer names in network order."""
        return list(self.curves)

    def cliff_rates(self, drop: float = 0.1) -> dict[str, float]:
        """Per-layer fault rate where mean accuracy first drops by ``drop``
        below clean accuracy (∞ if it never does within the sweep)."""
        return {
            name: cliff_fault_rate(curve, drop)
            for name, curve in self.curves.items()
        }


def cliff_fault_rate(curve: ResilienceCurve, drop: float = 0.1) -> float:
    """First fault rate whose mean accuracy is ``drop`` below clean."""
    threshold = curve.clean_accuracy - drop
    means = curve.mean_accuracies()
    below = np.nonzero(means < threshold)[0]
    if below.size == 0:
        return float("inf")
    return float(curve.fault_rates[below[0]])


def run_layerwise_analysis(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    config: "CampaignConfig | None" = None,
    layers: "Iterable[str] | None" = None,
    sampler: "FaultSampler | None" = None,
    workers: int = 1,
    progress: "Callable | None" = None,
    checkpoint: "str | None" = None,
) -> LayerwiseResult:
    """Per-layer fault injection: one scoped campaign per CONV/FC layer.

    ``layers`` restricts the analysis (e.g. the paper's CONV-1 / CONV-5 /
    FC-1 selection); default is every computational layer.  ``workers``
    schedules the cells of *all* layers' campaigns into one shared
    process pool (0 = cpu_count) — cross-campaign fan-out — without
    changing any curve: results are bit-identical to running the layers'
    campaigns back-to-back serially.  ``progress`` streams per-cell
    :class:`~repro.core.executor.CellResult`\\ s (``campaign_label`` names
    the layer) and ``checkpoint`` enables resume of the whole
    multi-layer sweep from one journal file.

    Each layer's campaign is the suffix engine's best case: faults are
    scoped to one known layer, so every cell re-executes only from that
    layer's cached input (``REPRO_NO_SUFFIX=1`` restores the full-forward
    path; curves are bit-identical either way).
    """
    available = layer_names(model)
    selected: Sequence[str] = list(layers) if layers is not None else available
    unknown = set(selected) - set(available)
    if unknown:
        raise ValueError(
            f"unknown layers {sorted(unknown)!r}; model has {available!r}"
        )

    bits: dict[str, int] = {}
    tasks: list[WeightFaultCellTask] = []
    for layer in selected:
        memory = WeightMemory.from_model(model, layers=[layer])
        bits[layer] = memory.total_bits
        tasks.append(
            WeightFaultCellTask(
                model, memory, images, labels,
                config=config, sampler=sampler, label=layer,
            )
        )
    executor = CampaignExecutor(
        workers=workers, progress=progress, checkpoint=checkpoint
    )
    curves = dict(zip(selected, executor.run_tasks(tasks)))
    return LayerwiseResult(curves=curves, bits_per_layer=bits)
