"""Mitigation baselines the paper compares against (or motivates).

Every baseline is expressed in the same campaign vocabulary so the
comparison benchmark can sweep them uniformly:

* **unprotected** — the raw network (paper's "unprotected DNN");
* **relu6** — fixed clipping at 6 (a common bounded activation);
* **actmax-clip** — Step 1+2 only: clipped activations at profiled
  ``ACT_max`` without fine-tuning (isolates Algorithm 1's contribution);
* **clamp** — saturate-at-T ablation of the paper's zero-out clipping;
* **ecc** / **tmr** / **dmr** — hardware memory protection, modelled by
  fault-sampler filters that honestly pay the redundancy's enlarged
  fault-exposure surface.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro import nn
from repro.core.campaign import FaultSampler, random_bitflip_sampler
from repro.hw.ecc import ECCFilter
from repro.hw.faultmodels import FaultSet
from repro.hw.memory import WeightMemory
from repro.hw.rangecheck import WeightRangeCheck
from repro.hw.tmr import DMRFilter, TMRFilter
from repro.nn.activations import ReLU6

__all__ = [
    "apply_relu6",
    "FilterSampler",
    "range_check_sampler",
    "ecc_sampler",
    "tmr_sampler",
    "dmr_sampler",
    "run_mitigation_sweep",
    "MITIGATION_SAMPLERS",
]


def apply_relu6(model: nn.Module, cap: float = 6.0) -> int:
    """Swap every unbounded activation for ReLU6; returns the swap count.

    Uses the same association walk as the paper's swap so the comparison
    bounds exactly the same activations.
    """
    from repro.core.swap import find_activation_sites

    sites = find_activation_sites(model)
    if not sites:
        raise ValueError("model has no swappable activations")
    for site in sites:
        replacement = ReLU6(cap=cap)
        replacement.train(model.training)
        setattr(site.parent, site.attribute, replacement)
    return len(sites)


class FilterSampler:
    """A :data:`FaultSampler` delegating to a protection filter.

    A module-level class (not a closure) so protected campaigns pickle
    and can run under a parallel :class:`~repro.core.executor.CampaignExecutor`.
    """

    def __init__(self, filter_) -> None:
        self.filter = filter_

    def __call__(
        self, memory: WeightMemory, rate: float, rng: np.random.Generator
    ) -> FaultSet:
        return self.filter.sample_effective(memory, rate, rng)


def ecc_sampler(due_policy: str = "zero") -> FaultSampler:
    """Fault sampler seen by a SEC-DED-protected weight memory."""
    return FilterSampler(ECCFilter(due_policy=due_policy))


def tmr_sampler() -> FaultSampler:
    """Fault sampler seen by a bitwise-TMR-protected weight memory."""
    return FilterSampler(TMRFilter())


def range_check_sampler(memory: WeightMemory, margin: float = 1.0) -> FaultSampler:
    """Fault sampler seen behind a Ranger-style weight range check.

    Unlike the redundancy samplers this one is *bound to a memory*: the
    per-region bounds are profiled from that memory's current weights.
    """
    return FilterSampler(WeightRangeCheck(memory, margin=margin))


def dmr_sampler() -> FaultSampler:
    """Fault sampler seen by a DMR (detect-and-zero) weight memory."""
    return FilterSampler(DMRFilter())


def run_mitigation_sweep(
    variants: "Mapping[str, tuple[nn.Module, WeightMemory, FaultSampler | None]]",
    images: np.ndarray,
    labels: np.ndarray,
    config=None,
    workers: int = 1,
    progress: "Callable | None" = None,
    checkpoint: "str | None" = None,
) -> "dict[str, object]":
    """Run several mitigation variants' campaigns through one worker pool.

    ``variants`` maps a label to ``(model, memory, sampler-or-None)``;
    model-level mitigations (relu6, clipping) differ in the model,
    redundancy schemes (ECC/TMR/DMR) in the sampler.  All variants share
    ``config`` — common random numbers — and with ``workers > 1`` their
    cells interleave in a single shared pool instead of running the
    campaigns back-to-back; each returned
    :class:`~repro.core.metrics.ResilienceCurve` is bit-identical to its
    standalone serial run either way.  ``checkpoint`` resumes the whole
    comparison from one journal file.
    """
    from repro.core.executor import CampaignExecutor, WeightFaultCellTask

    tasks = [
        WeightFaultCellTask(
            model, memory, images, labels,
            config=config, sampler=sampler, label=label,
        )
        for label, (model, memory, sampler) in variants.items()
    ]
    executor = CampaignExecutor(
        workers=workers, progress=progress, checkpoint=checkpoint
    )
    return dict(zip(variants, executor.run_tasks(tasks)))


# Registry used by the mitigation-comparison benchmark.  "unprotected",
# "relu6", "actmax-clip", "ftclipact" and "clamp" differ in *model*
# preparation and share the plain sampler; the redundancy schemes differ in
# *sampler* and share the unmodified model.
MITIGATION_SAMPLERS: dict[str, Callable[[], FaultSampler]] = {
    "plain": random_bitflip_sampler,
    "ecc": ecc_sampler,
    "tmr": tmr_sampler,
    "dmr": dmr_sampler,
}
