"""Helpers the tests share and no run path needs.

:func:`weight_memory` maps bare parameters into a
:class:`~repro.hw.memory.WeightMemory` without a model around them;
:func:`shrunk` cuts a scenario spec down to smoke size.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro import nn
from repro.hw.bits import WORD_BITS
from repro.hw.memory import MemoryRegion, WeightMemory
from repro.scenarios.spec import CampaignSpec


def weight_memory(named_parameters: Iterable[tuple[str, nn.Parameter]]) -> WeightMemory:
    """Map an explicit (name, parameter) sequence, each name its own layer."""
    regions: list[MemoryRegion] = []
    offset = 0
    for name, param in named_parameters:
        regions.append(
            MemoryRegion(name=name, layer_name=name, parameter=param, bit_offset=offset)
        )
        offset += param.size * WORD_BITS
    return WeightMemory(regions)


def shrunk(
    spec: CampaignSpec, rates: int = 2, trials: int = 1, eval_images: int = 16
) -> CampaignSpec:
    """A cheap variant of ``spec`` for smoke testing.

    Keeps the scientific shape (model, campaign, variant, fault model)
    and truncates the sweep: the first and last ``rates`` points,
    ``trials`` trials, ``eval_images`` evaluation images.
    """
    kept = spec.rates
    if len(kept) > rates:
        kept = tuple(kept[: rates - 1]) + (kept[-1],)
    return replace(
        spec,
        rates=kept,
        trials=min(spec.trials, trials),
        eval_images=min(spec.eval_images, eval_images),
        batch_size=min(spec.batch_size, eval_images),
    )
