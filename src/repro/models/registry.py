"""Model registry and the paper's layer-naming convention.

The paper refers to computational layers as CONV-1..CONV-n followed by
FC-1..FC-m; :func:`computational_layers` recovers that naming from any
model built from this library's modules, which the per-layer fault
injection and profiling code relies on.
"""

from __future__ import annotations

from typing import Callable

from repro import nn
from repro.models.alexnet import build_alexnet
from repro.models.lenet import build_lenet5
from repro.models.mlp import build_mlp
from repro.models.vgg import build_vgg16

__all__ = [
    "MODEL_BUILDERS",
    "build_model",
    "computational_layers",
    "layer_names",
]

ModelBuilder = Callable[..., nn.Module]

MODEL_BUILDERS: dict[str, ModelBuilder] = {
    "alexnet": build_alexnet,
    "vgg16": build_vgg16,
    "lenet5": build_lenet5,
    "mlp": build_mlp,
}


def build_model(
    name: str, num_classes: int = 10, width_mult: float = 1.0, seed: int = 0
) -> nn.Module:
    """Instantiate a registered architecture by name."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(num_classes=num_classes, width_mult=width_mult, seed=seed)


def computational_layers(model: nn.Module) -> list[tuple[str, nn.Module]]:
    """Ordered ``(paper_name, layer)`` pairs for all CONV/FC layers.

    Convolutions are named CONV-1, CONV-2, ... and linear layers FC-1,
    FC-2, ... in forward order, matching the paper's Figure 3 labels.
    """
    pairs: list[tuple[str, nn.Module]] = []
    conv_count = 0
    fc_count = 0
    for _, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            conv_count += 1
            pairs.append((f"CONV-{conv_count}", module))
        elif isinstance(module, nn.Linear):
            fc_count += 1
            pairs.append((f"FC-{fc_count}", module))
    return pairs


def layer_names(model: nn.Module) -> list[str]:
    """Just the paper-style names of the computational layers, in order."""
    return [name for name, _ in computational_layers(model)]
