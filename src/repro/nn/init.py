"""Weight-initialization schemes.

All initializers take an explicit generator so model construction is fully
deterministic given a seed (required for the cached model zoo to be
reproducible across runs).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "kaiming_uniform",
    "zeros",
    "fan_in_and_fan_out",
]


def fan_in_and_fan_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a linear or convolutional weight shape.

    Linear weights are ``(out_features, in_features)``; convolution weights
    are ``(out_channels, in_channels, kh, kw)``.
    """
    if len(shape) < 2:
        raise ValueError(f"need at least 2 dimensions, got shape {shape}")
    receptive_field = 1
    for dim in shape[2:]:
        receptive_field *= dim
    fan_in = shape[1] * receptive_field
    fan_out = shape[0] * receptive_field
    return fan_in, fan_out


def kaiming_uniform(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    gain: float = math.sqrt(2.0),
) -> np.ndarray:
    """He-uniform init, the default for ReLU networks."""
    fan_in, _ = fan_in_and_fan_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero float32 array (bias default)."""
    return np.zeros(shape, dtype=np.float32)
