"""Synthetic CIFAR-10 substitute.

The paper evaluates on CIFAR-10, which is unavailable offline, so this
module generates a deterministic, class-conditional 10-class dataset of
3x32x32 float32 images.  Each class is defined by a procedurally derived
*prototype* — a colour palette, an oriented sinusoidal texture, and one of
several geometric shapes — and each sample perturbs the prototype with
per-instance jitter (phase, position, scale, brightness) plus Gaussian
pixel noise.

Design goals (see DESIGN.md, substitution table):

* classes are separable enough for small CNNs to reach high clean accuracy
  within a few epochs on a single CPU core;
* samples are diverse enough that accuracy is a meaningful, non-saturated
  metric under fault injection;
* generation is fully deterministic given ``(seed, split, index)`` so every
  experiment sees exactly the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import SeedTree
from repro.utils.validation import check_positive

__all__ = ["CIFAR10_CLASS_NAMES", "ClassPrototype", "SplitStream", "SyntheticCIFAR10"]

# CIFAR-10's class names, kept for readable reports even though our images
# are procedural rather than photographic.
CIFAR10_CLASS_NAMES = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)

_SHAPES = ("disc", "ring", "square", "cross", "stripes", "checker")


@dataclass(frozen=True)
class ClassPrototype:
    """The deterministic generative parameters of one class."""

    label: int
    base_color: np.ndarray  # (3,) in [0, 1]
    accent_color: np.ndarray  # (3,) in [0, 1]
    frequency: tuple[float, float]  # texture spatial frequency (fx, fy)
    shape: str  # one of _SHAPES
    shape_scale: float  # relative size of the shape in the frame


class SyntheticCIFAR10:
    """Deterministic generator for the 10-class synthetic image dataset."""

    def __init__(
        self,
        num_classes: int = 10,
        image_size: int = 32,
        noise_std: float = 0.08,
        seed: int = 2020,
    ):
        check_positive("num_classes", num_classes)
        check_positive("image_size", image_size)
        if noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {noise_std}")
        self.num_classes = int(num_classes)
        self.image_size = int(image_size)
        self.noise_std = float(noise_std)
        self.seed = int(seed)
        self._tree = SeedTree(seed)
        self.prototypes = tuple(
            self._build_prototype(label) for label in range(self.num_classes)
        )
        # Pre-computed normalized coordinate grids in [-1, 1].
        axis = np.linspace(-1.0, 1.0, self.image_size, dtype=np.float32)
        self._yy, self._xx = np.meshgrid(axis, axis, indexing="ij")

    # ------------------------------------------------------------------ #
    # prototypes
    # ------------------------------------------------------------------ #

    def _build_prototype(self, label: int) -> ClassPrototype:
        rng = self._tree.generator(f"class/{label}")
        # Spread hues around the colour wheel so classes are chromatically
        # distinct; keep saturation moderate so texture/shape still matter.
        hue = (label / self.num_classes + rng.uniform(-0.03, 0.03)) % 1.0
        base_color = _hsv_to_rgb(hue, 0.55 + 0.3 * rng.random(), 0.75)
        accent_color = _hsv_to_rgb((hue + 0.5) % 1.0, 0.7, 0.9)
        frequency = (
            float(rng.uniform(1.0, 4.0)),
            float(rng.uniform(1.0, 4.0)),
        )
        shape = _SHAPES[label % len(_SHAPES)]
        shape_scale = float(rng.uniform(0.35, 0.6))
        return ClassPrototype(
            label=label,
            base_color=base_color,
            accent_color=accent_color,
            frequency=frequency,
            shape=shape,
            shape_scale=shape_scale,
        )

    # ------------------------------------------------------------------ #
    # sample generation
    # ------------------------------------------------------------------ #

    def _shape_mask(
        self,
        prototype: ClassPrototype,
        center: tuple[float, float],
        scale: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Soft [0,1] mask of the class shape at the given pose."""
        cy, cx = center
        yy = (self._yy - cy) / scale
        xx = (self._xx - cx) / scale
        radius = np.sqrt(yy**2 + xx**2)
        if prototype.shape == "disc":
            mask = radius < 1.0
        elif prototype.shape == "ring":
            mask = (radius > 0.55) & (radius < 1.0)
        elif prototype.shape == "square":
            mask = (np.abs(yy) < 0.8) & (np.abs(xx) < 0.8)
        elif prototype.shape == "cross":
            mask = (np.abs(yy) < 0.3) | (np.abs(xx) < 0.3)
            mask &= radius < 1.3
        elif prototype.shape == "stripes":
            mask = (np.sin(6.0 * np.pi * yy) > 0) & (radius < 1.2)
        elif prototype.shape == "checker":
            mask = (np.sin(4.0 * np.pi * yy) * np.sin(4.0 * np.pi * xx)) > 0
            mask &= radius < 1.2
        else:  # pragma: no cover - guarded by _SHAPES
            raise ValueError(f"unknown shape {prototype.shape!r}")
        return mask.astype(np.float32)

    def _texture(
        self, prototype: ClassPrototype, phase: float, rotation: float
    ) -> np.ndarray:
        """Oriented sinusoidal texture field in [0, 1]."""
        fx, fy = prototype.frequency
        cos_r, sin_r = np.cos(rotation), np.sin(rotation)
        xr = cos_r * self._xx - sin_r * self._yy
        yr = sin_r * self._xx + cos_r * self._yy
        wave = np.sin(2.0 * np.pi * (fx * xr + fy * yr) + phase)
        return (0.5 + 0.5 * wave).astype(np.float32)

    def generate_sample(self, label: int, rng: np.random.Generator) -> np.ndarray:
        """One (3, H, W) float32 image of class ``label`` in [0, 1]."""
        if not 0 <= label < self.num_classes:
            raise ValueError(f"label must lie in [0, {self.num_classes}), got {label}")
        prototype = self.prototypes[label]

        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        rotation = float(rng.uniform(-0.35, 0.35))
        center = (float(rng.uniform(-0.25, 0.25)), float(rng.uniform(-0.25, 0.25)))
        scale = prototype.shape_scale * float(rng.uniform(0.8, 1.25))
        brightness = float(rng.uniform(0.85, 1.15))

        texture = self._texture(prototype, phase, rotation)
        mask = self._shape_mask(prototype, center, scale, rng)

        base = prototype.base_color[:, None, None] * texture[None, :, :]
        accent = prototype.accent_color[:, None, None] * mask[None, :, :]
        image = brightness * (0.65 * base + 0.35 * accent)
        if self.noise_std > 0:
            image = image + rng.normal(0.0, self.noise_std, size=image.shape)
        return np.clip(image, 0.0, 1.0).astype(np.float32)

    def generate(
        self, n: int, split: str = "train"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` (images, labels) with a balanced label cycle.

        Different ``split`` names draw from independent random streams, so
        train/val/test never overlap.
        """
        return SplitStream(self, n, split).take(n)

    def dataset(self, n: int, split: str = "train") -> ArrayDataset:
        """Materialise a split as an :class:`ArrayDataset`."""
        images, labels = self.generate(n, split)
        return ArrayDataset(images, labels)


class SplitStream:
    """One split of :class:`SyntheticCIFAR10`, generated only as far as read.

    The split is one random stream, ``split/<name>``: all ``n`` labels are
    shuffled first (a balanced label cycle), then samples are drawn in
    order.  :meth:`take` fills one ``n``-image buffer from that stream up
    to the count asked, so the first ``k`` images are the first ``k`` rows
    of the whole split whatever was read before.  They are never a
    ``k``-image split, whose shuffle draws over ``k`` labels.
    """

    def __init__(self, source: SyntheticCIFAR10, n: int, split: str):
        check_positive("n", n)
        self.split = split
        self._source = source
        self._rng = source._tree.generator(f"split/{split}")
        self._labels = np.arange(n, dtype=np.int64) % source.num_classes
        self._rng.shuffle(self._labels)
        size = source.image_size
        self._images = np.empty((n, 3, size, size), dtype=np.float32)
        self._filled = 0

    def __len__(self) -> int:
        return self._labels.shape[0]

    def take(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``k`` images and labels, generating only rows not drawn yet.

        Both are views of the split's buffers, so every ``take(k)`` returns
        arrays at the same address.  A ``k`` outside ``[1, n]`` raises
        ``ValueError("wants k eval images but the <split> split holds
        n")``, which a reader prefixes with its own name.  Not
        thread-safe: a shared stream is read under its owner's lock.
        """
        if not 0 < k <= len(self):
            raise ValueError(
                f"wants {k} eval images but the {self.split} split holds "
                f"{len(self)}"
            )
        for index in range(self._filled, k):
            self._images[index] = self._source.generate_sample(
                int(self._labels[index]), self._rng
            )
        self._filled = max(self._filled, k)
        return self._images[:k], self._labels[:k]


def _hsv_to_rgb(hue: float, saturation: float, value: float) -> np.ndarray:
    """Scalar HSV→RGB conversion returning a float32 (3,) vector."""
    hue = hue % 1.0
    sector = int(hue * 6.0) % 6
    fraction = hue * 6.0 - int(hue * 6.0)
    p = value * (1.0 - saturation)
    q = value * (1.0 - saturation * fraction)
    t = value * (1.0 - saturation * (1.0 - fraction))
    table = {
        0: (value, t, p),
        1: (q, value, p),
        2: (p, value, t),
        3: (p, q, value),
        4: (t, p, value),
        5: (value, p, q),
    }
    return np.asarray(table[sector], dtype=np.float32)
