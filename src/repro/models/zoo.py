"""Pre-trained model zoo.

The paper starts from pre-trained AlexNet/VGG-16 models.  With no network
access, the zoo *produces* those models: it trains each registered
architecture on the synthetic CIFAR-10 replacement and caches the weights
(plus training metadata) on disk keyed by the full configuration, so every
experiment after the first reuses the same pre-trained network — exactly
the paper's workflow.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.data.loader import DataLoader
from repro.data.synthetic import SplitStream, SyntheticCIFAR10
from repro.models.registry import build_model
from repro.optim.adam import Adam
from repro.optim.trainer import Trainer, evaluate_accuracy
from repro.utils.cache import ArtifactCache
from repro.utils.serialization import load_state_dict, save_state_dict

__all__ = ["ZooConfig", "PretrainedBundle", "get_pretrained", "train_model"]


@dataclass(frozen=True)
class ZooConfig:
    """Everything that determines a pre-trained model (and its cache key)."""

    model: str = "alexnet"
    num_classes: int = 10
    width_mult: float = 0.25
    seed: int = 2020
    n_train: int = 2000
    n_val: int = 400
    n_test: int = 600
    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    noise_std: float = 0.08

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (used for cache fingerprinting)."""
        return asdict(self)


@dataclass
class PretrainedBundle:
    """A trained model together with its clean accuracy and data splits.

    Each data split is one :class:`~repro.data.synthetic.SplitStream` of
    :class:`~repro.data.synthetic.SyntheticCIFAR10` (stream
    ``split/<name>``), so a split's bytes do not depend on which other
    splits were read, or when.  A split is synthesized on demand and
    only as far as read: :meth:`prefix` generates the first ``count``
    images, and ``train_set``, ``val_set`` and ``test_set`` the whole
    split.  Each sample is generated at most once, into one buffer per
    split, under a lock, even when threads (the daemon's slots) share
    one bundle.
    """

    model: nn.Module
    config: ZooConfig
    clean_accuracy: float
    from_cache: bool = False
    _splits: dict[str, SplitStream] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _datasets: dict[str, ArrayDataset] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _splits_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def name(self) -> str:
        """Architecture name of the bundled model."""
        return self.config.model

    @property
    def train_set(self) -> ArrayDataset:
        """The ``config.n_train``-image training split."""
        return self._split("train")

    @property
    def val_set(self) -> ArrayDataset:
        """The ``config.n_val``-image validation split."""
        return self._split("val")

    @property
    def test_set(self) -> ArrayDataset:
        """The ``config.n_test``-image test split."""
        return self._split("test")

    def prefix(self, name: str, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """The first ``count`` images and labels of split ``name``.

        The rows are the whole split's; only they are synthesized.  The
        same count returns arrays at the same address (views of the
        split's one buffer), so tasks over it share one clean pass.  A
        count outside ``[1, config.n_<name>]`` raises ``ValueError``
        naming the split and its size.
        """
        with self._splits_lock:
            return self._stream(name).take(count)

    def _split(self, name: str) -> ArrayDataset:
        with self._splits_lock:
            if name not in self._datasets:
                stream = self._stream(name)
                self._datasets[name] = ArrayDataset(*stream.take(len(stream)))
            return self._datasets[name]

    def _stream(self, name: str) -> SplitStream:
        # The caller holds _splits_lock.
        if name not in self._splits:
            config = self.config
            generator = SyntheticCIFAR10(
                num_classes=config.num_classes,
                noise_std=config.noise_std,
                seed=config.seed,
            )
            size = getattr(config, f"n_{name}")
            self._splits[name] = SplitStream(generator, size, name)
        return self._splits[name]


def train_model(config: ZooConfig, verbose: bool = False) -> PretrainedBundle:
    """Train a model from scratch according to ``config`` (no cache)."""
    model = build_model(
        config.model,
        num_classes=config.num_classes,
        width_mult=config.width_mult,
        seed=config.seed,
    )
    # The accuracy is filled in below; the bundle first serves the splits.
    bundle = PretrainedBundle(model=model, config=config, clean_accuracy=float("nan"))
    train_loader = DataLoader(
        bundle.train_set, batch_size=config.batch_size, shuffle=True, seed=config.seed
    )
    val_loader = DataLoader(bundle.val_set, batch_size=config.batch_size)
    optimizer = Adam(model.parameters(), lr=config.lr)
    trainer = Trainer(model, optimizer, grad_clip=5.0)
    trainer.fit(
        train_loader,
        epochs=config.epochs,
        val_loader=val_loader,
        patience=max(3, config.epochs // 2),
        verbose=verbose,
    )
    test_loader = DataLoader(bundle.test_set, batch_size=config.batch_size)
    bundle.clean_accuracy = evaluate_accuracy(model, test_loader)
    return bundle


def get_pretrained(
    config: "ZooConfig | None" = None,
    cache: "ArtifactCache | None" = None,
    retrain: bool = False,
    verbose: bool = False,
    **overrides: Any,
) -> PretrainedBundle:
    """Return a pre-trained model, training and caching it on first use.

    Keyword overrides are applied on top of ``config`` (or the defaults),
    e.g. ``get_pretrained(model="vgg16", width_mult=0.125)``.
    """
    if config is None:
        config = ZooConfig(**overrides)
    elif overrides:
        config = ZooConfig(**{**config.to_dict(), **overrides})
    cache = cache if cache is not None else ArtifactCache()
    path = cache.path_for(f"zoo-{config.model}", config.to_dict())

    from_cache = path.exists() and not retrain
    if not from_cache:
        trained = train_model(config, verbose=verbose)
        save_state_dict(
            path,
            trained.model.state_dict(),
            metadata={
                "clean_accuracy": trained.clean_accuracy,
                "config": config.to_dict(),
            },
        )
    # A miss returns what a later hit builds, not the trained instance,
    # whose layers still hold their last training batch's backward caches.
    state, metadata = load_state_dict(path)
    model = build_model(
        config.model,
        num_classes=config.num_classes,
        width_mult=config.width_mult,
        seed=config.seed,
    )
    model.load_state_dict(state)
    model.eval()
    bundle = PretrainedBundle(
        model=model,
        config=config,
        clean_accuracy=float(metadata["clean_accuracy"]),
        from_cache=from_cache,
    )
    if not from_cache:
        # Training generated every split already; serve prefixes from them.
        bundle._splits.update(trained._splits)
    return bundle
