"""Shared fixtures: small trained models, datasets and gradient checking.

The expensive fixtures (trained networks) are session-scoped and sized to
train in a couple of seconds so the whole suite stays fast on one core.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, SyntheticCIFAR10
from repro.models import LeNet5, MLP
from repro.optim import Adam, Trainer


def journal_cells(path) -> dict:
    """The cells a checkpoint journal records: ``{(task, rate, trial): value}``."""
    lines = Path(path).read_text().splitlines()[1:]
    return {tuple(entry[:3]): entry[3] for entry in map(json.loads, lines)}


def keep_journal_cells(path, keep) -> None:
    """Rewrite a checkpoint journal with only the cells ``keep`` accepts.

    ``keep`` receives each cell's ``(task, rate, trial)`` key; dropping
    cells simulates a sweep interrupted before they completed.
    """
    header, *lines = Path(path).read_text().splitlines(keepends=True)
    kept = [line for line in lines if keep(tuple(json.loads(line)[:3]))]
    Path(path).write_text(header + "".join(kept))


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the artifact cache at a throwaway directory for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def synthetic_generator() -> SyntheticCIFAR10:
    return SyntheticCIFAR10(seed=1)


@pytest.fixture(scope="session")
def small_splits(synthetic_generator):
    """(train, val, test) ArrayDatasets shared across the session."""
    return tuple(
        synthetic_generator.dataset(n, split)
        for n, split in ((600, "train"), (300, "val"), (300, "test"))
    )


@pytest.fixture(scope="session")
def trained_lenet(small_splits):
    """A LeNet-5 trained to high accuracy on the synthetic data."""
    train, _, _ = small_splits
    model = LeNet5(seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
    trainer.fit(DataLoader(train, batch_size=64, shuffle=True, seed=0), epochs=5)
    model.eval()
    return model


@pytest.fixture(scope="session")
def eval_arrays(small_splits):
    """A small (images, labels) evaluation slice."""
    _, _, test = small_splits
    images, labels = test.arrays()
    return images[:128], labels[:128]


@pytest.fixture(scope="session")
def trained_mlp():
    """A tiny trained MLP on 8x8 synthetic images (fastest fixture)."""
    generator = SyntheticCIFAR10(image_size=8, seed=3)
    train = generator.dataset(400, "train")
    model = MLP(3 * 8 * 8, 10, hidden=(64, 32), seed=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
    trainer.fit(DataLoader(train, batch_size=64, shuffle=True, seed=0), epochs=12)
    model.eval()
    return model


@pytest.fixture(scope="session")
def mlp_eval_arrays():
    generator = SyntheticCIFAR10(image_size=8, seed=3)
    images, labels = generator.generate(96, "test")
    return images, labels


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` w.r.t. ``x`` (float64)."""
    x = np.asarray(x, dtype=np.float32)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn(x)
        flat[index] = original - eps
        lower = fn(x)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * eps)
    return grad


@pytest.fixture
def gradcheck():
    """Expose the numerical gradient helper as a fixture."""
    return numerical_gradient
