"""Data substrate: datasets, loaders and the synthetic CIFAR-10
replacement used in place of the (offline-unavailable) original."""

from repro.data.dataset import ArrayDataset, Dataset, Subset
from repro.data.loader import DataLoader
from repro.data.synthetic import (
    CIFAR10_CLASS_NAMES,
    ClassPrototype,
    SyntheticCIFAR10,
)

__all__ = [
    "ArrayDataset",
    "CIFAR10_CLASS_NAMES",
    "ClassPrototype",
    "DataLoader",
    "Dataset",
    "Subset",
    "SyntheticCIFAR10",
]
