"""Dataset abstractions."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Dataset", "ArrayDataset", "Subset"]


class Dataset:
    """Minimal dataset interface: length plus indexed (image, label) access."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise the whole dataset as (images, labels) arrays."""
        images = []
        labels = []
        for index in range(len(self)):
            image, label = self[index]
            images.append(image)
            labels.append(label)
        return np.stack(images).astype(np.float32), np.asarray(labels, dtype=np.int64)


class ArrayDataset(Dataset):
    """Wraps in-memory (images, labels) arrays."""

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if images.shape[0] != labels.shape[0]:
            raise ValueError(
                f"images and labels disagree on sample count: "
                f"{images.shape[0]} vs {labels.shape[0]}"
            )
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels


class Subset(Dataset):
    """A view of another dataset restricted to the given indices."""

    def __init__(self, base: Dataset, indices: Sequence[int]):
        self.base = base
        self.indices = [int(i) for i in indices]
        n = len(base)
        for i in self.indices:
            if not 0 <= i < n:
                raise IndexError(f"index {i} out of range for dataset of size {n}")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.base[self.indices[index]]
