"""Tests for datasets and loaders."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, Subset, SyntheticCIFAR10


def _dataset(n=10):
    rng = np.random.default_rng(0)
    return ArrayDataset(
        rng.random((n, 3, 4, 4)).astype(np.float32),
        rng.integers(0, 3, size=n).astype(np.int64),
    )


class TestArrayDataset:
    def test_len_and_getitem(self):
        dataset = _dataset(7)
        assert len(dataset) == 7
        image, label = dataset[3]
        assert image.shape == (3, 4, 4)
        assert isinstance(label, int)

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(4, dtype=np.int64))

    def test_2d_labels_rejected(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros((3, 1), dtype=np.int64))

    def test_arrays_roundtrip(self):
        dataset = _dataset(5)
        images, labels = dataset.arrays()
        assert images.shape[0] == 5
        assert labels.dtype == np.int64


class TestSubset:
    def test_indexing(self):
        dataset = _dataset(10)
        subset = Subset(dataset, [2, 5, 7])
        assert len(subset) == 3
        np.testing.assert_array_equal(subset[1][0], dataset[5][0])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            Subset(_dataset(3), [5])


class TestDataLoader:
    def test_batch_shapes(self):
        loader = DataLoader(_dataset(10), batch_size=4)
        batches = list(loader)
        assert [b[0].shape[0] for b in batches] == [4, 4, 2]
        assert len(loader) == 3

    def test_drop_last(self):
        loader = DataLoader(_dataset(10), batch_size=4, drop_last=True)
        assert [b[0].shape[0] for b in loader] == [4, 4]
        assert len(loader) == 2

    def test_shuffle_is_seeded_and_epoch_indexed(self):
        a = DataLoader(_dataset(20), batch_size=20, shuffle=True, seed=3)
        b = DataLoader(_dataset(20), batch_size=20, shuffle=True, seed=3)
        first_a = next(iter(a))[1]
        first_b = next(iter(b))[1]
        np.testing.assert_array_equal(first_a, first_b)
        second_a = next(iter(a))[1]
        # Epoch 2 ordering differs from epoch 1 (with overwhelming probability).
        assert not np.array_equal(first_a, second_a)

    def test_no_shuffle_preserves_order(self):
        dataset = _dataset(6)
        loader = DataLoader(dataset, batch_size=6)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, dataset.labels)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DataLoader(ArrayDataset(np.zeros((0, 1, 2, 2)), np.zeros(0, dtype=np.int64)), 4)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(_dataset(4), batch_size=0)


class TestSyntheticCIFAR10:
    def test_shapes_and_range(self):
        generator = SyntheticCIFAR10(seed=0)
        images, labels = generator.generate(20, "train")
        assert images.shape == (20, 3, 32, 32)
        assert images.dtype == np.float32
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert labels.min() >= 0 and labels.max() < 10

    def test_balanced_labels(self):
        generator = SyntheticCIFAR10(seed=0)
        _, labels = generator.generate(100, "train")
        counts = np.bincount(labels, minlength=10)
        assert (counts == 10).all()

    def test_deterministic(self):
        a = SyntheticCIFAR10(seed=4).generate(10, "train")
        b = SyntheticCIFAR10(seed=4).generate(10, "train")
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_splits_are_disjoint_streams(self):
        generator = SyntheticCIFAR10(seed=4)
        train_images, _ = generator.generate(10, "train")
        test_images, _ = generator.generate(10, "test")
        assert not np.allclose(train_images, test_images)

    def test_seed_changes_data(self):
        a = SyntheticCIFAR10(seed=1).generate(5, "train")[0]
        b = SyntheticCIFAR10(seed=2).generate(5, "train")[0]
        assert not np.allclose(a, b)

    def test_classes_are_visually_distinct(self):
        """Mean images of different classes should differ substantially."""
        generator = SyntheticCIFAR10(seed=0)
        means = []
        for label in range(10):
            rng = np.random.default_rng(123)
            samples = np.stack(
                [generator.generate_sample(label, rng) for _ in range(8)]
            )
            means.append(samples.mean(axis=0))
        means = np.stack(means)
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(means[i] - means[j]).mean() > 0.01

    def test_custom_image_size(self):
        generator = SyntheticCIFAR10(image_size=16, seed=0)
        images, _ = generator.generate(4, "train")
        assert images.shape == (4, 3, 16, 16)

    def test_invalid_label_rejected(self):
        generator = SyntheticCIFAR10(seed=0)
        with pytest.raises(ValueError):
            generator.generate_sample(10, np.random.default_rng(0))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SyntheticCIFAR10(noise_std=-0.1)

    def test_dataset_helper(self):
        dataset = SyntheticCIFAR10(seed=0).dataset(12, "val")
        assert len(dataset) == 12
