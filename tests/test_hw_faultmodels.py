"""Tests for the fault models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.hw.faultmodels import (
    OP_FLIP,
    OP_STUCK0,
    OP_STUCK1,
    BurstFault,
    FaultSet,
    FixedFaultMap,
    RandomBitFlip,
    StuckAt,
    TargetedBitFlip,
)
from tests.helpers import weight_memory


def _memory(words=1000):
    return weight_memory([("p", nn.Parameter(np.zeros(words)))])


class TestFaultSet:
    def test_empty(self):
        fs = FaultSet.empty()
        assert len(fs) == 0

    def test_flips_constructor(self):
        fs = FaultSet.flips(np.asarray([3, 7]))
        assert len(fs) == 2
        assert (fs.operations == OP_FLIP).all()

    def test_duplicate_bits_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            FaultSet.flips(np.asarray([1, 1]))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            FaultSet(np.asarray([1, 2]), np.asarray([0], dtype=np.uint8))

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            FaultSet(np.asarray([1]), np.asarray([9], dtype=np.uint8))

    def test_subset(self):
        fs = FaultSet.flips(np.asarray([1, 2, 3]))
        sub = fs.subset(np.asarray([True, False, True]))
        np.testing.assert_array_equal(sub.bit_indices, [1, 3])


class TestRandomBitFlip:
    def test_rate_zero_gives_no_faults(self):
        fs = RandomBitFlip(0.0).sample(_memory(), np.random.default_rng(0))
        assert len(fs) == 0

    def test_rate_one_flips_everything(self):
        memory = _memory(4)
        fs = RandomBitFlip(1.0).sample(memory, np.random.default_rng(0))
        assert len(fs) == memory.total_bits

    def test_expected_count_binomial(self):
        memory = _memory(1000)  # 32k bits
        rate = 0.01
        counts = [
            len(RandomBitFlip(rate).sample(memory, np.random.default_rng(seed)))
            for seed in range(30)
        ]
        expected = memory.total_bits * rate  # 320
        assert abs(np.mean(counts) - expected) < 0.1 * expected

    def test_indices_unique_and_in_range(self):
        memory = _memory(100)
        fs = RandomBitFlip(0.05).sample(memory, np.random.default_rng(1))
        assert np.unique(fs.bit_indices).size == len(fs)
        assert fs.bit_indices.min() >= 0
        assert fs.bit_indices.max() < memory.total_bits

    def test_deterministic_given_rng(self):
        memory = _memory(100)
        a = RandomBitFlip(0.01).sample(memory, np.random.default_rng(5))
        b = RandomBitFlip(0.01).sample(memory, np.random.default_rng(5))
        np.testing.assert_array_equal(a.bit_indices, b.bit_indices)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RandomBitFlip(-0.1)
        with pytest.raises(ValueError):
            RandomBitFlip(1.5)

    @settings(max_examples=15, deadline=None)
    @given(rate=st.floats(0.0, 0.2), seed=st.integers(0, 100))
    def test_property_sorted_unique(self, rate, seed):
        fs = RandomBitFlip(rate).sample(_memory(50), np.random.default_rng(seed))
        assert (np.diff(fs.bit_indices) > 0).all() if len(fs) > 1 else True


class TestStuckAt:
    def test_operation_codes(self):
        memory = _memory(100)
        fs1 = StuckAt(0.05, value=1).sample(memory, np.random.default_rng(0))
        fs0 = StuckAt(0.05, value=0).sample(memory, np.random.default_rng(0))
        assert (fs1.operations == OP_STUCK1).all()
        assert (fs0.operations == OP_STUCK0).all()

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            StuckAt(0.01, value=2)


class TestBurstFault:
    def test_burst_contiguity(self):
        memory = _memory(100)
        fs = BurstFault(n_bursts=1, burst_length=8).sample(memory, np.random.default_rng(0))
        assert len(fs) == 8
        assert (np.diff(fs.bit_indices) == 1).all()

    def test_zero_bursts(self):
        fs = BurstFault(0).sample(_memory(), np.random.default_rng(0))
        assert len(fs) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstFault(-1)
        with pytest.raises(ValueError):
            BurstFault(1, burst_length=0)


class TestFixedFaultMap:
    def test_ignores_rng(self):
        fs = FaultSet.flips(np.asarray([1, 2, 3]))
        model = FixedFaultMap(fs)
        memory = _memory(10)
        a = model.sample(memory, np.random.default_rng(0))
        b = model.sample(memory, np.random.default_rng(99))
        np.testing.assert_array_equal(a.bit_indices, b.bit_indices)

    def test_oversized_map_rejected(self):
        fs = FaultSet.flips(np.asarray([10_000_000]))
        with pytest.raises(IndexError):
            FixedFaultMap(fs).sample(_memory(10), np.random.default_rng(0))


class TestTargetedBitFlip:
    def test_targets_requested_position(self):
        memory = _memory(100)
        fs = TargetedBitFlip(bit_position=30, n_faults=10).sample(
            memory, np.random.default_rng(0)
        )
        assert len(fs) == 10
        assert ((fs.bit_indices % 32) == 30).all()

    def test_caps_at_word_count(self):
        memory = _memory(5)
        fs = TargetedBitFlip(bit_position=0, n_faults=100).sample(
            memory, np.random.default_rng(0)
        )
        assert len(fs) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TargetedBitFlip(bit_position=32, n_faults=1)
        with pytest.raises(ValueError):
            TargetedBitFlip(bit_position=0, n_faults=-1)
