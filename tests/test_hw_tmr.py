"""Tests for the TMR/DMR protection filters."""

import numpy as np
import pytest

from repro import nn
from repro.hw.faultmodels import OP_FLIP, OP_STUCK0
from repro.hw.tmr import DMRFilter, TMRFilter
from tests.helpers import weight_memory


def _memory(words=64):
    return weight_memory([("p", nn.Parameter(np.zeros(words)))])


class TestTMRFilter:
    def test_replica_space_is_triple(self):
        memory = _memory(10)
        assert TMRFilter().protected_bits(memory) == memory.total_bits * 3

    def test_single_replica_fault_voted_out(self):
        memory = _memory(10)
        # One replica of data bit 7 faults: majority of clean copies wins.
        assert len(TMRFilter().filter(memory, np.asarray([7 * 3]))) == 0

    def test_two_replica_faults_corrupt_bit(self):
        memory = _memory(10)
        faults = np.asarray([7 * 3, 7 * 3 + 1])
        effective = TMRFilter().filter(memory, faults)
        assert len(effective) == 1
        assert effective.bit_indices[0] == 7
        assert effective.operations[0] == OP_FLIP

    def test_three_replica_faults_also_corrupt(self):
        memory = _memory(10)
        faults = np.asarray([21, 22, 23])  # all replicas of bit 7
        effective = TMRFilter().filter(memory, faults)
        np.testing.assert_array_equal(effective.bit_indices, [7])

    def test_distinct_bits_independent(self):
        memory = _memory(10)
        # Replica faults of bit 0 (x2) and bit 5 (x1).
        faults = np.asarray([0, 1, 15])
        effective = TMRFilter().filter(memory, faults)
        np.testing.assert_array_equal(effective.bit_indices, [0])

    def test_sample_effective_huge_reduction(self):
        memory = _memory(2000)
        rng = np.random.default_rng(0)
        rate = 1e-4
        effective = TMRFilter().sample_effective(memory, rate, rng)
        raw_expected = memory.total_bits * 3 * rate
        assert len(effective) < max(raw_expected / 10, 2)

    def test_out_of_range(self):
        memory = _memory(2)
        with pytest.raises(IndexError):
            TMRFilter().filter(memory, np.asarray([memory.total_bits * 3]))

    def test_empty(self):
        assert len(TMRFilter().filter(_memory(), np.asarray([], dtype=np.int64))) == 0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TMRFilter().sample_effective(_memory(), 1.5, np.random.default_rng(0))


class TestDMRFilter:
    def test_replica_space_is_double(self):
        memory = _memory(10)
        assert DMRFilter().protected_bits(memory) == memory.total_bits * 2

    def test_detected_word_zeroed(self):
        memory = _memory(10)
        # A fault in replica 0 of data bit 40 (word 1).
        effective = DMRFilter().filter(memory, np.asarray([40 * 2]))
        assert len(effective) == 32
        assert (effective.operations == OP_STUCK0).all()
        assert (effective.bit_indices // 32 == 1).all()

    def test_multiple_words(self):
        memory = _memory(10)
        faults = np.asarray([0, 32 * 2 * 3])  # word 0 and word 3
        effective = DMRFilter().filter(memory, faults)
        words = np.unique(effective.bit_indices // 32)
        np.testing.assert_array_equal(words, [0, 3])

    def test_empty(self):
        assert len(DMRFilter().filter(_memory(), np.asarray([], dtype=np.int64))) == 0

    def test_out_of_range(self):
        memory = _memory(2)
        with pytest.raises(IndexError):
            DMRFilter().filter(memory, np.asarray([memory.total_bits * 2]))
