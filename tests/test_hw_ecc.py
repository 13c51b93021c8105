"""Tests for the SEC-DED codec and the campaign-level ECC filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.hw.ecc import CODE_DATA_BITS, CODE_TOTAL_BITS, ECCFilter
from repro.hw.faultmodels import OP_STUCK0
from tests.oracles import hamming_decode, hamming_encode
from tests.helpers import weight_memory

WORDS = st.integers(0, 2**32 - 1)


class TestHammingCodec:
    def test_clean_word_decodes_clean(self):
        word = 0xDEADBEEF
        check = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
        result = hamming_decode(word, check)
        assert result.data == word
        assert not result.corrected
        assert not result.detected_uncorrectable

    @given(WORDS, st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_single_data_bit_error_corrected(self, word, bad_bit):
        check = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
        corrupted = word ^ (1 << bad_bit)
        result = hamming_decode(corrupted, check)
        assert result.corrected
        assert not result.detected_uncorrectable
        assert result.data == word

    @given(WORDS, st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_single_check_bit_error_data_intact(self, word, bad_check_bit):
        check = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
        corrupted_check = check ^ (1 << bad_check_bit)
        result = hamming_decode(word, corrupted_check)
        assert result.corrected
        assert result.data == word

    @given(WORDS, st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_double_data_bit_error_detected(self, word, bit_a, bit_b):
        if bit_a == bit_b:
            return
        check = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
        corrupted = word ^ (1 << bit_a) ^ (1 << bit_b)
        result = hamming_decode(corrupted, check)
        assert result.detected_uncorrectable
        assert not result.corrected

    def test_encode_vectorised(self):
        words = np.asarray([0, 1, 0xFFFFFFFF, 0x12345678], dtype=np.uint32)
        checks = hamming_encode(words)
        assert checks.shape == (4,)
        for word, check in zip(words, checks):
            result = hamming_decode(int(word), int(check))
            assert result.data == int(word)


def _memory(words=64):
    return weight_memory([("p", nn.Parameter(np.zeros(words)))])


class TestECCFilter:
    def test_codeword_space_size(self):
        memory = _memory(10)
        assert ECCFilter().codeword_bits(memory) == 10 * CODE_TOTAL_BITS

    def test_single_fault_per_word_filtered_out(self):
        memory = _memory(10)
        ecc = ECCFilter()
        # One fault in word 0, one in word 3 — both corrected.
        faults = np.asarray([5, 3 * CODE_TOTAL_BITS + 38])
        assert len(ecc.filter(memory, faults)) == 0

    def test_double_fault_zero_policy(self):
        memory = _memory(10)
        ecc = ECCFilter(due_policy="zero")
        faults = np.asarray([2 * CODE_TOTAL_BITS + 1, 2 * CODE_TOTAL_BITS + 7])
        effective = ecc.filter(memory, faults)
        # Zero policy expresses "zero word 2" as stuck-at-0 on all 32 bits.
        assert len(effective) == 32
        assert (effective.operations == OP_STUCK0).all()
        assert (effective.bit_indices // 32 == 2).all()

    def test_double_fault_keep_policy_passes_data_bits(self):
        memory = _memory(10)
        ecc = ECCFilter(due_policy="keep")
        base = 4 * CODE_TOTAL_BITS
        # One data-bit fault + one check-bit fault in the same codeword.
        faults = np.asarray([base + 9, base + CODE_DATA_BITS + 2])
        effective = ecc.filter(memory, faults)
        assert len(effective) == 1
        assert effective.bit_indices[0] == 4 * 32 + 9

    def test_empty_input(self):
        assert len(ECCFilter().filter(_memory(), np.asarray([], dtype=np.int64))) == 0

    def test_out_of_range_rejected(self):
        memory = _memory(2)
        with pytest.raises(IndexError):
            ECCFilter().filter(memory, np.asarray([memory.total_words * CODE_TOTAL_BITS]))

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            ECCFilter(due_policy="explode")

    def test_sample_effective_reduces_faults(self):
        """At sparse rates, almost all faults are singletons -> corrected."""
        memory = _memory(2000)
        ecc = ECCFilter()
        rng = np.random.default_rng(0)
        rate = 1e-4
        effective = ecc.sample_effective(memory, rate, rng)
        raw_expected = memory.total_words * CODE_TOTAL_BITS * rate
        assert len(effective) < raw_expected  # massive reduction

    def test_sample_effective_rate_zero(self):
        assert len(ECCFilter().sample_effective(_memory(), 0.0, np.random.default_rng(0))) == 0
