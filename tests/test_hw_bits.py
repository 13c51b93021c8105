"""Tests for IEEE-754 bit utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hw.bits import (
    EXPONENT_BITS,
    MANTISSA_BITS,
    SIGN_BIT,
    WORD_BITS,
    bit_field,
    flip_bits_in_words,
    set_bits_in_words,
)
from tests.oracles import bits_to_float, decompose, flip_scalar_bit, float_to_bits


class TestBitLayout:
    def test_field_partition(self):
        fields = [bit_field(i) for i in range(WORD_BITS)]
        assert fields.count("sign") == 1
        assert fields.count("exponent") == 8
        assert fields.count("mantissa") == 23
        assert bit_field(SIGN_BIT) == "sign"
        assert all(bit_field(b) == "exponent" for b in EXPONENT_BITS)
        assert all(bit_field(b) == "mantissa" for b in MANTISSA_BITS)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_field(32)
        with pytest.raises(ValueError):
            bit_field(-1)

    def test_decompose_one(self):
        sign, exponent, mantissa = decompose(1.0)
        assert (sign, exponent, mantissa) == (0, 127, 0)

    def test_decompose_negative_two(self):
        sign, exponent, mantissa = decompose(-2.0)
        assert (sign, exponent, mantissa) == (1, 128, 0)


class TestRoundtrip:
    @given(st.floats(width=32, allow_nan=False))
    def test_float_bits_roundtrip(self, value):
        arr = np.asarray([value], dtype=np.float32)
        np.testing.assert_array_equal(bits_to_float(float_to_bits(arr)), arr)

    def test_known_pattern(self):
        assert float_to_bits(np.asarray([1.0], dtype=np.float32))[0] == 0x3F800000


class TestScalarFlip:
    def test_sign_flip_negates(self):
        assert flip_scalar_bit(3.5, SIGN_BIT) == -3.5

    def test_exponent_msb_flip_explodes_small_value(self):
        """The paper's key mechanism: flipping the exponent MSB of a small
        weight multiplies it by 2^128."""
        flipped = flip_scalar_bit(0.01, 30)
        assert flipped > 1e30

    def test_mantissa_lsb_flip_negligible(self):
        flipped = flip_scalar_bit(1.0, 0)
        assert abs(flipped - 1.0) < 1e-6

    def test_involution(self):
        value = 0.123
        assert flip_scalar_bit(flip_scalar_bit(value, 17), 17) == np.float32(value)

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            flip_scalar_bit(1.0, 32)

    @given(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.integers(0, 31),
    )
    def test_flip_twice_is_identity(self, value, position):
        once = flip_scalar_bit(value, position)
        twice = flip_scalar_bit(once, position)
        np.testing.assert_array_equal(
            np.asarray([twice], dtype=np.float32),
            np.asarray([value], dtype=np.float32),
        )


class TestVectorFlip:
    def test_matches_scalar(self):
        values = np.asarray([1.0, -2.0, 0.5, 100.0], dtype=np.float32)
        words = np.asarray([0, 1, 2, 3])
        bits = np.asarray([31, 30, 0, 23])
        expected = np.asarray(
            [flip_scalar_bit(float(v), int(b)) for v, b in zip(values, bits)],
            dtype=np.float32,
        )
        flip_bits_in_words(values, words, bits)
        np.testing.assert_array_equal(values, expected)

    def test_multiple_bits_same_word(self):
        values = np.asarray([1.0], dtype=np.float32)
        flip_bits_in_words(values, np.asarray([0, 0]), np.asarray([31, 30]))
        step = flip_scalar_bit(flip_scalar_bit(1.0, 31), 30)
        np.testing.assert_array_equal(values, np.asarray([step], dtype=np.float32))

    def test_returns_affected_words(self):
        values = np.zeros(5, dtype=np.float32)
        affected = flip_bits_in_words(values, np.asarray([3, 1, 3]), np.asarray([0, 1, 2]))
        np.testing.assert_array_equal(affected, [1, 3])

    def test_empty_is_noop(self):
        values = np.ones(3, dtype=np.float32)
        affected = flip_bits_in_words(values, np.asarray([]), np.asarray([]))
        assert affected.size == 0
        np.testing.assert_array_equal(values, np.ones(3))

    def test_out_of_range_word(self):
        with pytest.raises(IndexError):
            flip_bits_in_words(np.zeros(2, dtype=np.float32), np.asarray([2]), np.asarray([0]))

    def test_out_of_range_bit(self):
        with pytest.raises(ValueError):
            flip_bits_in_words(np.zeros(2, dtype=np.float32), np.asarray([0]), np.asarray([32]))

    def test_requires_float32_1d(self):
        with pytest.raises(ValueError):
            flip_bits_in_words(np.zeros((2, 2), dtype=np.float32), np.asarray([0]), np.asarray([0]))
        with pytest.raises(ValueError):
            flip_bits_in_words(np.zeros(2, dtype=np.float64), np.asarray([0]), np.asarray([0]))

    def test_involution_vectorised(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(64).astype(np.float32)
        original = values.copy()
        words = rng.choice(64, size=20, replace=False)
        bits = rng.integers(0, 32, size=20)
        flip_bits_in_words(values, words, bits)
        assert not np.array_equal(values, original)
        flip_bits_in_words(values, words, bits)
        np.testing.assert_array_equal(values, original)


class TestStuckAt:
    def test_stuck_at_one_sets_bit(self):
        values = np.asarray([0.0], dtype=np.float32)
        set_bits_in_words(values, np.asarray([0]), np.asarray([30]), 1)
        sign, exponent, mantissa = decompose(float(values[0]))
        assert exponent == 0x80  # bit 30 is the exponent MSB

    def test_stuck_at_zero_clears_bit(self):
        values = np.asarray([-1.0], dtype=np.float32)
        set_bits_in_words(values, np.asarray([0]), np.asarray([31]), 0)
        assert values[0] == 1.0

    def test_stuck_matching_value_benign(self):
        values = np.asarray([1.0], dtype=np.float32)
        set_bits_in_words(values, np.asarray([0]), np.asarray([31]), 0)  # already 0
        assert values[0] == 1.0

    def test_invalid_value(self):
        with pytest.raises(ValueError):
            set_bits_in_words(np.zeros(1, dtype=np.float32), np.asarray([0]), np.asarray([0]), 2)
