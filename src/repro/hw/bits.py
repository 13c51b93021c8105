"""IEEE-754 float32 bit-level utilities.

The paper's fault model flips bits of the float32 words that store DNN
weights; the key phenomenon (Section III) is that a 0->1 flip in a high
exponent bit turns a small weight into an enormous one.  This module gives
the rest of the library an explicit, testable view of that word layout:

  bit 31        sign
  bits 30..23   exponent (biased by 127)
  bits 22..0    mantissa
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_probability

__all__ = [
    "WORD_BITS",
    "SIGN_BIT",
    "EXPONENT_BITS",
    "MANTISSA_BITS",
    "flip_bits_in_words",
    "set_bits_in_words",
    "bit_field",
    "draw_unique_bits",
]

WORD_BITS = 32
SIGN_BIT = 31
EXPONENT_BITS = tuple(range(23, 31))
MANTISSA_BITS = tuple(range(0, 23))


def bit_field(position: int) -> str:
    """Classify a bit position: 'sign', 'exponent' or 'mantissa'."""
    if not 0 <= position < WORD_BITS:
        raise ValueError(f"bit position must lie in [0, {WORD_BITS}), got {position}")
    if position == SIGN_BIT:
        return "sign"
    if position in EXPONENT_BITS:
        return "exponent"
    return "mantissa"


def draw_unique_bits(
    total_bits: int, fault_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """A binomial count of distinct bit indices in ``[0, total_bits)``.

    int64, in draw order.  ECC, TMR, DMR, int8 and activation faults all
    draw here, so changing these generator calls moves every fault set.
    """
    check_probability("fault_rate", fault_rate)
    count = int(rng.binomial(total_bits, fault_rate))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count >= total_bits:
        return np.arange(total_bits, dtype=np.int64)
    return rng.choice(total_bits, size=count, replace=False).astype(np.int64)


def _masks_by_word(
    word_indices: np.ndarray, bit_positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-bit operations into one uint32 mask per affected word.

    Returns ``(unique_word_indices, masks)`` where ``masks[i]`` has a 1 at
    every targeted bit position of word ``unique_word_indices[i]``.
    Callers guarantee bit targets are unique, so OR-combining is exact.
    """
    word_indices = np.asarray(word_indices, dtype=np.int64)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    if word_indices.shape != bit_positions.shape:
        raise ValueError("word_indices and bit_positions must have the same shape")
    if word_indices.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    if bit_positions.min() < 0 or bit_positions.max() >= WORD_BITS:
        raise ValueError("bit positions must lie in [0, 32)")

    order = np.argsort(word_indices, kind="stable")
    sorted_words = word_indices[order]
    sorted_bits = bit_positions[order]
    unique_words, starts = np.unique(sorted_words, return_index=True)
    bit_masks = (np.uint32(1) << sorted_bits.astype(np.uint32)).astype(np.uint32)
    masks = np.bitwise_or.reduceat(bit_masks, starts).astype(np.uint32)
    return unique_words, masks


def flip_bits_in_words(
    flat_values: np.ndarray,
    word_indices: np.ndarray,
    bit_positions: np.ndarray,
) -> np.ndarray:
    """XOR-flip the given (word, bit) targets of a flat float32 array in place.

    Returns the unique affected word indices (useful for undo bookkeeping).
    The same (word, bit) pair must not appear twice.
    """
    if flat_values.ndim != 1 or flat_values.dtype != np.float32:
        raise ValueError("flat_values must be a 1-D float32 array")
    unique_words, masks = _masks_by_word(word_indices, bit_positions)
    if unique_words.size == 0:
        return unique_words
    if unique_words.min() < 0 or unique_words.max() >= flat_values.size:
        raise IndexError("word index out of range")
    view = flat_values.view(np.uint32)
    view[unique_words] ^= masks
    return unique_words


def set_bits_in_words(
    flat_values: np.ndarray,
    word_indices: np.ndarray,
    bit_positions: np.ndarray,
    value: int,
) -> np.ndarray:
    """Force the given bits to 0 or 1 (stuck-at faults) in place.

    Returns the unique affected word indices.
    """
    if value not in (0, 1):
        raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
    if flat_values.ndim != 1 or flat_values.dtype != np.float32:
        raise ValueError("flat_values must be a 1-D float32 array")
    unique_words, masks = _masks_by_word(word_indices, bit_positions)
    if unique_words.size == 0:
        return unique_words
    if unique_words.min() < 0 or unique_words.max() >= flat_values.size:
        raise IndexError("word index out of range")
    view = flat_values.view(np.uint32)
    if value == 1:
        view[unique_words] |= masks
    else:
        view[unique_words] &= ~masks
    return unique_words
