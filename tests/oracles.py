"""Reference implementations the tests check the library against.

None of these is on a run path.  The scalar IEEE-754 helpers check the
vectorized bit operations of :mod:`repro.hw.bits`; the (39,32) SEC-DED
encoder and decoder check what :class:`repro.hw.ecc.ECCFilter` assumes a
protected memory does; :func:`run_activation_campaign` is the direct,
one-task way to run an activation-fault sweep, which a scenario run must
equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.executor import CampaignExecutor
from repro.hw.actfaults import ActivationFaultCellTask
from repro.hw.bits import SIGN_BIT, WORD_BITS
from repro.hw.ecc import CODE_DATA_BITS


def float_to_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as uint32 words (copy)."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    return values.view(np.uint32).copy()


def bits_to_float(words: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as float32 values (copy)."""
    words = np.ascontiguousarray(words, dtype=np.uint32)
    return words.view(np.float32).copy()


def decompose(value: float) -> tuple[int, int, int]:
    """Split one float32 into (sign, biased_exponent, mantissa) integers."""
    word = int(float_to_bits(np.asarray([value], dtype=np.float32))[0])
    sign = (word >> SIGN_BIT) & 0x1
    exponent = (word >> 23) & 0xFF
    mantissa = word & 0x7FFFFF
    return sign, exponent, mantissa


def flip_scalar_bit(value: float, position: int) -> np.float32:
    """Flip one bit of one float32 value (reference implementation).

    Returns an ``np.float32`` scalar rather than a python float: a flip
    landing on a signaling-NaN pattern must keep its payload bit-exact,
    and the float32 -> float64 -> float32 round-trip of ``float()``
    would quiet the NaN (x86 cvtss2sd), breaking flip-twice-is-identity.
    """
    if not 0 <= position < WORD_BITS:
        raise ValueError(f"bit position must lie in [0, {WORD_BITS}), got {position}")
    word = float_to_bits(np.asarray([value], dtype=np.float32))
    word[0] ^= np.uint32(1 << position)
    return bits_to_float(word)[0]


def _parity_positions() -> list[np.ndarray]:
    """For each of the 6 Hamming check bits, the data-bit indices it covers.

    Data bits are placed at the non-power-of-two codeword positions of a
    standard Hamming(63,57) layout truncated to 32 data bits.
    """
    data_codeword_positions = []
    position = 1
    while len(data_codeword_positions) < CODE_DATA_BITS:
        if position & (position - 1):  # not a power of two -> data position
            data_codeword_positions.append(position)
        position += 1
    covers: list[np.ndarray] = []
    for check in range(6):
        check_mask = 1 << check
        covered = [
            data_index
            for data_index, codeword_position in enumerate(data_codeword_positions)
            if codeword_position & check_mask
        ]
        covers.append(np.asarray(covered, dtype=np.int64))
    return covers


_PARITY_COVERS = _parity_positions()


def _data_bits_matrix(words: np.ndarray) -> np.ndarray:
    """Expand uint32 words into an (n, 32) bit matrix (LSB first)."""
    words = np.asarray(words, dtype=np.uint32)
    shifts = np.arange(CODE_DATA_BITS, dtype=np.uint32)
    return ((words[:, None] >> shifts[None, :]) & np.uint32(1)).astype(np.uint8)


def hamming_encode(words: np.ndarray) -> np.ndarray:
    """Compute the 7 check bits for each uint32 word.

    Returns an (n,) uint8 array: bits 0-5 are the Hamming check bits,
    bit 6 is the overall parity of data + Hamming bits.
    """
    bits = _data_bits_matrix(words)
    check = np.zeros(bits.shape[0], dtype=np.uint8)
    for index, cover in enumerate(_PARITY_COVERS):
        parity = bits[:, cover].sum(axis=1) & 1
        check |= (parity.astype(np.uint8)) << index
    overall = (bits.sum(axis=1, dtype=np.int64) + _popcount8(check & 0x3F)) & 1
    check |= overall.astype(np.uint8) << 6
    return check


def _popcount8(values: np.ndarray) -> np.ndarray:
    """Population count of uint8 values."""
    values = values.astype(np.uint8)
    count = np.zeros_like(values, dtype=np.int64)
    for shift in range(8):
        count += (values >> shift) & 1
    return count


@dataclass(frozen=True)
class SECDEDResult:
    """Outcome of decoding one codeword."""

    data: int  # possibly corrected uint32 word
    corrected: bool  # a single-bit error was fixed
    detected_uncorrectable: bool  # double-bit error detected (DUE)


def hamming_decode(word: int, check: int) -> SECDEDResult:
    """Decode one (data word, check bits) pair under SEC-DED semantics.

    The scalar reference for :class:`repro.hw.ecc.ECCFilter`, which never
    materialises check-bit storage.
    """
    word = int(word) & 0xFFFFFFFF
    check = int(check) & 0x7F
    expected = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
    syndrome = (check ^ expected) & 0x3F
    # Overall parity is checked over the *received* codeword (data bits plus
    # stored Hamming bits) against the stored parity bit, so any single-bit
    # error — data, check or parity — flips exactly one term.
    received_overall = (word.bit_count() + (check & 0x3F).bit_count()) & 1
    parity_mismatch = received_overall != ((check >> 6) & 1)

    if syndrome == 0 and not parity_mismatch:
        return SECDEDResult(data=word, corrected=False, detected_uncorrectable=False)
    if syndrome != 0 and parity_mismatch:
        # Single error at codeword position = syndrome; correct if it is a
        # data position (power-of-two positions are check bits).
        if syndrome & (syndrome - 1):
            data_positions = []
            position = 1
            while len(data_positions) < CODE_DATA_BITS:
                if position & (position - 1):
                    data_positions.append(position)
                position += 1
            try:
                data_index = data_positions.index(syndrome)
            except ValueError:
                # Syndrome beyond the truncated code: treat as detected.
                return SECDEDResult(word, corrected=False, detected_uncorrectable=True)
            return SECDEDResult(
                data=word ^ (1 << data_index),
                corrected=True,
                detected_uncorrectable=False,
            )
        # Error in a check bit: data is intact.
        return SECDEDResult(data=word, corrected=True, detected_uncorrectable=False)
    if syndrome == 0 and parity_mismatch:
        # Error in the overall parity bit itself: data intact.
        return SECDEDResult(data=word, corrected=True, detected_uncorrectable=False)
    # syndrome != 0 and overall parity consistent -> double error.
    return SECDEDResult(data=word, corrected=False, detected_uncorrectable=True)


def run_activation_campaign(
    model, images, labels, config=None, layers=None, workers=1, checkpoint=None
):
    """One activation-fault sweep through its own :class:`CampaignExecutor`.

    The model's hooks are removed before returning.
    """
    task = ActivationFaultCellTask(model, images, labels, config=config, layers=layers)
    executor = CampaignExecutor(workers=workers, checkpoint=checkpoint)
    return executor.run_tasks([task])[0]
