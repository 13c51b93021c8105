"""Hamming SEC-DED error-correcting code over 32-bit weight words.

The paper cites ECC as the standard (but costly) memory-protection
baseline.  A (39,32) Hamming single-error-correct / double-error-detect
code stores 6 Hamming check bits plus 1 overall parity per word; the
campaign-level filter below models what such a protected weight memory
does to a sampled fault set, without materialising the check bits:

* codewords with exactly one faulty bit are fully corrected;
* codewords with two faulty bits are *detected* but uncorrectable (DUE);
  the policy decides whether the word is zeroed (safe default on many
  accelerators) or left corrupted;
* three or more faults may alias to silent corruption, which the filter
  conservatively treats like the >=2 case.

The storage overhead (39/32 ≈ 1.22x) and the detection guarantees match a
standard SEC-DED DRAM/SRAM design.
"""

from __future__ import annotations

import numpy as np

from repro.hw.bits import WORD_BITS, draw_unique_bits
from repro.hw.faultmodels import OP_FLIP, OP_STUCK0, FaultSet
from repro.hw.memory import WeightMemory
from repro.utils.validation import check_in_choices

__all__ = [
    "CODE_DATA_BITS",
    "CODE_CHECK_BITS",
    "CODE_TOTAL_BITS",
    "ECCFilter",
]

CODE_DATA_BITS = 32
CODE_CHECK_BITS = 7  # 6 Hamming bits + 1 overall parity
CODE_TOTAL_BITS = CODE_DATA_BITS + CODE_CHECK_BITS  # 39


class ECCFilter:
    """Campaign-level model of a SEC-DED-protected weight memory.

    Fault sets are sampled over the *codeword* bit space (39 bits per
    32-bit data word, so ECC pays its fault-exposure overhead honestly) and
    then filtered:

    * exactly 1 fault in a codeword -> corrected, no data corruption;
    * >=2 faults -> per ``due_policy``: ``"zero"`` zeroes the data word
      (detected-uncorrectable handled safely), ``"keep"`` lets the data-bit
      faults through (silent corruption).
    """

    def __init__(self, due_policy: str = "zero"):
        check_in_choices("due_policy", due_policy, ("zero", "keep"))
        self.due_policy = due_policy

    def codeword_bits(self, memory: WeightMemory) -> int:
        """Size of the protected bit space (data + check bits)."""
        return memory.total_words * CODE_TOTAL_BITS

    def filter(self, memory: WeightMemory, codeword_fault_bits: np.ndarray) -> FaultSet:
        """Translate codeword-space faults into the effective data faults.

        ``codeword_fault_bits`` are unique indices in
        ``[0, codeword_bits(memory))``; within each 39-bit codeword, offsets
        0-31 are data bits and 32-38 are check bits.
        """
        faults = np.asarray(codeword_fault_bits, dtype=np.int64)
        if faults.size == 0:
            return FaultSet.empty()
        if faults.min() < 0 or faults.max() >= self.codeword_bits(memory):
            raise IndexError("codeword fault index out of range")

        codeword = faults // CODE_TOTAL_BITS
        offset = faults % CODE_TOTAL_BITS
        unique_words, counts = np.unique(codeword, return_counts=True)
        multi_words = unique_words[counts >= 2]

        if multi_words.size == 0:
            return FaultSet.empty()

        if self.due_policy == "zero":
            # Zero every word that suffered a multi-bit error: express this
            # as stuck-at-0 on all 32 data bits of those words.
            bit_indices = (
                multi_words[:, None] * WORD_BITS + np.arange(WORD_BITS)[None, :]
            ).reshape(-1)
            ops = np.full(bit_indices.shape, OP_STUCK0, dtype=np.uint8)
            return FaultSet(bit_indices, ops)

        # "keep": let the data-bit faults of multi-fault words through.
        in_multi = np.isin(codeword, multi_words)
        is_data = offset < CODE_DATA_BITS
        passed = in_multi & is_data
        bit_indices = codeword[passed] * WORD_BITS + offset[passed]
        ops = np.full(bit_indices.shape, OP_FLIP, dtype=np.uint8)
        return FaultSet(bit_indices, ops)

    def sample_effective(
        self, memory: WeightMemory, fault_rate: float, rng: np.random.Generator
    ) -> FaultSet:
        """Sample raw faults over codeword space and return the survivors."""
        raw = draw_unique_bits(self.codeword_bits(memory), fault_rate, rng)
        return self.filter(memory, raw)
