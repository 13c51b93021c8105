"""Triple modular redundancy (TMR) for the weight memory.

The paper's introduction cites DMR/TMR as the classic redundancy-based
mitigation (Tesla's FSD computer uses DMR).  This module models bitwise
TMR on the weight memory: every bit is stored three times and a majority
vote recovers the value on read.  Faults are sampled independently over
the 3x-sized replica space, so TMR honestly pays its exposure cost; a data
bit is corrupted only when at least two of its three replicas fault.
"""

from __future__ import annotations

import numpy as np

from repro.hw.bits import draw_unique_bits
from repro.hw.faultmodels import FaultSet
from repro.hw.memory import WeightMemory

__all__ = ["TMRFilter", "DMRFilter"]


class TMRFilter:
    """Campaign-level model of bitwise-TMR-protected weight memory."""

    REPLICAS = 3

    def protected_bits(self, memory: WeightMemory) -> int:
        """Size of the replica bit space (3x the data bits)."""
        return memory.total_bits * self.REPLICAS

    def filter(self, memory: WeightMemory, replica_fault_bits: np.ndarray) -> FaultSet:
        """Majority-vote a set of replica-space faults down to data faults.

        Replica-space index ``r`` refers to replica ``r % 3`` of data bit
        ``r // 3``.  A data bit flips only if >= 2 of its replicas fault.
        """
        faults = np.asarray(replica_fault_bits, dtype=np.int64)
        if faults.size == 0:
            return FaultSet.empty()
        if faults.min() < 0 or faults.max() >= self.protected_bits(memory):
            raise IndexError("replica fault index out of range")
        data_bits = faults // self.REPLICAS
        unique_bits, counts = np.unique(data_bits, return_counts=True)
        corrupted = unique_bits[counts >= 2]
        return FaultSet.flips(corrupted)

    def sample_effective(
        self, memory: WeightMemory, fault_rate: float, rng: np.random.Generator
    ) -> FaultSet:
        """Sample faults over the replica space, return the voted-through set."""
        raw = draw_unique_bits(self.protected_bits(memory), fault_rate, rng)
        return self.filter(memory, raw)


class DMRFilter:
    """Dual modular redundancy with detect-and-zero semantics.

    DMR can only *detect* a mismatch (no majority to vote with); the
    modelled recovery policy zeroes any word whose two copies disagree,
    which mirrors a fail-safe accelerator design.  Zeroing a weight is
    usually benign for DNNs (weights cluster near zero — paper Section
    III), so DMR behaves surprisingly well despite being weaker than TMR
    in general-purpose terms.
    """

    REPLICAS = 2

    def protected_bits(self, memory: WeightMemory) -> int:
        """Size of the replica bit space (2x the data bits)."""
        return memory.total_bits * self.REPLICAS

    def filter(self, memory: WeightMemory, replica_fault_bits: np.ndarray) -> FaultSet:
        """Zero every word with any faulted replica bit (detected mismatch)."""
        from repro.hw.bits import WORD_BITS
        from repro.hw.faultmodels import OP_STUCK0

        faults = np.asarray(replica_fault_bits, dtype=np.int64)
        if faults.size == 0:
            return FaultSet.empty()
        if faults.min() < 0 or faults.max() >= self.protected_bits(memory):
            raise IndexError("replica fault index out of range")
        data_bits = faults // self.REPLICAS
        # Two replicas of the same bit both flipping is a silent mismatch
        # escape; at realistic rates this is negligible and we conservatively
        # treat every detected word as zeroed.
        words = np.unique(data_bits // WORD_BITS)
        bit_indices = (words[:, None] * WORD_BITS + np.arange(WORD_BITS)[None, :]).reshape(-1)
        ops = np.full(bit_indices.shape, OP_STUCK0, dtype=np.uint8)
        return FaultSet(bit_indices, ops)

    def sample_effective(
        self, memory: WeightMemory, fault_rate: float, rng: np.random.Generator
    ) -> FaultSet:
        """Sample faults over the replica space, return the effective set."""
        raw = draw_unique_bits(self.protected_bits(memory), fault_rate, rng)
        return self.filter(memory, raw)
