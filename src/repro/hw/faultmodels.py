"""Fault models: distributions over weight-memory bit corruptions.

A fault model is a sampler: given a weight memory and a random generator
it produces a :class:`FaultSet` — concrete bit targets plus the operation
applied to each (flip, stuck-at-0, stuck-at-1).  The paper's experiments
use independent random bit flips at a per-bit fault rate (transient
upsets / the aggregate effect Fig. 1a sketches); stuck-at and burst
models cover the permanent/manufacturing-defect cases its introduction
discusses, and :class:`TargetedBitFlip` / :class:`FixedFaultMap` support
the bit-position sensitivity study and defect-map scenarios.

Every model is *memory-polymorphic*: it reads only the addressed space's
``total_bits`` / ``total_words`` / ``bits_per_word`` attributes, so the
same model samples the float32 bit space of
:class:`~repro.hw.memory.WeightMemory` (32 bits per word) or the int8
code space of :class:`~repro.hw.quant.QuantizedWeightMemory` (8 bits per
word).  That polymorphism is what lets a declarative campaign spec
(:mod:`repro.scenarios`) request, say, stuck-at-0 faults against either
storage model with one ``fault_model:`` block.

Models are deliberately *cheap, picklable value objects*: a parallel
campaign ships its sampler to every worker process, and the spec
compiler rebuilds one per ``(rate, memory)`` pair — construction must
not touch the memory it will later sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.bits import WORD_BITS
from repro.hw.memory import WeightMemory
from repro.utils.validation import check_probability

__all__ = [
    "OP_FLIP",
    "OP_STUCK0",
    "OP_STUCK1",
    "FaultSet",
    "FaultModel",
    "RandomBitFlip",
    "StuckAt",
    "BurstFault",
    "FixedFaultMap",
    "TargetedBitFlip",
]

OP_FLIP = 0
OP_STUCK0 = 1
OP_STUCK1 = 2
_VALID_OPS = (OP_FLIP, OP_STUCK0, OP_STUCK1)


@dataclass(frozen=True)
class FaultSet:
    """Concrete fault targets: parallel arrays of bit indices and operations.

    The exchange format between sampling and injection: a fault model
    *draws* a ``FaultSet``; :class:`~repro.hw.injector.FaultInjector`
    (float32 space) or :meth:`~repro.hw.quant.QuantizedWeightMemory.apply`
    (int8 code space) *applies* it.  ``bit_indices`` are global indices
    into the addressed memory's bit space and must be unique — one
    physical cell cannot simultaneously be stuck at two values — which
    also makes every per-word combination of operations order-free.
    Protection filters (ECC/TMR/DMR) consume and emit this type too:
    they sample raw faults over their enlarged bit space and return the
    surviving subset via :meth:`subset`.
    """

    bit_indices: np.ndarray  # int64 global bit indices, unique
    operations: np.ndarray  # uint8 operation codes, same length

    def __post_init__(self) -> None:
        bits = np.asarray(self.bit_indices, dtype=np.int64)
        ops = np.asarray(self.operations, dtype=np.uint8)
        if bits.shape != ops.shape or bits.ndim != 1:
            raise ValueError("bit_indices and operations must be matching 1-D arrays")
        if bits.size and np.unique(bits).size != bits.size:
            raise ValueError("bit indices must be unique within a FaultSet")
        if ops.size and not np.isin(ops, _VALID_OPS).all():
            raise ValueError(f"operations must be among {_VALID_OPS}")
        object.__setattr__(self, "bit_indices", bits)
        object.__setattr__(self, "operations", ops)

    def __len__(self) -> int:
        return int(self.bit_indices.size)

    @classmethod
    def empty(cls) -> "FaultSet":
        """A fault set with no faults."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))

    @classmethod
    def flips(cls, bit_indices: np.ndarray) -> "FaultSet":
        """A fault set of pure bit flips."""
        bits = np.asarray(bit_indices, dtype=np.int64)
        return cls(bits, np.full(bits.shape, OP_FLIP, dtype=np.uint8))

    def subset(self, mask: np.ndarray) -> "FaultSet":
        """A fault set restricted to the boolean ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        return FaultSet(self.bit_indices[mask], self.operations[mask])


class FaultModel:
    """Base class for fault samplers.

    Subclasses hold the model's *parameters* (rates, counts, positions)
    and implement :meth:`sample`, which draws concrete bit targets for
    one injection trial.  ``memory`` may be any bit-addressable space
    exposing ``total_bits``, ``total_words`` and ``bits_per_word`` —
    see the module docstring for the polymorphism contract.  Sampling
    must be a pure function of ``(self, memory, rng)``: campaign
    determinism (bit-identical parallel runs) relies on the fault set
    depending only on the per-cell generator, never on ambient state.
    """

    def sample(self, memory: WeightMemory, rng: np.random.Generator) -> FaultSet:
        """Draw a concrete :class:`FaultSet` for ``memory``."""
        raise NotImplementedError


def _sample_unique_bits(
    total_bits: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct bit indices uniform over ``[0, total_bits)``.

    The shared placement primitive behind every rate-driven model.
    Returns a *sorted* int64 array (sorted order keeps downstream
    region lookups cache-friendly and makes results reproducible
    independent of set-iteration order).  Two regimes, both drawing
    from the same ``rng`` so the choice of algorithm is part of the
    determinism contract:

    * sparse (``count < total_bits // 64``): rejection sampling —
      repeatedly draw batches with replacement and keep new indices
      until ``count`` distinct ones accumulate.  O(count) instead of
      ``rng.choice``'s O(total_bits) permutation, which dominates at
      the paper's 1e-7..1e-4 rates over multi-megabit memories;
    * dense: fall back to ``rng.choice(..., replace=False)``, whose
      full permutation cost is acceptable when the draw is a sizable
      fraction of the space anyway.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if count >= total_bits:
        return np.arange(total_bits, dtype=np.int64)
    if count < total_bits // 64:
        chosen: set[int] = set()
        while len(chosen) < count:
            needed = count - len(chosen)
            draws = rng.integers(0, total_bits, size=max(needed * 2, 16))
            for draw in draws:
                chosen.add(int(draw))
                if len(chosen) == count:
                    break
        return np.sort(np.fromiter(chosen, dtype=np.int64, count=count))
    return np.sort(rng.choice(total_bits, size=count, replace=False).astype(np.int64))


class RandomBitFlip(FaultModel):
    """Independent bit flips at a per-bit ``fault_rate`` (the paper's model).

    The number of faulty bits is Binomial(total_bits, fault_rate); the
    faulty positions are uniform without replacement.
    """

    def __init__(self, fault_rate: float):
        check_probability("fault_rate", fault_rate)
        self.fault_rate = float(fault_rate)

    def sample(self, memory: WeightMemory, rng: np.random.Generator) -> FaultSet:
        count = int(rng.binomial(memory.total_bits, self.fault_rate))
        bits = _sample_unique_bits(memory.total_bits, count, rng)
        return FaultSet.flips(bits)


class StuckAt(FaultModel):
    """Permanent stuck-at faults at a per-bit ``fault_rate``.

    Models manufacturing defects and end-of-life cell failures: the
    number of defective cells is Binomial(``total_bits``,
    ``fault_rate``), their positions uniform without replacement, and
    each is stuck at ``value`` (0 or 1) — the injector forces the bit
    to that value rather than toggling it, so a stuck bit that already
    holds the stuck value is benign, matching real silicon.  Note the
    asymmetry this creates versus :class:`RandomBitFlip`: at equal
    rates roughly half the stuck-at faults are masked by agreeing
    storage, and stuck-at-1 in a float32 exponent field is far more
    damaging than stuck-at-0 (which can only shrink magnitudes).
    Positions are re-drawn per trial; pin a persistent defect map
    across trials with :class:`FixedFaultMap` instead.
    """

    def __init__(self, fault_rate: float, value: int = 1):
        check_probability("fault_rate", fault_rate)
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
        self.fault_rate = float(fault_rate)
        self.value = int(value)

    def sample(self, memory: WeightMemory, rng: np.random.Generator) -> FaultSet:
        count = int(rng.binomial(memory.total_bits, self.fault_rate))
        bits = _sample_unique_bits(memory.total_bits, count, rng)
        op = OP_STUCK1 if self.value == 1 else OP_STUCK0
        return FaultSet(bits, np.full(bits.shape, op, dtype=np.uint8))


class BurstFault(FaultModel):
    """``n_bursts`` bursts of ``burst_length`` consecutive flipped bits.

    Models multi-bit upsets and row/column failures where physically
    adjacent cells fail together (a single energetic particle or a
    shorted wordline takes out a run of neighbouring bits).  Burst
    *start* positions are uniform over the memory; bursts may overlap,
    in which case the overlapping bits are flipped once (the resulting
    :class:`FaultSet` de-duplicates), so the realized fault count can
    be slightly below ``n_bursts * burst_length``.  Compared with
    :class:`RandomBitFlip` at the same total bit budget, bursts
    concentrate damage: a burst crossing a float32 word boundary
    corrupts sign, exponent and mantissa of adjacent weights at once,
    while sparse flips spread thinly over many words.
    """

    def __init__(self, n_bursts: int, burst_length: int = 8):
        if n_bursts < 0:
            raise ValueError(f"n_bursts must be non-negative, got {n_bursts}")
        if burst_length <= 0:
            raise ValueError(f"burst_length must be positive, got {burst_length}")
        self.n_bursts = int(n_bursts)
        self.burst_length = int(burst_length)

    def sample(self, memory: WeightMemory, rng: np.random.Generator) -> FaultSet:
        if self.n_bursts == 0:
            return FaultSet.empty()
        max_start = max(memory.total_bits - self.burst_length, 1)
        starts = rng.integers(0, max_start, size=self.n_bursts)
        bits = (starts[:, None] + np.arange(self.burst_length)[None, :]).reshape(-1)
        bits = np.unique(bits[bits < memory.total_bits]).astype(np.int64)
        return FaultSet.flips(bits)


@dataclass(frozen=True)
class FixedFaultMap(FaultModel):
    """A deterministic, pre-drawn fault set (manufacturing defect map).

    Sampling ignores the generator and always returns the same faults,
    so the same physical defects persist across every inference run —
    the permanent-fault scenario of paper Fig. 1a, and the natural way
    to replay a defect map measured on real silicon.  In a campaign
    this collapses the trial axis (every trial injects identical
    faults; rates are ignored too), which is itself useful: the
    trial-to-trial accuracy spread then isolates *evaluation* noise
    from *placement* noise.  The map is validated against the target
    memory at sample time — a map drawn for one model cannot silently
    alias into a smaller memory's bit space.
    """

    fault_set: FaultSet = field(default_factory=FaultSet.empty)

    def sample(self, memory: WeightMemory, rng: np.random.Generator) -> FaultSet:
        if (
            len(self.fault_set)
            and self.fault_set.bit_indices.max() >= memory.total_bits
        ):
            raise IndexError("fixed fault map exceeds this memory's size")
        return self.fault_set


class TargetedBitFlip(FaultModel):
    """Flip a fixed *bit position* of ``n_faults`` randomly chosen words.

    The adversarial/worst-case model behind the bit-position
    sensitivity study: e.g. flip only bit 30 (the float32 exponent MSB)
    of 10 random weights and observe the damage, versus the same count
    of mantissa flips doing essentially nothing.  Word choice is
    uniform without replacement (at most one targeted flip per word);
    the position is interpreted against the sampled memory's own word
    width (``memory.bits_per_word``: 32 for float32 weight memories, 8
    for the int8 code space), so "sign bit" means bit 31 or bit 7
    depending on the storage model — positions at or beyond the
    memory's word width raise at sample time.
    """

    def __init__(self, bit_position: int, n_faults: int):
        if not 0 <= bit_position < WORD_BITS:
            raise ValueError(
                f"bit_position must lie in [0, {WORD_BITS}), got {bit_position}"
            )
        if n_faults < 0:
            raise ValueError(f"n_faults must be non-negative, got {n_faults}")
        self.bit_position = int(bit_position)
        self.n_faults = int(n_faults)

    def sample(self, memory: WeightMemory, rng: np.random.Generator) -> FaultSet:
        bits_per_word = int(getattr(memory, "bits_per_word", WORD_BITS))
        if self.bit_position >= bits_per_word:
            raise ValueError(
                f"bit_position {self.bit_position} does not exist in a "
                f"{bits_per_word}-bit word memory"
            )
        if self.n_faults == 0:
            return FaultSet.empty()
        count = min(self.n_faults, memory.total_words)
        words = _sample_unique_bits(memory.total_words, count, rng)
        bits = words * bits_per_word + self.bit_position
        return FaultSet.flips(bits)
