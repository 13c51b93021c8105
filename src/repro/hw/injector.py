"""Reversible application of fault sets to a weight memory.

The injector applies a :class:`~repro.hw.faultmodels.FaultSet` to the live
parameter arrays, remembers the original words it touched, and can undo
everything exactly — so one trained model serves thousands of
fault-injection trials without reloading weights.

Copy-on-write: when the model's weights are read-only shared-memory
views (the zero-copy tensor plane, :mod:`repro.utils.shm`), injection
requests a private copy of **only the regions the fault set touches**
(:func:`repro.hw.memory.materialize_region`) before writing — the
injector's ``affected_layers`` cut-point report and its CoW footprint
are the same set by construction, and every other tensor in the network
stays mapped read-only once per host.

Injections nest last-in-first-out: :meth:`FaultInjector.apply` and
:meth:`FaultInjector.session` restore their record when their block
exits, so an inner block's words are back before the outer block's
record is written back.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.hw.bits import flip_bits_in_words, set_bits_in_words
from repro.hw.faultmodels import (
    OP_FLIP,
    OP_STUCK0,
    OP_STUCK1,
    FaultModel,
    FaultSet,
)
from repro.hw.memory import MemoryRegion, WeightMemory, materialize_region
from repro.utils.rng import as_generator

__all__ = ["InjectionRecord", "FaultInjector"]


@dataclass(eq=False)
class InjectionRecord:
    """Bookkeeping for one applied fault set (enables exact undo)."""

    # One (region, affected word indices, original word values) per region.
    saved: list[tuple[MemoryRegion, np.ndarray, np.ndarray]]


class FaultInjector:
    """Applies and reverts fault sets on a :class:`WeightMemory`."""

    def __init__(self, memory: WeightMemory):
        self.memory = memory

    def affected_layers(self, fault_set: FaultSet) -> list[str]:
        """Layer names ``fault_set`` would touch, *without* applying it.

        This is the cut-point report of the suffix re-execution engine
        (:mod:`repro.core.suffix`): every layer upstream of the first
        affected layer keeps bit-identical activations under this fault
        set, so re-executing from that layer reproduces the full faulted
        forward exactly.
        """
        seen: list[str] = []
        for region, words, _ in self.memory.locate(fault_set.bit_indices):
            if words.size and region.layer_name not in seen:
                seen.append(region.layer_name)
        return seen

    def inject(self, fault_set: FaultSet) -> InjectionRecord:
        """Apply ``fault_set`` to the live weights; returns the undo record."""
        saved: list[tuple[MemoryRegion, np.ndarray, np.ndarray]] = []
        for region, words, bits in self.memory.locate(fault_set.bit_indices):
            # Copy-on-write: only the regions this fault set writes are
            # privatized; the rest of the memory stays a read-only view.
            materialize_region(region)
            flat = region.parameter.data.reshape(-1)
            # Identify this region's slice of the fault set to split by op.
            in_region = (
                (fault_set.bit_indices >= region.bit_offset)
                & (fault_set.bit_indices < region.bit_end)
            )
            ops = fault_set.operations[in_region]

            unique_words = np.unique(words)
            original = flat[unique_words].copy()
            for op, apply_fn in (
                (OP_FLIP, lambda w, b: flip_bits_in_words(flat, w, b)),
                (OP_STUCK0, lambda w, b: set_bits_in_words(flat, w, b, 0)),
                (OP_STUCK1, lambda w, b: set_bits_in_words(flat, w, b, 1)),
            ):
                mask = ops == op
                if mask.any():
                    apply_fn(words[mask], bits[mask])
            saved.append((region, unique_words, original))
        return InjectionRecord(saved=saved)

    def restore(self, record: InjectionRecord) -> None:
        """Write a record's saved word values back into the parameters.

        Exact when records are restored newest first, as :meth:`apply`
        and :meth:`session` do.
        """
        for region, words, original in record.saved:
            region.parameter.data.reshape(-1)[words] = original

    @contextmanager
    def session(
        self,
        model: FaultModel,
        rng: "int | np.random.Generator | None" = None,
    ) -> Iterator[InjectionRecord]:
        """Context manager: inject on entry, restore exactly on exit.

        ``with injector.session(RandomBitFlip(1e-6), seed) as record: ...``
        """
        record = self.inject(model.sample(self.memory, as_generator(rng)))
        try:
            yield record
        finally:
            self.restore(record)

    @contextmanager
    def apply(self, fault_set: FaultSet) -> Iterator[InjectionRecord]:
        """Context manager around a pre-sampled fault set."""
        record = self.inject(fault_set)
        try:
            yield record
        finally:
            self.restore(record)
