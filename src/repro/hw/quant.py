"""Int8 quantized weight memory and bit-flip faults in the int8 domain.

The paper studies float32 weight storage, where a single exponent-MSB flip
multiplies a weight by 2^128 — the root cause of the accuracy collapse.
Deployed accelerators often store weights as int8 instead, where the worst
single-bit corruption is bounded by the sign bit (~2x the max weight
magnitude).  This module provides that alternative memory model so the
benchmark suite can quantify how much of the paper's problem is specific
to floating-point storage:

* symmetric per-tensor int8 quantization of every mapped parameter;
* a reversible quantizer that runs the model on dequantized-int8 weights
  (so clean accuracy honestly includes quantization error);
* an injector that corrupts bits of the *int8 codes* — random flips or
  any :class:`~repro.hw.faultmodels.FaultSet` (stuck-at-0/1, bursts,
  targeted positions) — and writes the dequantized result back into the
  live float parameters.

The memory advertises ``total_bits`` / ``total_words`` /
``bits_per_word`` (= 8), so every fault model in
:mod:`repro.hw.faultmodels` samples this code space directly and the
declarative scenario layer (:mod:`repro.scenarios`) can request "int8
variants" of any weight-memory fault scenario.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.hw.bits import draw_unique_bits
from repro.hw.memory import MemoryRegion, WeightMemory, materialize_region
from repro.utils.rng import as_generator

__all__ = [
    "INT8_BITS",
    "quantize_symmetric",
    "dequantize_symmetric",
    "QuantizedWeightMemory",
]

INT8_BITS = 8
_QMAX = 127


def quantize_symmetric(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor int8 quantization.

    Returns ``(codes, scale)`` with ``codes`` int8 in [-127, 127] and
    ``values ~= codes * scale``.  An all-zero tensor gets scale 1.0.
    """
    values = np.asarray(values, dtype=np.float32)
    max_abs = float(np.abs(values).max()) if values.size else 0.0
    scale = max_abs / _QMAX if max_abs > 0 else 1.0
    float32 = np.finfo(np.float32)
    if scale < float32.tiny:
        # The codes divide in float32, which holds a subnormal scale only
        # as a multiple of its smallest step (below one step it would be
        # 0): round up to one, so every code stays within [-127, 127].
        step = float(float32.smallest_subnormal)
        scale = math.ceil(scale / step) * step
    codes = np.clip(np.rint(values / scale), -_QMAX, _QMAX).astype(np.int8)
    return codes, scale


def dequantize_symmetric(codes: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_symmetric`."""
    return codes.astype(np.float32) * np.float32(scale)


@dataclass
class _QuantRegion:
    """One parameter's int8 shadow storage."""

    region: MemoryRegion
    codes: np.ndarray  # int8, flat
    scale: float
    code_offset: int  # first global int8-bit index of this region


class QuantizedWeightMemory:
    """An int8 view over a model's :class:`WeightMemory`.

    Entering :meth:`deployed` quantizes every mapped parameter in place
    (the model then runs on dequantized int8 weights, exactly like an
    accelerator that stores int8 and dequantizes on read) and restores the
    original float weights on exit.  While deployed, :meth:`session`
    injects random bit flips into the int8 codes.
    """

    def __init__(self, memory: WeightMemory):
        self.memory = memory
        self._regions: list[_QuantRegion] = []
        self._float_snapshot: "list[np.ndarray] | None" = None
        offset = 0
        for region in memory.regions:
            codes, scale = quantize_symmetric(region.parameter.data.reshape(-1))
            self._regions.append(
                _QuantRegion(region=region, codes=codes, scale=scale, code_offset=offset)
            )
            offset += codes.size * INT8_BITS
        self.total_bits = offset
        # The fault-model polymorphism contract (repro.hw.faultmodels):
        # this memory is an 8-bit-word space, so word-addressed models
        # (TargetedBitFlip) stride by 8 and "sign bit" means bit 7.
        self.total_words = offset // INT8_BITS
        self.bits_per_word = INT8_BITS

    @property
    def deployed_now(self) -> bool:
        """Whether the float parameters currently hold dequantized values."""
        return self._float_snapshot is not None

    def scales(self) -> dict[str, float]:
        """Per-region quantization scales (for reports)."""
        return {q.region.name: q.scale for q in self._regions}

    # ------------------------------------------------------------------ #
    # deployment (quantize weights in place, restore on exit)
    # ------------------------------------------------------------------ #

    def _write_back(self, quant_region: _QuantRegion) -> None:
        # Copy-on-write: deployment rewrites the region in place, so a
        # read-only shared-memory view is privatized on first write
        # (int8 deployment touches every region by nature — the zero-copy
        # win for quantized sweeps is the transport, not residency).
        materialize_region(quant_region.region)
        flat = quant_region.region.parameter.data.reshape(-1)
        flat[:] = dequantize_symmetric(quant_region.codes, quant_region.scale)

    @contextmanager
    def deployed(self) -> Iterator["QuantizedWeightMemory"]:
        """Run the model on int8-dequantized weights inside the block."""
        if self.deployed_now:
            raise RuntimeError("already deployed")
        self._float_snapshot = self.memory.snapshot()
        try:
            for quant_region in self._regions:
                self._write_back(quant_region)
            yield self
        finally:
            self.memory.restore(self._float_snapshot)
            self._float_snapshot = None

    # ------------------------------------------------------------------ #
    # fault injection in int8 code space
    # ------------------------------------------------------------------ #

    def sample_bitflips(
        self, fault_rate: float, rng: "int | np.random.Generator"
    ) -> np.ndarray:
        """Unique int8-code bit indices at the given per-bit fault rate."""
        return np.sort(
            draw_unique_bits(self.total_bits, fault_rate, as_generator(rng))
        )

    @staticmethod
    def _as_fault_set(faults) -> "FaultSet":
        """Coerce ``faults`` (bit-index array or FaultSet) to a FaultSet.

        The historical injection API took a flat array of bit indices
        (pure flips); declarative scenarios (:mod:`repro.scenarios`)
        sample full :class:`~repro.hw.faultmodels.FaultSet` objects so
        stuck-at fault models work in the int8 code space too.
        """
        from repro.hw.faultmodels import FaultSet

        if isinstance(faults, FaultSet):
            return faults
        return FaultSet.flips(np.asarray(faults, dtype=np.int64))

    def _locate(
        self, bit_indices: np.ndarray, operations: "np.ndarray | None" = None
    ) -> list[tuple[_QuantRegion, np.ndarray, np.ndarray, "np.ndarray | None"]]:
        offsets = np.asarray([q.code_offset for q in self._regions], dtype=np.int64)
        region_ids = np.searchsorted(offsets, bit_indices, side="right") - 1
        located = []
        for region_id in np.unique(region_ids):
            quant_region = self._regions[int(region_id)]
            mask = region_ids == region_id
            local = bit_indices[mask] - quant_region.code_offset
            located.append(
                (
                    quant_region,
                    local // INT8_BITS,
                    (local % INT8_BITS).astype(np.uint8),
                    operations[mask] if operations is not None else None,
                )
            )
        return located

    def affected_layers(self, faults) -> list[str]:
        """Distinct layer names the given int8-code faults belong to.

        ``faults`` is a bit-index array or a
        :class:`~repro.hw.faultmodels.FaultSet` over this code space.
        The cut-point report for suffix re-execution: layers upstream of
        the first affected layer keep their deployed (dequantized) weights
        bit-identical through an :meth:`apply` block.
        """
        bit_indices = self._as_fault_set(faults).bit_indices
        if bit_indices.size == 0:
            return []
        seen: list[str] = []
        for quant_region, _, _, _ in self._locate(bit_indices):
            name = quant_region.region.layer_name
            if name not in seen:
                seen.append(name)
        return seen

    @contextmanager
    def session(
        self, fault_rate: float, rng: "int | np.random.Generator"
    ) -> Iterator[int]:
        """Flip int8 bits at ``fault_rate`` inside the block; restore after.

        Must be used inside :meth:`deployed`.  Yields the number of flips.
        Equivalent to :meth:`sample_bitflips` followed by :meth:`apply`.
        """
        bit_indices = self.sample_bitflips(fault_rate, rng)
        with self.apply(bit_indices) as count:
            yield count

    @staticmethod
    def _code_masks(
        code_indices: np.ndarray, bit_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-unique-code OR-combined bit masks.

        Bit indices are unique within a fault set, so each (code, bit)
        pair appears at most once and OR-reduce equals XOR-reduce.
        """
        order = np.argsort(code_indices, kind="stable")
        sorted_codes = code_indices[order]
        sorted_bits = bit_positions[order]
        unique_codes, starts = np.unique(sorted_codes, return_index=True)
        masks = np.bitwise_or.reduceat(
            (np.uint8(1) << sorted_bits).astype(np.uint8), starts
        )
        return unique_codes, masks

    @contextmanager
    def apply(self, faults) -> Iterator[int]:
        """Apply int8-code faults inside the block; restore after.

        ``faults`` is either a flat array of code-space bit indices
        (pure flips — the historical API) or a
        :class:`~repro.hw.faultmodels.FaultSet`, whose stuck-at
        operations force bits to 0/1 instead of toggling them — a stuck
        bit already holding the stuck value is benign, exactly as in
        the float32 :class:`~repro.hw.injector.FaultInjector`.

        Must be used inside :meth:`deployed`.  Yields the number of
        faulted bits.  Splitting sampling from application lets callers
        inspect the fault set (e.g. :meth:`affected_layers` for the
        suffix cut point) without perturbing the random stream.
        """
        from repro.hw.faultmodels import OP_FLIP, OP_STUCK0, OP_STUCK1

        if not self.deployed_now:
            raise RuntimeError("session requires the memory to be deployed()")
        fault_set = self._as_fault_set(faults)
        bit_indices = fault_set.bit_indices
        if bit_indices.size and (
            bit_indices.min() < 0 or bit_indices.max() >= self.total_bits
        ):
            raise IndexError("int8 bit index out of range")

        undo: list[tuple[_QuantRegion, np.ndarray, np.ndarray]] = []
        for quant_region, code_indices, bit_positions, operations in self._locate(
            bit_indices, fault_set.operations
        ):
            unique_codes = np.unique(code_indices)
            undo.append((quant_region, unique_codes, quant_region.codes[unique_codes].copy()))
            view = quant_region.codes.view(np.uint8)
            for op in (OP_FLIP, OP_STUCK0, OP_STUCK1):
                selected = operations == op
                if not selected.any():
                    continue
                codes, masks = self._code_masks(
                    code_indices[selected], bit_positions[selected]
                )
                if op == OP_FLIP:
                    view[codes] ^= masks
                elif op == OP_STUCK1:
                    view[codes] |= masks
                else:
                    view[codes] &= np.invert(masks)
            self._write_back(quant_region)
        try:
            yield int(bit_indices.size)
        finally:
            for quant_region, unique_codes, original in undo:
                quant_region.codes[unique_codes] = original
                self._write_back(quant_region)
