"""Linear, bit-addressable view of a model's weight memory.

The fault models in :mod:`repro.hw.faultmodels` draw *global bit indices*
uniformly over the memory; :class:`WeightMemory` maps those indices back to
``(parameter, word, bit)`` targets, exactly like weight words laid out
consecutively in an accelerator's on-chip/off-chip memory (paper Fig. 1a).

Copy-on-write: under the zero-copy tensor plane (:mod:`repro.utils.shm`)
a worker's parameter arrays are *read-only* shared-memory views.  Every
in-place mutation path in the hw layer therefore first calls
:func:`materialize_region`, which swaps a read-only region's array for
a private writable copy — so only the regions a fault set actually
touches are ever copied, and the untouched remainder of the network
stays mapped once per host (see ``docs/MEMORY_MODEL.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import nn
from repro.hw.bits import WORD_BITS
from repro.models.registry import computational_layers

__all__ = ["MemoryRegion", "WeightMemory", "materialize_region"]


def materialize_region(region: "MemoryRegion") -> bool:
    """Give ``region`` a private writable array if it is a read-only view.

    The copy-on-write fault of the shared-memory tensor plane: workers
    map weights read-only and the first write to a region replaces the
    parameter's array with a bit-identical private copy.  Returns
    whether a copy was made (False for already-writable regions, so the
    serial path and the legacy deserializing path pay nothing).
    """
    data = region.parameter.data
    if data.flags.writeable:
        return False
    region.parameter.data = np.array(data, copy=True)
    return True


@dataclass(frozen=True)
class MemoryRegion:
    """One parameter's slice of the linear weight memory."""

    name: str  # qualified parameter name, e.g. "0.weight"
    layer_name: str  # paper-style layer name, e.g. "CONV-1"
    parameter: nn.Parameter
    bit_offset: int  # first global bit index of this region

    @property
    def num_bits(self) -> int:
        """Number of bits in the region."""
        return self.parameter.size * WORD_BITS

    @property
    def bit_end(self) -> int:
        """One past the last global bit index of this region."""
        return self.bit_offset + self.num_bits


class WeightMemory:
    """Maps a model's parameters into one contiguous bit-addressable space.

    By default only the *computational* layers' parameters (CONV/FC weights
    and biases) are mapped — the memory the paper injects faults into.
    Batch-norm parameters and buffers are excluded unless explicitly
    included via a custom ``select`` predicate.
    """

    def __init__(self, regions: Sequence[MemoryRegion]):
        if not regions:
            raise ValueError("weight memory must contain at least one region")
        self.regions = tuple(regions)
        offsets = [region.bit_offset for region in self.regions]
        if offsets != sorted(offsets):
            raise ValueError("regions must be ordered by bit_offset")
        for previous, current in zip(self.regions, self.regions[1:]):
            if previous.bit_end != current.bit_offset:
                raise ValueError(
                    f"regions are not contiguous at {current.name!r}: "
                    f"{previous.bit_end} != {current.bit_offset}"
                )
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self.total_bits = self.regions[-1].bit_end
        self.total_words = self.total_bits // WORD_BITS
        # Fault models address words of this width; the int8 shadow memory
        # (repro.hw.quant.QuantizedWeightMemory) advertises 8 instead, so
        # word-addressed samplers (TargetedBitFlip) work over either space.
        self.bits_per_word = WORD_BITS

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_model(
        cls,
        model: nn.Module,
        layers: "Iterable[str] | None" = None,
        include_bias: bool = True,
    ) -> "WeightMemory":
        """Map the CONV/FC parameters of ``model``.

        ``layers`` optionally restricts the memory to the named paper-style
        layers (e.g. ``["CONV-1"]``) — this is how per-layer fault
        injection (paper Section III) scopes its campaigns.
        """
        wanted = set(layers) if layers is not None else None
        pairs = computational_layers(model)
        if wanted is not None:
            known = {name for name, _ in pairs}
            unknown = wanted - known
            if unknown:
                raise ValueError(
                    f"unknown layer names {sorted(unknown)!r}; model has {sorted(known)!r}"
                )

        regions: list[MemoryRegion] = []
        offset = 0
        for layer_name, layer in pairs:
            if wanted is not None and layer_name not in wanted:
                continue
            for param_name, param in layer.named_parameters():
                if not include_bias and param_name.endswith("bias"):
                    continue
                regions.append(
                    MemoryRegion(
                        name=f"{layer_name}.{param_name}",
                        layer_name=layer_name,
                        parameter=param,
                        bit_offset=offset,
                    )
                )
                offset += param.size * WORD_BITS
        if not regions:
            raise ValueError("no parameters selected for the weight memory")
        return cls(regions)

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #

    def locate(
        self, bit_indices: np.ndarray
    ) -> list[tuple[MemoryRegion, np.ndarray, np.ndarray]]:
        """Resolve global bit indices to per-region (word, bit) targets.

        Returns one ``(region, word_indices, bit_positions)`` triple per
        affected region, where ``word_indices`` are flat indices into the
        region's parameter.
        """
        bit_indices = np.asarray(bit_indices, dtype=np.int64)
        if bit_indices.size == 0:
            return []
        if bit_indices.min() < 0 or bit_indices.max() >= self.total_bits:
            raise IndexError(
                f"bit index out of range [0, {self.total_bits}): "
                f"[{bit_indices.min()}, {bit_indices.max()}]"
            )
        region_ids = np.searchsorted(self._offsets, bit_indices, side="right") - 1
        results = []
        for region_id in np.unique(region_ids):
            region = self.regions[int(region_id)]
            local = bit_indices[region_ids == region_id] - region.bit_offset
            results.append(
                (region, (local // WORD_BITS).astype(np.int64), (local % WORD_BITS))
            )
        return results

    def layer_names(self) -> list[str]:
        """Distinct layer names in memory order."""
        seen: list[str] = []
        for region in self.regions:
            if region.layer_name not in seen:
                seen.append(region.layer_name)
        return seen

    def bits_per_layer(self) -> dict[str, int]:
        """Total mapped bits per layer (drives per-layer fault counts)."""
        counts: dict[str, int] = {}
        for region in self.regions:
            counts[region.layer_name] = counts.get(region.layer_name, 0) + region.num_bits
        return counts

    def snapshot(self) -> list[np.ndarray]:
        """Copies of all mapped parameter arrays (full-memory checkpoint)."""
        return [region.parameter.data.copy() for region in self.regions]

    def restore(self, snapshot: Sequence[np.ndarray]) -> None:
        """Restore a :meth:`snapshot` (shape-checked, in place, CoW-safe)."""
        if len(snapshot) != len(self.regions):
            raise ValueError(
                f"snapshot has {len(snapshot)} arrays, memory has "
                f"{len(self.regions)} regions"
            )
        for region, saved in zip(self.regions, snapshot):
            data = region.parameter.data
            if saved.shape != data.shape:
                raise ValueError(f"snapshot shape mismatch for {region.name!r}")
            if data.flags.writeable:
                np.copyto(data, saved)
            else:
                # Copy-on-write, single-copy: the snapshot fully
                # overwrites the region, so rebind a private copy of it
                # directly instead of privatizing the view first.
                region.parameter.data = np.array(
                    saved, dtype=data.dtype, copy=True
                )

    def __repr__(self) -> str:
        return (
            f"WeightMemory(regions={len(self.regions)}, "
            f"words={self.total_words}, bits={self.total_bits})"
        )
