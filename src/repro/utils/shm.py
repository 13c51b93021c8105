"""Shared-memory tensor plane: zero-copy shipping of campaign state.

This module is the transport layer of the parallel campaign executor
(:mod:`repro.core.executor`), and the **tensor plane** is its only
transport: one :mod:`multiprocessing.shared_memory` segment per host
holds, at known offsets, every large tensor a sweep needs —
model weight arrays, evaluation arrays, and the suffix engine's cached
clean activations — plus the (small) in-band pickle streams that tie
them together.  Worker processes attach the segment by name and map each
tensor as a **read-only numpy view**, so a worker never deserializes a
private copy of the weights; mutation is handled upstream by
copy-on-write (see :func:`repro.hw.memory.materialize_region` and
``docs/MEMORY_MODEL.md`` for the full memory model).

The mechanism is pickle protocol 5's out-of-band buffers:

* :func:`pack_object` serializes an object once, extracting every
  contiguous numpy array into a :class:`pickle.PickleBuffer` — the
  in-band stream keeps only dtype/shape metadata, and the buffers still
  reference the caller's live arrays (no copy yet).
* :func:`ship_units` lays all packed units out in one segment — the
  *region table* maps each unit's stream and each of its tensor buffers
  to an ``(offset, size)`` span, placing each distinct buffer once and
  64-byte aligned — and returns a picklable :class:`ShippedPlane`
  address.
* :meth:`ShippedPlane.open` attaches (once per worker per generation)
  and :meth:`PlaneView.load` reconstructs a unit with
  ``pickle.loads(stream, buffers=...)`` where each buffer is a
  *read-only memoryview slice* of the mapped segment — numpy rebuilds
  its arrays directly over those slices, copying nothing.

Degradation is always graceful and bit-identical:

* **Shared memory unavailable** (no ``/dev/shm``, permissions, missing
  ``_posixshmem``, segment creation fails): the plane's bytes travel
  inline in the pickled :class:`ShippedPlane` instead — one private
  copy per worker.  Loads still reconstruct read-only views (into the
  worker's private bytes), so the copy-on-write discipline is exercised
  identically.

Lifecycle and cleanup: the creating process owns the segment and must
call :meth:`PlaneShipment.release` (close + unlink) exactly once;
:class:`CampaignExecutor` does so in a ``finally`` even when a worker
raises or the sweep is interrupted, and :class:`PlaneShipment` carries a
best-effort ``__del__`` backstop.  Workers detach on generation change;
a detach that would invalidate still-live views is skipped (the mapping
then lives until process exit — the segment itself is already unlinked,
so the memory is reclaimed when the last mapping goes away).
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "shared_memory_available",
    "shared_memory_writable",
    "PackedUnit",
    "pack_object",
    "UnitSpan",
    "ShippedPlane",
    "PlaneView",
    "PlaneShipment",
    "ship_units",
]

try:  # pragma: no cover - import succeeds on all supported platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    _shared_memory = None


def shared_memory_available() -> bool:
    """Whether this interpreter can create shared-memory segments."""
    return _shared_memory is not None


def _create_segment(size: int):
    """Create a shared-memory segment of ``size`` bytes, or ``None``.

    ``None`` — shared memory unavailable, non-positive size, or creation
    failed (e.g. ``/dev/shm`` missing or full) — means the caller should
    fall back to the inline transport.
    """
    if _shared_memory is None or size <= 0:
        return None
    try:
        return _shared_memory.SharedMemory(create=True, size=size)
    except OSError:
        return None


def shared_memory_writable() -> bool:
    """Whether a segment can actually be created right now.

    Stronger than :func:`shared_memory_available` (which only checks
    importability): probes a 1-byte segment, so a missing or full
    ``/dev/shm`` is detected *before* a caller pays for work — like the
    executor's parent-side clean passes — that only helps when the plane
    lands in shared memory.
    """
    segment = _create_segment(1)
    if segment is None:
        return False
    segment.close()
    segment.unlink()
    return True


def _attach_segment(name: str):
    """Attach to an existing segment by name.

    Pool workers inherit the parent's resource tracker, so the attach-side
    ``register`` (bpo-39959) collapses into the parent's own registration
    and the segment's lifetime stays owned by the creating process, which
    unlinks it after the pool shuts down.
    """
    return _shared_memory.SharedMemory(name=name)


# Attachments whose detach was skipped because numpy views were still
# live (see PlaneView.close).  Keeping the handles referenced stops
# their __del__ from re-attempting the doomed unmap at GC time; the
# mappings are reclaimed by the OS at process exit, and the segments
# themselves are unlinked by their creating process regardless.
_LEAKED_MAPPINGS: "list" = []


# --------------------------------------------------------------------- #
# the tensor plane
# --------------------------------------------------------------------- #


class PackedUnit:
    """One object serialized with its tensors extracted out-of-band.

    ``stream`` is the in-band pickle (metadata, scalars, python objects);
    ``buffers`` are :class:`pickle.PickleBuffer` handles still referencing
    the caller's live arrays — nothing is copied until the unit is laid
    out in a segment by :func:`ship_units`.  The unit is parent-side
    only (PickleBuffer does not pickle); what ships is its span in the
    plane's region table.
    """

    __slots__ = ("stream", "buffers")

    def __init__(self, stream: bytes, buffers: "Sequence[pickle.PickleBuffer]"):
        self.stream = stream
        self.buffers = tuple(buffers)

    @property
    def nbytes(self) -> int:
        """Total payload size: in-band stream plus every tensor buffer."""
        return len(self.stream) + sum(
            buffer.raw().nbytes for buffer in self.buffers
        )

    def crc32(self) -> int:
        """CRC over the stream *and* every buffer, in order.

        Covers exactly the bytes a plain in-band pickle would contain,
        so the checksum fingerprints the full campaign content; it is
        identical across transports (packing never changes — only how
        workers load).
        """
        crc = zlib.crc32(self.stream)
        for buffer in self.buffers:
            crc = zlib.crc32(buffer.raw(), crc)
        return crc

    def unpack_copy(self) -> Any:
        """Reconstruct a fully private, writable copy of the object.

        Each buffer is copied into a fresh ``bytearray``, so the result
        shares no memory with the original arrays — the parent-side
        snapshot path (:meth:`LayerAUCEvaluator.evaluate_many` detaches
        per-threshold model copies this way).
        """
        return pickle.loads(
            self.stream,
            buffers=[bytearray(buffer.raw()) for buffer in self.buffers],
        )


def pack_object(obj: Any) -> PackedUnit:
    """Serialize ``obj`` once, extracting contiguous arrays out-of-band.

    Uses pickle protocol 5 with a ``buffer_callback``: numpy serializes
    every C/F-contiguous array as a :class:`pickle.PickleBuffer`
    referencing the live data (non-contiguous arrays fall back in-band).
    The same packing feeds the worker payload, the checkpoint CRC and
    parent-side snapshot copies, so large models are serialized exactly
    once per run.
    """
    buffers: "list[pickle.PickleBuffer]" = []
    stream = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return PackedUnit(stream, buffers)


@dataclass(frozen=True)
class UnitSpan:
    """The region-table entry of one packed unit inside the plane.

    ``stream`` is the (offset, end) span of the unit's in-band pickle;
    ``buffers`` the spans of its out-of-band tensor regions, in pickle
    order.
    """

    name: str
    stream: "tuple[int, int]"
    buffers: "tuple[tuple[int, int], ...]"


@dataclass(frozen=True)
class ShippedPlane:
    """Picklable address of a tensor plane: its bytes + region table.

    ``segment`` names the single per-host shared-memory segment holding
    the plane's ``size`` bytes; on the fallback transport it is ``None``
    and ``inline`` carries the bytes themselves.  ``units`` is the region
    table, one :class:`UnitSpan` per packed unit, keyed by name (e.g.
    ``task/0``, ``suffix/0``).
    """

    units: "tuple[UnitSpan, ...]"
    segment: "str | None"
    size: int
    inline: "bytearray | None" = None

    @property
    def via_shared_memory(self) -> bool:
        """Whether the plane lives in a shared-memory segment."""
        return self.segment is not None

    def names(self) -> "list[str]":
        """Region-table unit names, in layout order."""
        return [unit.name for unit in self.units]

    def open(self) -> "PlaneView":
        """Attach to the plane; the caller must :meth:`~PlaneView.close` it."""
        return PlaneView(self)


class PlaneView:
    """A worker-side attachment of one :class:`ShippedPlane`.

    :meth:`load` reconstructs units on demand; by default every tensor
    comes back as a **read-only numpy view** over the mapped segment
    (zero-copy).  Close when the generation ends; views created from
    this attachment must not be used afterwards.
    """

    def __init__(self, plane: ShippedPlane):
        self._spans = {unit.name: unit for unit in plane.units}
        self._segment = None
        if plane.segment is None:
            self._memory = memoryview(plane.inline)
        else:
            self._segment = _attach_segment(plane.segment)
            self._memory = memoryview(self._segment.buf)[: plane.size]

    def __contains__(self, name: str) -> bool:
        return name in self._spans

    def load(self, name: str, copy: bool = False) -> Any:
        """Reconstruct the unit called ``name``.

        Tensors come back as zero-copy read-only views, or as writable
        private copies with ``copy=True``.
        """
        if self._memory is None:
            raise ValueError("plane view is closed")
        unit = self._spans[name]
        start, end = unit.stream
        stream = self._memory[start:end]
        if copy:
            buffers: "list[Any]" = [
                bytearray(self._memory[a:b]) for a, b in unit.buffers
            ]
        else:
            buffers = [self._memory[a:b].toreadonly() for a, b in unit.buffers]
        return pickle.loads(stream, buffers=buffers)

    def close(self) -> None:
        """Detach from the segment (idempotent; no-op for the inline transport).

        If numpy views created over the segment are still alive the
        unmap would invalidate them; the detach is then skipped (see the
        module docstring: the parent has already unlinked the segment,
        so the memory is reclaimed when the process exits).
        """
        self._memory = None
        if self._segment is not None:
            segment, self._segment = self._segment, None
            try:
                segment.close()
            except BufferError:
                _LEAKED_MAPPINGS.append(segment)


class PlaneShipment:
    """Parent-side owner of a shipped plane; release() frees the segment."""

    def __init__(self, ref: ShippedPlane, segment=None):
        self.ref = ref
        self._segment = segment

    def release(self) -> None:
        """Unlink the plane's segment (idempotent; no-op for inline transport)."""
        if self._segment is not None:
            segment, self._segment = self._segment, None
            segment.close()
            segment.unlink()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        # Backstop only: owners release() deterministically (the executor
        # does so in a finally); this catches abandoned shipments so an
        # interrupted caller cannot leak a segment for the host's lifetime.
        try:
            self.release()
        except Exception:
            pass

    def __enter__(self) -> "PlaneShipment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


# Every tensor-buffer span starts at a multiple of this many bytes, so
# numpy rebuilds each array aligned: the segment mapping is page-aligned
# and the inline bytearray malloc-aligned.  A misaligned float operand
# sends a GEMM down another kernel path that rounds differently.
_BUFFER_ALIGNMENT = 64


def ship_units(units: "Iterable[tuple[str, PackedUnit]]") -> PlaneShipment:
    """Lay packed units out in one per-host segment and return its address.

    Builds the region table (one :class:`UnitSpan` per unit: the in-band
    stream span followed by each tensor-buffer span), copies the bytes
    once into a shared-memory segment — or inline bytes on the fallback
    transport — and returns the parent-side owner.  The caller must
    :meth:`~PlaneShipment.release` it exactly once, in a ``finally``.

    Each distinct buffer is placed once: a buffer whose memory (start
    address and byte length) is already in the plane reuses that span,
    so units packed from the same arrays share their tensor regions.
    Address identity is exact here because every unit holds its
    buffers' arrays for the length of the call.  Each unit keeps its
    own stream, and every buffer span starts at a multiple of
    :data:`_BUFFER_ALIGNMENT` bytes, zero padding in between.
    """
    chunks: "list[tuple[int, Any]]" = []
    spans: "list[UnitSpan]" = []
    placed: "dict[tuple[int, int], tuple[int, int]]" = {}
    offset = 0

    def place(chunk, align: int = 1) -> "tuple[int, int]":
        nonlocal offset
        start = -(-offset // align) * align
        size = chunk.nbytes if isinstance(chunk, memoryview) else len(chunk)
        chunks.append((start, chunk))
        offset = start + size
        return (start, offset)

    def place_buffer(raw: memoryview) -> "tuple[int, int]":
        address = np.frombuffer(raw, dtype=np.uint8).__array_interface__["data"][0]
        key = (address, raw.nbytes)
        if key not in placed:
            placed[key] = place(raw, _BUFFER_ALIGNMENT)
        return placed[key]

    for name, unit in units:
        stream_span = place(unit.stream)
        buffer_spans = tuple(
            place_buffer(buffer.raw().cast("B")) for buffer in unit.buffers
        )
        spans.append(UnitSpan(name=name, stream=stream_span, buffers=buffer_spans))

    def write_into(target) -> None:
        # Fresh segments and bytearrays are zero-filled, so the
        # alignment padding between chunks is zero without a write.
        for start, chunk in chunks:
            size = chunk.nbytes if isinstance(chunk, memoryview) else len(chunk)
            target[start : start + size] = chunk

    # Write each chunk straight into the segment: the plane's only full
    # copy is the mapped one (a multi-GB sweep would not survive a
    # transient join-then-copy).
    segment = _create_segment(offset)
    if segment is not None:
        try:
            write_into(segment.buf)
        except BaseException:  # pragma: no cover - partial-write cleanup
            segment.close()
            segment.unlink()
            raise
        return PlaneShipment(
            ShippedPlane(tuple(spans), segment.name, offset), segment
        )

    data = bytearray(offset)
    write_into(data)
    # The bytearray itself travels inline (picklable, sliceable): a
    # bytes() conversion would transiently double the degraded path's
    # peak memory for nothing.  Loads stay read-only regardless —
    # PlaneView hands out .toreadonly() views in zero-copy mode.
    return PlaneShipment(ShippedPlane(tuple(spans), None, offset, inline=data))
