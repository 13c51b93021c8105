"""Property tests for the shared-memory tensor plane (hypothesis).

The executor ships campaign state through one shared-memory segment per
host, the *tensor plane* (see :mod:`repro.utils.shm`).  Two contracts
are pinned here: the plane's round-trip is the exact identity for
arbitrary bytes, in its streams and in its buffers, with an inline
fallback when shared memory is unavailable; and the plane reconstructs
packed objects as zero-copy read-only views (writable private copies on
request), bit-equal to the originals in every mode.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils import shm
from repro.utils.shm import (
    PackedUnit,
    pack_object,
    ship_units,
    shared_memory_available,
)

DTYPES = (
    np.float32,
    np.float64,
    np.int8,
    np.uint8,
    np.int16,
    np.int32,
    np.int64,
    np.uint32,
    np.complex64,
    np.bool_,
)


def _raw_unit(data: bytes) -> PackedUnit:
    """``data`` packed twice: in the stream and as an out-of-band buffer."""
    return pack_object({"stream": data, "buffer": pickle.PickleBuffer(data)})


def _roundtrip(data: bytes) -> "tuple[bytes, bytes]":
    """Parent ships ``data``; a "worker" opens the address and loads it."""
    shipment = ship_units([("raw", _raw_unit(data))])
    try:
        # The address must survive pickling: it travels to workers
        # inside every chunk call.
        ref = pickle.loads(pickle.dumps(shipment.ref))
        view = ref.open()
        try:
            loaded = view.load("raw")
            raw = loaded["stream"], bytes(loaded["buffer"])
            del loaded  # views must die before the detach
            return raw
        finally:
            view.close()
    finally:
        shipment.release()


class TestSharedMemoryRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(data=st.binary(min_size=0, max_size=4096))
    def test_raw_bytes_identity(self, data):
        assert _roundtrip(data) == (data, data)

    def test_nonempty_payload_prefers_shared_memory(self):
        if not shared_memory_available():  # pragma: no cover - always true on Linux
            pytest.skip("platform without shared memory")
        unit = PackedUnit(b"x" * 128, ())
        shipment = ship_units([("raw", unit)])
        try:
            assert shipment.ref.via_shared_memory
            assert shipment.ref.inline is None
            assert shipment.ref.size == unit.nbytes == 128
        finally:
            shipment.release()

    def test_release_is_idempotent(self):
        shipment = ship_units([("raw", _raw_unit(b"payload"))])
        shipment.release()
        shipment.release()  # second release must not raise


class TestInlineFallback:
    @settings(max_examples=15, deadline=None)
    @given(data=st.binary(min_size=0, max_size=1024))
    def test_fallback_when_shared_memory_missing(self, data):
        """With shared memory patched away, the plane travels inline.

        Patched by hand (not the monkeypatch fixture): hypothesis runs
        many examples per test call and function-scoped fixtures would
        not reset between them.
        """
        original = shm._shared_memory
        shm._shared_memory = None
        try:
            shipment = ship_units([("raw", _raw_unit(data))])
            assert not shipment.ref.via_shared_memory
            assert shipment.ref.segment is None
            assert len(shipment.ref.inline) == shipment.ref.size
            shipment.release()
            assert _roundtrip(data) == (data, data)
        finally:
            shm._shared_memory = original

    def test_fallback_when_segment_creation_fails(self, monkeypatch):
        class _FailingSharedMemory:
            def __init__(self, *args, **kwargs):
                raise OSError("no /dev/shm")

        class _Module:
            SharedMemory = _FailingSharedMemory

        monkeypatch.setattr(shm, "_shared_memory", _Module)
        shipment = ship_units([("raw", _raw_unit(b"payload"))])
        assert not shipment.ref.via_shared_memory
        assert _roundtrip(b"payload") == (b"payload", b"payload")

    def test_empty_payload_ships_inline(self):
        for units in ([], [("empty", PackedUnit(b"", ()))]):
            shipment = ship_units(units)
            assert not shipment.ref.via_shared_memory
            assert shipment.ref.size == 0
            assert bytes(shipment.ref.inline) == b""


class TestShippedBytesContract:
    """The plane's address, carrying its bytes inline."""

    def test_inline_ref_roundtrips_through_pickle(self, monkeypatch):
        monkeypatch.setattr(shm, "_shared_memory", None)
        shipment = ship_units([("raw", _raw_unit(b"abc"))])
        clone = pickle.loads(pickle.dumps(shipment.ref))
        assert clone == shipment.ref
        view = clone.open()
        try:
            loaded = view.load("raw")
            assert (loaded["stream"], bytes(loaded["buffer"])) == (b"abc", b"abc")
            del loaded
        finally:
            view.close()


def _sample_payload(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "weights": rng.standard_normal((6, 4)).astype(np.float32),
        "bias": rng.standard_normal(4).astype(np.float32),
        "labels": rng.integers(0, 10, 16),
        "name": "unit-under-test",
        "scale": 0.5,
    }


class TestTensorPlane:
    def test_packed_unit_extracts_buffers_out_of_band(self):
        unit = pack_object(_sample_payload())
        assert isinstance(unit, PackedUnit)
        assert len(unit.buffers) == 3  # one per contiguous array
        assert unit.nbytes > len(unit.stream)

    def test_crc_covers_tensor_content(self):
        payload = _sample_payload()
        baseline = pack_object(payload).crc32()
        assert pack_object(_sample_payload()).crc32() == baseline
        payload["weights"][0, 0] += 1.0
        assert pack_object(payload).crc32() != baseline

    def test_unpack_copy_is_private_and_writable(self):
        payload = _sample_payload()
        copy = pack_object(payload).unpack_copy()
        np.testing.assert_array_equal(copy["weights"], payload["weights"])
        assert copy["weights"].flags.writeable
        assert not np.shares_memory(copy["weights"], payload["weights"])

    def test_shipped_plane_loads_read_only_views(self):
        """The zero-copy contract: mapped arrays are bit-equal, read-only."""
        payload = _sample_payload()
        shipment = ship_units([("task/0", pack_object(payload))])
        try:
            ref = pickle.loads(pickle.dumps(shipment.ref))  # worker transit
            assert ref.names() == ["task/0"]
            view = ref.open()
            try:
                loaded = view.load("task/0")
                for key in ("weights", "bias", "labels"):
                    np.testing.assert_array_equal(loaded[key], payload[key])
                    assert not loaded[key].flags.writeable
                assert loaded["name"] == payload["name"]
                with pytest.raises(ValueError):
                    loaded["weights"][0, 0] = 1.0
                del loaded
            finally:
                view.close()
        finally:
            shipment.release()

    def test_copy_mode_yields_writable_private_arrays(self):
        payload = _sample_payload()
        shipment = ship_units([("task/0", pack_object(payload))])
        try:
            view = shipment.ref.open()
            try:
                loaded = view.load("task/0", copy=True)
                np.testing.assert_array_equal(loaded["weights"], payload["weights"])
                assert loaded["weights"].flags.writeable
                loaded["weights"][0, 0] += 1.0  # must not raise
            finally:
                view.close()
        finally:
            shipment.release()

    def test_inline_fallback_still_serves_views(self, monkeypatch):
        """Without shared memory the plane travels inline, same contract."""
        monkeypatch.setattr(shm, "_shared_memory", None)
        payload = _sample_payload()
        shipment = ship_units([("task/0", pack_object(payload))])
        try:
            assert not shipment.ref.via_shared_memory
            view = shipment.ref.open()
            try:
                loaded = view.load("task/0")
                np.testing.assert_array_equal(loaded["weights"], payload["weights"])
                assert not loaded["weights"].flags.writeable
            finally:
                view.close()
        finally:
            shipment.release()

    def test_multiple_units_load_independently(self):
        units = [
            (f"task/{i}", pack_object(_sample_payload(seed=i))) for i in range(3)
        ]
        shipment = ship_units(units)
        try:
            view = shipment.ref.open()
            try:
                assert "task/2" in view and "missing" not in view
                for i in (2, 0, 1):  # any order
                    loaded = view.load(f"task/{i}")
                    expected = _sample_payload(seed=i)
                    np.testing.assert_array_equal(
                        loaded["weights"], expected["weights"]
                    )
                # Views must die before the detach (the executor drops
                # its runner before closing the old generation's plane).
                del loaded
            finally:
                view.close()
        finally:
            shipment.release()

    def test_closed_view_rejects_loads(self):
        shipment = ship_units([("task/0", pack_object(_sample_payload()))])
        try:
            view = shipment.ref.open()
            view.close()
            view.close()  # idempotent
            with pytest.raises(ValueError):
                view.load("task/0")
        finally:
            shipment.release()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dtype_index=st.integers(0, len(DTYPES) - 1),
        shape=st.lists(st.integers(0, 7), min_size=0, max_size=4),
    )
    def test_arbitrary_arrays_roundtrip_as_views(self, seed, dtype_index, shape):
        """Any dtype/shape maps through the plane bit-exactly."""
        rng = np.random.default_rng(seed)
        array = (rng.standard_normal(shape) * 64).astype(DTYPES[dtype_index])
        shipment = ship_units([("unit", pack_object(array))])
        try:
            view = shipment.ref.open()
            try:
                loaded = view.load("unit", copy=False)
                assert loaded.dtype == array.dtype
                assert loaded.shape == array.shape
                np.testing.assert_array_equal(loaded, array)
                del loaded
            finally:
                view.close()
        finally:
            shipment.release()


def _load_all(ref, names):
    """Open the plane once and load ``names`` (views stay valid while open)."""
    view = ref.open()
    return view, [view.load(name) for name in names]


@pytest.fixture(params=["shared-memory", "inline"])
def transport(request, monkeypatch):
    if request.param == "inline":
        monkeypatch.setattr(shm, "_shared_memory", None)
    elif not shared_memory_available():  # pragma: no cover
        pytest.skip("platform without shared memory")
    return request.param


class TestDistinctBuffersPlacedOnce:
    def test_one_array_in_two_units_is_placed_once(self, transport):
        array = np.random.default_rng(0).standard_normal(4096).astype(np.float32)
        first = pack_object({"x": array, "name": "first"})
        second = pack_object({"x": array, "name": "second"})
        shipment = ship_units([("a", first), ("b", second)])
        try:
            ref = shipment.ref
            assert ref.via_shared_memory == (transport == "shared-memory")
            a_span, b_span = ref.units
            assert a_span.buffers == b_span.buffers
            assert a_span.stream != b_span.stream
            assert ref.size < (
                len(first.stream) + len(second.stream) + array.nbytes
                + shm._BUFFER_ALIGNMENT
            )
            view, (a, b) = _load_all(ref, ["a", "b"])
            try:
                assert (a["name"], b["name"]) == ("first", "second")
                for loaded in (a["x"], b["x"]):
                    np.testing.assert_array_equal(loaded, array)
                    assert not loaded.flags.writeable
                del a, b, loaded
            finally:
                view.close()
        finally:
            shipment.release()

    def test_views_of_one_base_with_different_lengths_get_separate_spans(
        self, transport
    ):
        base = np.arange(256, dtype=np.float32)
        short = pack_object(base[:100])
        long = pack_object(base[:200])
        shipment = ship_units([("short", short), ("long", long)])
        try:
            short_span, long_span = shipment.ref.units
            assert short_span.buffers != long_span.buffers
            view, (a, b) = _load_all(shipment.ref, ["short", "long"])
            try:
                np.testing.assert_array_equal(a, base[:100])
                np.testing.assert_array_equal(b, base[:200])
                del a, b
            finally:
                view.close()
        finally:
            shipment.release()

    def test_every_buffer_starts_aligned(self, transport):
        units = [
            ("odd", PackedUnit(b"\x01" * 3, ())),
            *((f"u/{i}", pack_object(_sample_payload(seed=i))) for i in range(3)),
        ]
        shipment = ship_units(units)
        try:
            for unit in shipment.ref.units:
                for start, _end in unit.buffers:
                    assert start % shm._BUFFER_ALIGNMENT == 0
        finally:
            shipment.release()


class TestAlignedLoadsKeepTheParentsBits:
    """Misaligned float32 weights send ``x @ W.T`` down another BLAS path
    that rounds differently, so pooled logits drifted from the parent's."""

    def test_lenet_task_behind_an_odd_unit_loads_aligned_and_bit_equal(
        self, transport
    ):
        from repro.core.executor import WeightFaultCellTask
        from repro.hw.memory import WeightMemory
        from repro.models import build_model

        model = build_model("lenet5", seed=3)
        model.eval()
        rng = np.random.default_rng(4)
        images = rng.standard_normal((72, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, 72)
        task = WeightFaultCellTask(
            model, WeightMemory.from_model(model), images, labels
        )
        unit = pack_object(task)
        # Pad so the task's first buffer would start at an odd offset.
        pad = 1 if len(unit.stream) % 2 == 0 else 2
        shipment = ship_units(
            [("pad", PackedUnit(b"\x00" * pad, ())), ("task/0", unit)]
        )
        try:
            view, (loaded,) = _load_all(shipment.ref, ["task/0"])
            try:
                arrays = [loaded.images] + [
                    parameter.data for parameter in loaded.model.parameters()
                ]
                assert len(arrays) == 11  # images + 10 LeNet-5 parameters
                for array in arrays:
                    assert array.dtype == np.float32
                    assert array.ctypes.data % array.dtype.alignment == 0
                expected = model(images)
                actual = loaded.model(loaded.images)
                assert actual.tobytes() == expected.tobytes()
                del loaded, arrays, array, actual
            finally:
                view.close()
        finally:
            shipment.release()
