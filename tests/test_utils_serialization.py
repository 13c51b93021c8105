"""Tests for model/state serialization."""

import numpy as np
import pytest

from repro import nn
from repro.models import LeNet5
from repro.utils.serialization import (
    load_state_dict,
    save_state_dict,
    trim_torn_tail,
)


class TestStateDictRoundtrip:
    def test_roundtrip_arrays_and_metadata(self, tmp_path):
        path = tmp_path / "model.npz"
        state = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(2)}
        save_state_dict(path, state, metadata={"acc": 0.9, "name": "x"})
        loaded, meta = load_state_dict(path)
        np.testing.assert_array_equal(loaded["w"], state["w"])
        np.testing.assert_array_equal(loaded["b"], state["b"])
        assert meta == {"acc": 0.9, "name": "x"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "absent.npz")

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state_dict(tmp_path / "x.npz", {"__repro_meta__": np.zeros(1)})

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.npz"
        save_state_dict(path, {"a": np.zeros(1)})
        assert path.exists()

    def test_empty_metadata_default(self, tmp_path):
        path = tmp_path / "m.npz"
        save_state_dict(path, {"a": np.zeros(1)})
        _, meta = load_state_dict(path)
        assert meta == {}


class TestModelRoundtrip:
    def test_model_save_load_preserves_outputs(self, tmp_path):
        model = LeNet5(seed=0)
        model.eval()
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        expected = model(x)

        path = tmp_path / "lenet.npz"
        save_state_dict(path, model.state_dict(), metadata={"kind": "lenet"})

        fresh = LeNet5(seed=99)  # different init
        fresh.eval()
        state, meta = load_state_dict(path)
        fresh.load_state_dict(state)
        assert meta == {"kind": "lenet"}
        np.testing.assert_array_equal(fresh(x), expected)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = LeNet5(seed=0)
        path = tmp_path / "lenet.npz"
        save_state_dict(path, model.state_dict())
        other = nn.Linear(4, 2, seed=0)
        state, _ = load_state_dict(path)
        with pytest.raises(KeyError):
            other.load_state_dict(state)


class TestTrimTornTail:
    @pytest.mark.parametrize(
        "data, kept",
        [
            (b"a\nb\n", b"a\nb\n"),
            (b"a\nb\nc", b"a\nb\n"),
            (b"torn", b""),
            (b"", b""),
        ],
        ids=["intact", "torn-tail", "no-complete-line", "empty"],
    )
    def test_keeps_complete_lines_on_disk(self, tmp_path, data, kept):
        path = tmp_path / "log.jsonl"
        path.write_bytes(data)
        assert trim_torn_tail(path) == kept
        assert path.read_bytes() == kept
