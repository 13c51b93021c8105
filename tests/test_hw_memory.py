"""Tests for the bit-addressable weight memory."""

import numpy as np
import pytest

from repro import nn
from repro.hw.memory import MemoryRegion, WeightMemory
from repro.models import CifarVGG16, LeNet5
from tests.helpers import weight_memory


class TestConstruction:
    def test_from_model_covers_all_comp_layers(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model)
        assert memory.layer_names() == ["CONV-1", "CONV-2", "FC-1", "FC-2", "FC-3"]
        expected_words = sum(p.size for p in model.parameters())
        assert memory.total_words == expected_words
        assert memory.total_bits == expected_words * 32

    def test_layer_scoping(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model, layers=["CONV-2"])
        assert memory.layer_names() == ["CONV-2"]
        conv2 = dict(model.named_modules())["3"]
        assert memory.total_words == conv2.weight.size + conv2.bias.size

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            WeightMemory.from_model(LeNet5(seed=0), layers=["CONV-9"])

    def test_exclude_bias(self):
        model = LeNet5(seed=0)
        with_bias = WeightMemory.from_model(model)
        without_bias = WeightMemory.from_model(model, include_bias=False)
        assert without_bias.total_words < with_bias.total_words

    def test_batchnorm_params_excluded(self):
        model = CifarVGG16(width_mult=0.0625, seed=0)
        memory = WeightMemory.from_model(model)
        conv_linear_words = sum(
            p.size
            for m in model.modules()
            if isinstance(m, (nn.Conv2d, nn.Linear))
            for p in [m.weight] + ([m.bias] if m.bias is not None else [])
        )
        assert memory.total_words == conv_linear_words

    def test_from_parameters(self):
        params = [("a", nn.Parameter(np.zeros(10))), ("b", nn.Parameter(np.zeros(5)))]
        memory = weight_memory(params)
        assert memory.total_words == 15
        assert memory.regions[1].bit_offset == 10 * 32

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightMemory([])

    def test_non_contiguous_rejected(self):
        param = nn.Parameter(np.zeros(4))
        regions = [
            MemoryRegion("a", "a", param, 0),
            MemoryRegion("b", "b", param, 4 * 32 + 32),  # gap
        ]
        with pytest.raises(ValueError, match="contiguous"):
            WeightMemory(regions)


class TestLocate:
    def _memory(self):
        params = [("a", nn.Parameter(np.zeros(2))), ("b", nn.Parameter(np.zeros(3)))]
        return weight_memory(params)

    def test_locates_first_region(self):
        memory = self._memory()
        results = memory.locate(np.asarray([0, 33]))
        assert len(results) == 1
        region, words, bits = results[0]
        assert region.name == "a"
        np.testing.assert_array_equal(words, [0, 1])
        np.testing.assert_array_equal(bits, [0, 1])

    def test_locates_across_regions(self):
        memory = self._memory()
        results = memory.locate(np.asarray([10, 64, 100]))
        names = [region.name for region, _, _ in results]
        assert names == ["a", "b"]
        region_b = results[1]
        np.testing.assert_array_equal(region_b[1], [0, 1])  # words 0,1 of b
        np.testing.assert_array_equal(region_b[2], [0, 36 - 32])

    def test_out_of_range(self):
        memory = self._memory()
        with pytest.raises(IndexError):
            memory.locate(np.asarray([5 * 32]))
        with pytest.raises(IndexError):
            memory.locate(np.asarray([-1]))

    def test_empty_input(self):
        assert self._memory().locate(np.asarray([], dtype=np.int64)) == []


class TestHelpers:
    def test_bits_per_layer(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model)
        per_layer = memory.bits_per_layer()
        assert sum(per_layer.values()) == memory.total_bits
        assert set(per_layer) == set(memory.layer_names())

    def test_snapshot_restore(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model)
        snapshot = memory.snapshot()
        first_param = memory.regions[0].parameter
        first_param.data[:] = 99.0
        memory.restore(snapshot)
        assert first_param.data.max() < 99.0

    def test_restore_validates(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model)
        with pytest.raises(ValueError):
            memory.restore([np.zeros(1)])

    def test_repr(self):
        memory = WeightMemory.from_model(LeNet5(seed=0))
        assert "WeightMemory" in repr(memory)


class TestCopyOnWrite:
    """Read-only (shm-view) regions are privatized on first write only."""

    def _read_only_memory(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model)
        original = memory.snapshot()
        for region in memory.regions:
            region.parameter.data.flags.writeable = False
        return model, memory, original

    def test_materialize_region_copies_read_only(self):
        from repro.hw.memory import materialize_region

        _, memory, original = self._read_only_memory()
        region = memory.regions[0]
        assert materialize_region(region) is True
        assert region.parameter.data.flags.writeable
        np.testing.assert_array_equal(region.parameter.data, original[0])
        # Second call is a no-op on an already-private region.
        assert materialize_region(region) is False

    def test_materialize_region_noop_on_writable(self):
        from repro.hw.memory import materialize_region

        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model)
        before = memory.regions[0].parameter.data
        assert materialize_region(memory.regions[0]) is False
        assert memory.regions[0].parameter.data is before

    def test_restore_works_on_read_only_memory(self):
        _, memory, original = self._read_only_memory()
        memory.restore(original)
        for region, saved in zip(memory.regions, original):
            np.testing.assert_array_equal(region.parameter.data, saved)

    def test_injection_privatizes_only_affected_regions(self):
        """The CoW footprint equals the fault set's affected regions."""
        from repro.hw.faultmodels import FaultSet
        from repro.hw.injector import FaultInjector

        _, memory, original = self._read_only_memory()
        # All faults inside the FC-2 weight region.
        target = next(r for r in memory.regions if r.name == "FC-2.weight")
        bits = np.asarray(
            [target.bit_offset, target.bit_offset + 33], dtype=np.int64
        )
        injector = FaultInjector(memory)
        with injector.apply(FaultSet.flips(bits)):
            touched = [
                r.layer_name
                for r in memory.regions
                if r.parameter.data.flags.writeable
            ]
            assert set(touched) == {"FC-2"}
        # Restore is exact on the private copy; untouched regions are
        # still the original read-only arrays.
        for region, saved in zip(memory.regions, original):
            np.testing.assert_array_equal(region.parameter.data, saved)
            if region.layer_name != "FC-2":
                assert not region.parameter.data.flags.writeable

    def test_quantized_deploy_privatizes_on_write_back(self):
        from repro.hw.quant import QuantizedWeightMemory

        _, memory, original = self._read_only_memory()
        quantized = QuantizedWeightMemory(memory)
        with quantized.deployed():
            for region in memory.regions:
                assert region.parameter.data.flags.writeable
        for region, saved in zip(memory.regions, original):
            np.testing.assert_array_equal(region.parameter.data, saved)
