"""Tests for the reversible fault injector."""

import numpy as np
import pytest

from repro import nn
from repro.hw.faultmodels import (
    OP_STUCK0,
    FaultSet,
    RandomBitFlip,
    StuckAt,
)
from repro.hw.injector import FaultInjector
from repro.hw.memory import WeightMemory
from repro.models import LeNet5
from tests.helpers import weight_memory


def _setup(words=100, seed=0):
    rng = np.random.default_rng(seed)
    param = nn.Parameter(rng.standard_normal(words).astype(np.float32))
    memory = weight_memory([("p", param)])
    return param, memory, FaultInjector(memory)


class TestInjectRestore:
    def test_flip_changes_then_restore_exact(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        fault_set = RandomBitFlip(0.01).sample(memory, np.random.default_rng(1))
        assert len(fault_set) > 0
        record = injector.inject(fault_set)
        assert not np.array_equal(param.data, original)
        injector.restore(record)
        np.testing.assert_array_equal(param.data, original)

    def test_stuck_at_restore_exact(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        fault_set = StuckAt(0.02, value=1).sample(memory, np.random.default_rng(2))
        record = injector.inject(fault_set)
        injector.restore(record)
        np.testing.assert_array_equal(param.data, original)

    def test_mixed_operations(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        bits = np.asarray([0, 40, 70])
        ops = np.asarray([0, 1, 2], dtype=np.uint8)  # flip, stuck0, stuck1
        record = injector.inject(FaultSet(bits, ops))
        injector.restore(record)
        np.testing.assert_array_equal(param.data, original)

    def test_nested_injections_restore_lifo(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        first = injector.inject(RandomBitFlip(0.01).sample(memory, np.random.default_rng(3)))
        second = injector.inject(RandomBitFlip(0.01).sample(memory, np.random.default_rng(4)))
        injector.restore(second)
        injector.restore(first)
        np.testing.assert_array_equal(param.data, original)

    def test_empty_fault_set_noop(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        record = injector.inject(FaultSet.empty())
        np.testing.assert_array_equal(param.data, original)
        assert record.saved == []
        injector.restore(record)

    def test_stacked_apply_contexts_restore_exactly(self):
        """Nested apply() blocks over the same words unwind newest first,
        so stuck-at faults (not self-inverse) leave no trace either."""
        param, memory, injector = _setup()
        original = param.data.copy()
        stuck = FaultSet(np.asarray([5, 36]), np.full(2, OP_STUCK0, dtype=np.uint8))
        with injector.apply(FaultSet.flips(np.asarray([3, 40]))):
            with injector.apply(stuck):
                with injector.apply(FaultSet.flips(np.asarray([3, 5, 70]))):
                    assert not np.array_equal(param.data, original)
        np.testing.assert_array_equal(param.data, original)


class TestSessions:
    def test_session_restores_on_exit(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        with injector.session(RandomBitFlip(0.05), rng=7):
            assert not np.array_equal(param.data, original)
        np.testing.assert_array_equal(param.data, original)

    def test_session_restores_on_exception(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        with pytest.raises(RuntimeError):
            with injector.session(RandomBitFlip(0.05), rng=7):
                raise RuntimeError("boom")
        np.testing.assert_array_equal(param.data, original)

    def test_apply_context_manager(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        with injector.apply(FaultSet.flips(np.asarray([31]))):
            assert param.data[0] == -original[0]  # bit 31 = sign of word 0
        np.testing.assert_array_equal(param.data, original)

    def test_session_tolerates_inner_restore(self):
        param, memory, injector = _setup()
        original = param.data.copy()
        with injector.session(RandomBitFlip(0.05), rng=7) as record:
            injector.restore(record)
        np.testing.assert_array_equal(param.data, original)


class TestRecordMetadata:
    def test_affected_layers(self):
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model, layers=["CONV-1", "FC-3"])
        injector = FaultInjector(memory)
        # Put one fault in each layer's region.
        conv1_bits = memory.regions[0].bit_offset
        fc3_region = next(r for r in memory.regions if r.layer_name == "FC-3")
        fault_set = FaultSet.flips(
            np.asarray([conv1_bits, fc3_region.bit_offset + 5])
        )
        record = injector.inject(fault_set)
        # The cut-point report is the set of regions inject() wrote.
        assert [
            region.layer_name for region, words, _ in record.saved if words.size
        ] == injector.affected_layers(fault_set) == ["CONV-1", "FC-3"]
        injector.restore(record)

    def test_num_affected_words(self):
        param, memory, injector = _setup()
        # Two bits in word 0, one in word 3: each word is saved once.
        record = injector.inject(FaultSet.flips(np.asarray([0, 5, 3 * 32])))
        assert [words.tolist() for _, words, _ in record.saved] == [[0, 3]]
        injector.restore(record)


class TestModelLevelInjection:
    def test_exponent_flip_makes_huge_weight(self):
        """End-to-end check of the paper's mechanism through the injector."""
        model = LeNet5(seed=0)
        memory = WeightMemory.from_model(model, layers=["CONV-1"])
        injector = FaultInjector(memory)
        conv1 = dict(model.named_modules())["0"]
        flat = conv1.weight.data.reshape(-1)
        target_word = 10
        # Bit 30 (exponent MSB) of the chosen weight word.
        bit_index = target_word * 32 + 30
        before = float(flat[target_word])
        with injector.apply(FaultSet.flips(np.asarray([bit_index]))):
            after = float(conv1.weight.data.reshape(-1)[target_word])
            assert abs(after) > 1e30 or abs(after) < 1e-30  # 2^±128 scaling
        assert float(conv1.weight.data.reshape(-1)[target_word]) == before
