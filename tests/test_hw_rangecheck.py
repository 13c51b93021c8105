"""Tests for the weight range-check mitigation."""

import numpy as np
import pytest

from repro import nn
from repro.core.campaign import CampaignConfig, run_campaign
from repro.hw.faultmodels import OP_FLIP, OP_STUCK0, FaultSet
from repro.hw.memory import WeightMemory
from repro.hw.rangecheck import WeightRangeCheck
from tests.oracles import flip_scalar_bit
from tests.helpers import weight_memory


def _memory(values=None, seed=0):
    if values is None:
        rng = np.random.default_rng(seed)
        values = rng.uniform(-0.5, 0.5, size=100).astype(np.float32)
    param = nn.Parameter(np.asarray(values, dtype=np.float32))
    return param, weight_memory([("p", param)])


class TestWeightRangeCheck:
    def test_bounds_profile_current_weights(self):
        param, memory = _memory([0.1, -0.4, 0.2])
        check = WeightRangeCheck(memory, margin=2.0)
        assert check.bounds()["p"] == pytest.approx(0.8)

    def test_exponent_flip_caught_and_word_zeroed(self):
        param, memory = _memory()
        check = WeightRangeCheck(memory)
        # Flip the exponent MSB of word 5 -> value explodes out of range.
        bit = 5 * 32 + 30
        effective = check.filter(FaultSet.flips(np.asarray([bit])))
        # The word is zeroed: 32 stuck-at-0 entries covering word 5.
        assert len(effective) == 32
        assert (effective.operations == OP_STUCK0).all()
        assert (effective.bit_indices // 32 == 5).all()

    def test_in_range_flip_passes_through(self):
        param, memory = _memory()
        check = WeightRangeCheck(memory)
        # Mantissa LSB flip keeps the value in range.
        bit = 5 * 32 + 0
        effective = check.filter(FaultSet.flips(np.asarray([bit])))
        assert len(effective) == 1
        assert effective.operations[0] == OP_FLIP
        assert effective.bit_indices[0] == bit

    def test_sign_flip_in_range_passes(self):
        param, memory = _memory([0.3, -0.3])
        check = WeightRangeCheck(memory)
        effective = check.filter(FaultSet.flips(np.asarray([31])))  # sign of w0
        assert len(effective) == 1

    def test_multi_bit_same_word_evaluated_jointly(self):
        param, memory = _memory([0.25] * 4)
        check = WeightRangeCheck(memory)
        # Two flips on the same word whose combined effect stays in range:
        # flipping mantissa LSB twice-ish -> use two distinct low bits.
        value = float(param.data[0])
        corrupted = flip_scalar_bit(flip_scalar_bit(value, 0), 1)
        expected_in_range = abs(corrupted) <= check.bounds()["p"]
        effective = check.filter(FaultSet.flips(np.asarray([0, 1])))
        if expected_in_range:
            assert len(effective) == 2
        else:
            assert (effective.operations == OP_STUCK0).all()

    def test_empty_fault_set(self):
        _, memory = _memory()
        check = WeightRangeCheck(memory)
        assert len(check.filter(FaultSet.empty())) == 0

    def test_sample_effective_requires_same_memory(self):
        _, memory = _memory()
        _, other = _memory(seed=1)
        check = WeightRangeCheck(memory)
        with pytest.raises(ValueError):
            check.sample_effective(other, 1e-3, np.random.default_rng(0))

    def test_invalid_margin(self):
        _, memory = _memory()
        with pytest.raises(ValueError):
            WeightRangeCheck(memory, margin=0.0)

    def test_campaign_improves_over_unprotected(self, trained_mlp, mlp_eval_arrays):
        """End to end: the range check recovers most of the accuracy that
        exponent flips would otherwise destroy."""
        images, labels = mlp_eval_arrays
        memory = WeightMemory.from_model(trained_mlp)
        check = WeightRangeCheck(memory, margin=1.0)
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=4, seed=3)

        unprotected = run_campaign(trained_mlp, memory, images, labels, config)
        protected = run_campaign(
            trained_mlp, memory, images, labels, config,
            sampler=check.sample_effective,
        )
        assert protected.auc() > unprotected.auc() + 0.05
        assert protected.mean_accuracies()[-1] > unprotected.mean_accuracies()[-1]
