"""Tests for the int8 quantized weight memory."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import nn
from repro.hw.memory import WeightMemory
from repro.hw.quant import (
    INT8_BITS,
    QuantizedWeightMemory,
    dequantize_symmetric,
    quantize_symmetric,
)
from tests.helpers import weight_memory


class TestSymmetricQuantization:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(1000).astype(np.float32)
        codes, scale = quantize_symmetric(values)
        restored = dequantize_symmetric(codes, scale)
        assert np.abs(restored - values).max() <= scale / 2 + 1e-7

    def test_codes_in_range(self):
        values = np.asarray([-10.0, 0.0, 10.0], dtype=np.float32)
        codes, scale = quantize_symmetric(values)
        assert codes.dtype == np.int8
        assert codes.min() >= -127 and codes.max() <= 127
        assert codes[2] == 127 and codes[0] == -127

    def test_zero_tensor(self):
        codes, scale = quantize_symmetric(np.zeros(5, dtype=np.float32))
        assert scale == 1.0
        assert (codes == 0).all()

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e3, 1e3, width=32, allow_nan=False), min_size=1, max_size=50
        )
    )
    # Subnormal maxima: float32 holds their scale only as a multiple of
    # 2**-149 (the first one's scale used to round to 0 there).
    @example(values=[2.0**-149])
    @example(values=[190 * 2.0**-149, -(2.0**-149)])
    def test_property_error_within_half_step(self, values):
        array = np.asarray(values, dtype=np.float32)
        codes, scale = quantize_symmetric(array)
        restored = dequantize_symmetric(codes, scale)
        assert np.abs(restored - array).max() <= scale / 2 + 1e-6 * scale


def _setup(words=200, seed=0):
    rng = np.random.default_rng(seed)
    param = nn.Parameter(rng.standard_normal(words).astype(np.float32))
    memory = weight_memory([("p", param)])
    return param, memory, QuantizedWeightMemory(memory)


class TestQuantizedWeightMemory:
    def test_total_bits(self):
        _, memory, quantized = _setup(100)
        assert quantized.total_bits == 100 * INT8_BITS

    def test_deployed_replaces_and_restores(self):
        param, _, quantized = _setup()
        original = param.data.copy()
        with quantized.deployed():
            # Weights now carry quantization error but stay close.
            assert not np.array_equal(param.data, original)
            assert np.abs(param.data - original).max() < 0.1
        np.testing.assert_array_equal(param.data, original)

    def test_nested_deploy_rejected(self):
        _, _, quantized = _setup()
        with quantized.deployed():
            with pytest.raises(RuntimeError):
                quantized.deployed().__enter__()

    def test_session_requires_deploy(self):
        _, _, quantized = _setup()
        with pytest.raises(RuntimeError):
            with quantized.session(0.01, 0):
                pass

    def test_session_flips_and_restores(self):
        param, _, quantized = _setup()
        with quantized.deployed():
            deployed_values = param.data.copy()
            with quantized.session(0.05, 3) as flips:
                assert flips > 0
                assert not np.array_equal(param.data, deployed_values)
            np.testing.assert_array_equal(param.data, deployed_values)

    def test_fault_magnitude_bounded(self):
        """The int8 punchline: no fault can exceed ~2x the max weight."""
        param, _, quantized = _setup()
        max_abs = float(np.abs(param.data).max())
        with quantized.deployed():
            with quantized.session(0.05, 7):
                # -128 * scale is the worst representable corrupted value.
                assert float(np.abs(param.data).max()) <= max_abs * (128 / 127) + 1e-5

    def test_rate_zero_no_flips(self):
        param, _, quantized = _setup()
        with quantized.deployed():
            before = param.data.copy()
            with quantized.session(0.0, 0) as flips:
                assert flips == 0
                np.testing.assert_array_equal(param.data, before)

    def test_deterministic_given_seed(self):
        param, _, quantized = _setup()
        results = []
        for _ in range(2):
            with quantized.deployed():
                with quantized.session(0.02, 11):
                    results.append(param.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_scales_reported(self):
        _, _, quantized = _setup()
        scales = quantized.scales()
        assert set(scales) == {"p"}
        assert scales["p"] > 0


class TestQuantizedCampaign:
    def test_int8_more_resilient_than_float32(self, trained_mlp, mlp_eval_arrays):
        """The ablation claim: bounded int8 corruption degrades accuracy far
        more gracefully than float32 exponent flips at the same rate."""
        from repro.core.campaign import CampaignConfig, run_campaign
        from repro.core.quantized import run_quantized_campaign
        from repro.experiments import clone_model  # noqa: F401 (API parity)

        images, labels = mlp_eval_arrays
        memory = WeightMemory.from_model(trained_mlp)
        config = CampaignConfig(fault_rates=(1e-4, 1e-3), trials=4, seed=5)

        float_curve = run_campaign(trained_mlp, memory, images, labels, config)
        int8_curve = run_quantized_campaign(
            trained_mlp, memory, images, labels, config
        )
        # Quantization costs little clean accuracy...
        assert int8_curve.clean_accuracy >= float_curve.clean_accuracy - 0.05
        # ...and is dramatically more robust at damaging rates.
        assert int8_curve.mean_accuracies()[-1] > float_curve.mean_accuracies()[-1]
        assert int8_curve.auc() > float_curve.auc()

    def test_weights_restored_after_campaign(self, trained_mlp, mlp_eval_arrays):
        from repro.core.campaign import CampaignConfig
        from repro.core.quantized import run_quantized_campaign

        images, labels = mlp_eval_arrays
        memory = WeightMemory.from_model(trained_mlp)
        before = trained_mlp.state_dict()
        run_quantized_campaign(
            trained_mlp,
            memory,
            images,
            labels,
            CampaignConfig(fault_rates=(1e-3,), trials=2, seed=0),
        )
        after = trained_mlp.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])


class TestFaultSetApply:
    """FaultSet-aware injection in the int8 code space (scenario support)."""

    def test_word_space_attributes(self):
        _, _, quantized = _setup(100)
        assert quantized.total_words == 100
        assert quantized.bits_per_word == INT8_BITS

    def test_flip_faultset_equals_bit_indices(self):
        from repro.hw.faultmodels import FaultSet

        param, _, quantized = _setup(64, seed=1)
        bits = np.asarray([3, 17, 200, 511], dtype=np.int64)
        with quantized.deployed():
            with quantized.apply(bits):
                via_indices = param.data.copy()
            with quantized.apply(FaultSet.flips(bits)):
                via_fault_set = param.data.copy()
        assert np.array_equal(via_indices, via_fault_set)

    def test_stuck_at_ops_force_bits(self):
        from repro.hw.faultmodels import OP_STUCK0, OP_STUCK1, FaultSet

        _, _, quantized = _setup(32, seed=2)
        region = quantized._regions[0]
        code_index, bit = 5, 6
        global_bit = code_index * INT8_BITS + bit
        with quantized.deployed():
            for op, expected in ((OP_STUCK1, 1), (OP_STUCK0, 0)):
                faults = FaultSet(
                    np.asarray([global_bit], dtype=np.int64),
                    np.asarray([op], dtype=np.uint8),
                )
                with quantized.apply(faults):
                    stored = int(region.codes.view(np.uint8)[code_index])
                    assert (stored >> bit) & 1 == expected

    def test_stuck_at_agreeing_bit_is_benign(self):
        from repro.hw.faultmodels import OP_STUCK0, OP_STUCK1, FaultSet

        param, _, quantized = _setup(64, seed=3)
        region = quantized._regions[0]
        with quantized.deployed():
            baseline = param.data.copy()
            view = region.codes.view(np.uint8)
            code_index = 11
            for bit in range(INT8_BITS):
                held = (int(view[code_index]) >> bit) & 1
                op = OP_STUCK1 if held else OP_STUCK0
                faults = FaultSet(
                    np.asarray([code_index * INT8_BITS + bit], dtype=np.int64),
                    np.asarray([op], dtype=np.uint8),
                )
                with quantized.apply(faults):
                    assert np.array_equal(param.data, baseline)

    def test_mixed_ops_restore_exactly(self):
        from repro.hw.faultmodels import (
            OP_FLIP,
            OP_STUCK0,
            OP_STUCK1,
            FaultSet,
        )

        param, _, quantized = _setup(128, seed=4)
        rng = np.random.default_rng(9)
        bits = np.sort(
            rng.choice(quantized.total_bits, size=24, replace=False)
        ).astype(np.int64)
        ops = rng.choice([OP_FLIP, OP_STUCK0, OP_STUCK1], size=24).astype(np.uint8)
        with quantized.deployed():
            deployed = param.data.copy()
            codes_before = quantized._regions[0].codes.copy()
            with quantized.apply(FaultSet(bits, ops)):
                pass
            assert np.array_equal(param.data, deployed)
            assert np.array_equal(quantized._regions[0].codes, codes_before)

    def test_affected_layers_accepts_fault_set(self):
        from repro.hw.faultmodels import FaultSet

        _, _, quantized = _setup(16, seed=5)
        assert quantized.affected_layers(FaultSet.flips(np.asarray([0]))) == ["p"]
        assert quantized.affected_layers(FaultSet.empty()) == []
