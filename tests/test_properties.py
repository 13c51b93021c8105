"""Hypothesis property tests on cross-cutting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core.clipped import ClampedReLU, ClippedReLU
from repro.core.finetune import FineTuneConfig, fine_tune_threshold
from repro.core.metrics import auc_resilience
from repro.hw.bits import flip_bits_in_words
from repro.hw.faultmodels import FaultSet, RandomBitFlip
from repro.hw.injector import FaultInjector
from tests.oracles import bits_to_float, float_to_bits, hamming_decode, hamming_encode
from tests.helpers import weight_memory


class TestInjectorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        rate=st.floats(1e-4, 5e-2),
        words=st.integers(8, 256),
    )
    def test_inject_restore_roundtrip(self, seed, rate, words):
        """inject followed by restore is always the exact identity."""
        rng = np.random.default_rng(seed)
        param = nn.Parameter(rng.standard_normal(words).astype(np.float32))
        original = param.data.copy()
        memory = weight_memory([("p", param)])
        injector = FaultInjector(memory)
        with injector.session(RandomBitFlip(rate), rng=seed):
            pass
        np.testing.assert_array_equal(param.data, original)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), words=st.integers(4, 64))
    def test_fault_count_matches_changed_bits(self, seed, words):
        """Flipping k distinct bits changes exactly k bits of the memory."""
        rng = np.random.default_rng(seed)
        param = nn.Parameter(rng.standard_normal(words).astype(np.float32))
        memory = weight_memory([("p", param)])
        injector = FaultInjector(memory)
        before = float_to_bits(param.data.copy())
        k = min(10, words * 32)
        bits = rng.choice(words * 32, size=k, replace=False).astype(np.int64)
        record = injector.inject(FaultSet.flips(bits))
        after = float_to_bits(param.data)
        changed = 0
        for b, a in zip(before, after):
            changed = changed + int(b ^ a).bit_count()
        assert changed == k
        injector.restore(record)


class TestClippedActivationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=30
        ),
        threshold=st.floats(0.01, 1e6),
    )
    def test_clip_never_exceeds_clamp(self, values, threshold):
        """Pointwise: clip(x) <= clamp(x) <= T and both are >= 0."""
        x = np.asarray(values, dtype=np.float32)
        clipped = ClippedReLU(threshold)(x)
        clamped = ClampedReLU(threshold)(x)
        assert (clipped <= clamped + 1e-6).all()
        assert (clamped <= np.float32(threshold) + 1e-6).all()
        assert (clipped >= 0).all() and (clamped >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(-100, 100, width=32, allow_nan=False), min_size=1, max_size=30
        ),
        t_small=st.floats(0.1, 10.0),
        t_big=st.floats(10.0, 1000.0),
    )
    def test_larger_threshold_passes_superset(self, values, t_small, t_big):
        """Raising T never zeroes a previously-passed activation."""
        x = np.asarray(values, dtype=np.float32)
        small = ClippedReLU(t_small)(x)
        big = ClippedReLU(t_big)(x)
        passed_small = small > 0
        np.testing.assert_array_equal(big[passed_small], x[passed_small])


class TestHammingProperties:
    @settings(max_examples=40, deadline=None)
    @given(word=st.integers(0, 2**32 - 1))
    def test_encode_decode_identity(self, word):
        check = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
        result = hamming_decode(word, check)
        assert result.data == word and not result.corrected

    @settings(max_examples=40, deadline=None)
    @given(word=st.integers(0, 2**32 - 1), bit=st.integers(0, 38))
    def test_any_single_codeword_error_handled(self, word, bit):
        """Any single-bit error — data, Hamming, or parity bit — is either
        corrected or leaves the data intact; never a silent corruption."""
        check = int(hamming_encode(np.asarray([word], dtype=np.uint32))[0])
        if bit < 32:
            result = hamming_decode(word ^ (1 << bit), check)
        else:
            result = hamming_decode(word, check ^ (1 << (bit - 32)))
        assert not result.detected_uncorrectable
        assert result.data == word


class TestAUCProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        accs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
        bump=st.floats(0.0, 0.3),
        index=st.integers(0, 11),
    )
    def test_auc_monotone_pointwise(self, accs, bump, index):
        """Raising any accuracy point never lowers the AUC."""
        rates = np.logspace(-8, -4, len(accs))
        base = np.asarray(accs)
        raised = base.copy()
        i = index % len(accs)
        raised[i] = min(1.0, raised[i] + bump)
        assert auc_resilience(rates, raised) >= auc_resilience(rates, base) - 1e-12


class TestIntervalSearchProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        peak=st.floats(0.5, 9.5),
        act_max=st.floats(10.0, 100.0),
    )
    def test_result_always_within_search_interval(self, peak, act_max):
        config = FineTuneConfig(max_iterations=6, min_iterations=2, tolerance=0.0)
        evaluator = lambda t: float(np.exp(-(((t - peak) / 2.0) ** 2)))
        result = fine_tune_threshold(evaluator, act_max=act_max, config=config)
        assert 0.0 <= result.threshold <= act_max
        assert result.iterations <= config.max_iterations

    @settings(max_examples=20, deadline=None)
    @given(peak=st.floats(1.0, 9.0))
    def test_more_iterations_never_worse(self, peak):
        """Extra interval-search iterations never reduce the found AUC."""
        evaluator = lambda t: float(np.exp(-(((t - peak) / 1.5) ** 2)))
        short = fine_tune_threshold(
            evaluator, 10.0,
            FineTuneConfig(max_iterations=2, min_iterations=2, tolerance=0.0),
        )
        long = fine_tune_threshold(
            evaluator, 10.0,
            FineTuneConfig(max_iterations=8, min_iterations=8, tolerance=0.0),
        )
        assert long.auc >= short.auc - 1e-12


class TestFlipProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 500),
        words=st.integers(1, 64),
    )
    def test_flip_is_involution(self, seed, words):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(words).astype(np.float32)
        original = values.copy()
        k = rng.integers(1, words * 32)
        bits = rng.choice(words * 32, size=int(k), replace=False)
        word_idx = (bits // 32).astype(np.int64)
        bit_pos = (bits % 32).astype(np.int64)
        flip_bits_in_words(values, word_idx, bit_pos)
        flip_bits_in_words(values, word_idx, bit_pos)
        np.testing.assert_array_equal(values, original)


def _random_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniformly random uint32 words: every float32 bit pattern, including
    ±0, ±inf, denormals and NaNs with arbitrary mantissa payloads."""
    return rng.integers(0, 2**32, size=count, dtype=np.uint64).astype(np.uint32)


class TestBitsRoundTripProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1000), count=st.integers(1, 128))
    def test_words_to_float_to_words_identity(self, seed, count):
        """bits_to_float / float_to_bits round-trips *any* bit pattern,
        NaN payloads included (word comparison sees through NaN != NaN)."""
        words = _random_words(np.random.default_rng(seed), count)
        np.testing.assert_array_equal(float_to_bits(bits_to_float(words)), words)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1000), count=st.integers(1, 128))
    def test_float_to_words_to_float_bit_identity(self, seed, count):
        values = np.random.default_rng(seed).standard_normal(count).astype(np.float32)
        round_tripped = bits_to_float(float_to_bits(values))
        np.testing.assert_array_equal(
            round_tripped.view(np.uint32), values.view(np.uint32)
        )

    def test_special_values_round_trip(self):
        """±0, ±inf and NaNs with distinct payloads survive bit-exactly."""
        specials = np.asarray(
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45], dtype=np.float32
        )
        payload_nans = bits_to_float(
            np.asarray([0x7FC00001, 0x7F800123, 0xFFC0ABCD], dtype=np.uint32)
        )
        values = np.concatenate([specials, payload_nans])
        words = float_to_bits(values)
        np.testing.assert_array_equal(
            bits_to_float(words).view(np.uint32), values.view(np.uint32)
        )
        # Signed zeros and NaN payloads are distinct at the word level.
        assert words[0] != words[1]
        assert len({int(w) for w in float_to_bits(payload_nans)}) == 3

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1000), count=st.integers(1, 64))
    def test_flip_twice_is_identity_on_any_pattern(self, seed, count):
        """Involution must hold even when flips create or destroy NaNs/infs."""
        rng = np.random.default_rng(seed)
        values = bits_to_float(_random_words(rng, count))
        original_words = values.view(np.uint32).copy()
        k = int(rng.integers(1, count * 32 + 1))
        bits = rng.choice(count * 32, size=k, replace=False)
        word_idx = (bits // 32).astype(np.int64)
        bit_pos = (bits % 32).astype(np.int64)
        flip_bits_in_words(values, word_idx, bit_pos)
        flip_bits_in_words(values, word_idx, bit_pos)
        np.testing.assert_array_equal(values.view(np.uint32), original_words)


class TestQuantizedMemoryProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 300), words=st.integers(4, 128), rate=st.floats(0.0, 0.1))
    def test_deploy_session_roundtrip(self, seed, words, rate):
        """deployed() + session() always restore the exact float weights."""
        from repro.hw.quant import QuantizedWeightMemory

        rng = np.random.default_rng(seed)
        param = nn.Parameter(rng.standard_normal(words).astype(np.float32))
        original = param.data.copy()
        quantized = QuantizedWeightMemory(
            weight_memory([("p", param)])
        )
        with quantized.deployed():
            with quantized.session(rate, seed):
                pass
        np.testing.assert_array_equal(param.data, original)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 300), words=st.integers(4, 64))
    def test_corruption_always_bounded(self, seed, words):
        """No int8-domain fault can exceed the 128/127-scaled max weight."""
        from repro.hw.quant import QuantizedWeightMemory

        rng = np.random.default_rng(seed)
        param = nn.Parameter(rng.standard_normal(words).astype(np.float32))
        bound = float(np.abs(param.data).max()) * (128.0 / 127.0) + 1e-6
        quantized = QuantizedWeightMemory(
            weight_memory([("p", param)])
        )
        with quantized.deployed():
            with quantized.session(0.2, seed):
                assert float(np.abs(param.data).max()) <= bound


class TestRangeCheckProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 300), rate=st.floats(1e-4, 2e-2))
    def test_survivors_keep_weights_in_range(self, seed, rate):
        """After the range-check filter, injected weights never exceed the
        profiled bound (the filter's defining guarantee)."""
        from repro.hw.injector import FaultInjector
        from repro.hw.rangecheck import WeightRangeCheck

        rng = np.random.default_rng(seed)
        param = nn.Parameter(
            rng.uniform(-0.5, 0.5, size=200).astype(np.float32)
        )
        memory = weight_memory([("p", param)])
        check = WeightRangeCheck(memory, margin=1.0)
        bound = check.bounds()["p"]
        effective = check.sample_effective(memory, rate, rng)
        injector = FaultInjector(memory)
        with injector.apply(effective):
            assert float(np.abs(param.data).max()) <= bound + 1e-6
            assert np.isfinite(param.data).all()
