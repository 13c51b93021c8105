"""Tests for Conv2d: forward against a naive reference, backward against
numerical gradients, and the eval-mode per-image lowering against the
training-mode im2col path, bit for bit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.nn.conv as conv_module
from repro import nn
from repro.experiments import EXPERIMENT_CONFIGS
from repro.models.registry import build_model
from repro.utils.blas import set_blas_threads
from tests.conftest import numerical_gradient
from tests.test_nn_pooling import _WORDS, _bits


def naive_conv2d(x, weight, bias, stride, padding):
    """Direct-loop cross-correlation reference."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    for b in range(n):
        for o in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[b, o, i, j] = float((patch * weight[o]).sum())
            if bias is not None:
                out[b, o] += bias[o]
    return out.astype(np.float32)


class TestConvForward:
    @pytest.mark.parametrize(
        "stride,padding", [((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (0, 1))]
    )
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(3, 4, 3, stride=stride, padding=padding, seed=1)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        want = naive_conv2d(
            x, conv.weight.data, conv.bias.data, conv.stride, conv.padding
        )
        np.testing.assert_allclose(conv(x), want, rtol=1e-4, atol=1e-5)

    def test_no_bias(self):
        conv = nn.Conv2d(2, 3, 3, bias=False, seed=0)
        assert conv.bias is None
        x = np.random.default_rng(0).standard_normal((1, 2, 5, 5)).astype(np.float32)
        want = naive_conv2d(x, conv.weight.data, None, conv.stride, conv.padding)
        np.testing.assert_allclose(conv(x), want, rtol=1e-4, atol=1e-5)

    def test_wrong_channels_rejected(self):
        conv = nn.Conv2d(3, 4, 3, seed=0)
        with pytest.raises(ValueError, match="input channels"):
            conv(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_wrong_ndim_rejected(self):
        conv = nn.Conv2d(3, 4, 3, seed=0)
        with pytest.raises(ValueError, match="NCHW"):
            conv(np.zeros((3, 8, 8), dtype=np.float32))

    def test_output_shape(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1, seed=0)
        out = conv(np.zeros((4, 3, 32, 32), dtype=np.float32))
        assert out.shape == (4, 8, 16, 16)

    def test_deterministic_init(self):
        a = nn.Conv2d(3, 4, 3, seed=7)
        b = nn.Conv2d(3, 4, 3, seed=7)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestConvBackward:
    def _setup(self):
        conv = nn.Conv2d(2, 3, 3, stride=1, padding=1, seed=0)
        conv.train()
        x = np.random.default_rng(3).standard_normal((2, 2, 5, 5)).astype(np.float32) * 0.5
        return conv, x

    def test_input_gradient_numerical(self):
        conv, x = self._setup()

        def loss(x_in):
            conv_eval = nn.Conv2d(2, 3, 3, stride=1, padding=1, seed=0)
            conv_eval.eval()
            return float((conv_eval(x_in) ** 2).sum() / 2.0)

        out = conv(x)
        grad_in = conv.backward(out)  # d/dx of sum(out^2)/2 is backward(out)
        numeric = numerical_gradient(loss, x, eps=1e-2)
        np.testing.assert_allclose(grad_in, numeric, rtol=5e-2, atol=5e-2)

    def test_weight_gradient_numerical(self):
        conv, x = self._setup()
        out = conv(x)
        conv.backward(out)
        analytic = conv.weight.grad.copy()

        base_weight = conv.weight.data.copy()

        def loss(weight):
            probe = nn.Conv2d(2, 3, 3, stride=1, padding=1, seed=0)
            probe.weight.data = weight.astype(np.float32)
            probe.bias.data = conv.bias.data
            probe.eval()
            return float((probe(x) ** 2).sum() / 2.0)

        numeric = numerical_gradient(loss, base_weight, eps=1e-2)
        np.testing.assert_allclose(analytic, numeric, rtol=5e-2, atol=5e-2)

    def test_bias_gradient_is_output_sum(self):
        conv, x = self._setup()
        out = conv(x)
        grad_out = np.ones_like(out)
        conv.backward(grad_out)
        np.testing.assert_allclose(
            conv.bias.grad, grad_out.sum(axis=(0, 2, 3)), rtol=1e-5
        )

    def test_backward_before_forward_raises(self):
        conv = nn.Conv2d(2, 3, 3, seed=0)
        conv.train()
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 3, 3, 3), dtype=np.float32))

    def test_eval_mode_does_not_cache(self):
        conv = nn.Conv2d(2, 3, 3, seed=0)
        conv.eval()
        conv(np.zeros((1, 2, 5, 5), dtype=np.float32))
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 3, 3, 3), dtype=np.float32))


class TestConvValidation:
    def test_bad_padding_rejected(self):
        with pytest.raises(ValueError):
            nn.Conv2d(1, 1, 3, padding=-1)

    def test_bad_channels_rejected(self):
        with pytest.raises(ValueError):
            nn.Conv2d(0, 1, 3)

    def test_extra_repr(self):
        text = repr(nn.Conv2d(3, 8, 3, stride=2, seed=0))
        assert "stride=(2, 2)" in text


def _engaged_zoo_layers():
    """``(name, conv, input CHW)`` for every zoo conv that eval lowers per image."""
    engaged = []
    for model_name, config in sorted(EXPERIMENT_CONFIGS.items()):
        model = build_model(config.model, width_mult=config.width_mult).eval()
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        convs = 0
        for layer in model:
            if isinstance(layer, nn.Conv2d):
                convs += 1
                if layer._per_image_rows(x.shape) >= conv_module.PER_IMAGE_MIN_ROWS:
                    engaged.append((f"{model_name}/CONV-{convs}", layer, x.shape[1:]))
            x = layer(x)
    return engaged


ENGAGED = _engaged_zoo_layers()


def _scatter_words(rng, shape, words, density):
    """Normal float32 values with ``density`` of them replaced by ``words``."""
    values = rng.standard_normal(shape).astype(np.float32)
    hits = rng.random(shape) < density
    values.view(np.uint32)[hits] = rng.choice(
        np.asarray(words, dtype=np.uint32), int(hits.sum())
    )
    return values


@st.composite
def _engaged_cases(draw):
    """An engaged zoo geometry, a batch size, and special-word inputs."""
    _name, layer, chw = draw(st.sampled_from(ENGAGED))
    n = draw(st.sampled_from((1, 3, 32, 129)))
    words = draw(st.lists(_WORDS, min_size=1, max_size=24))
    density = draw(st.sampled_from((0.0, 1e-4, 1e-2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conv = nn.Conv2d(
        layer.in_channels, layer.out_channels, layer.kernel_size,
        padding=layer.padding, seed=0,
    )
    conv.weight.data = _scatter_words(rng, conv.weight.data.shape, words, density)
    conv.bias.data = _scatter_words(rng, conv.bias.data.shape, words, density)
    x = _scatter_words(rng, (n, *chw), words, density)
    return conv, x


class TestPerImageLowering:
    """Eval lowers each image of an engaged layer separately; training
    and strided or small-plane layers keep the batched im2col GEMM."""

    def test_engages_on_the_large_zoo_planes(self):
        assert [name for name, _layer, _chw in ENGAGED] == [
            "alexnet/CONV-1", "alexnet/CONV-2",
            "lenet5/CONV-1", "lenet5/CONV-2",
            "vgg16/CONV-1", "vgg16/CONV-2", "vgg16/CONV-3", "vgg16/CONV-4",
        ]

    @pytest.mark.parametrize("padding", [(0, 0), (1, 1), (0, 2)])
    def test_eval_matches_naive(self, padding):
        conv = nn.Conv2d(3, 4, (3, 5), padding=padding, seed=1).eval()
        x = np.random.default_rng(0).standard_normal((2, 3, 14, 17)).astype(np.float32)
        assert conv._per_image_rows(x.shape) >= conv_module.PER_IMAGE_MIN_ROWS
        want = naive_conv2d(
            x, conv.weight.data, conv.bias.data, conv.stride, conv.padding
        )
        np.testing.assert_allclose(conv(x), want, rtol=1e-4, atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(_engaged_cases())
    def test_eval_equals_training_bitwise(self, case):
        """Finite values and zero signs match bit for bit; NaN lands in
        the same places (its payload may differ)."""
        conv, x = case
        with np.errstate(all="ignore"):
            trained = conv.train()(x)
            evaluated = conv.eval()(x)
        nan = np.isnan(trained)
        np.testing.assert_array_equal(np.isnan(evaluated), nan)
        np.testing.assert_array_equal(_bits(evaluated)[~nan], _bits(trained)[~nan])

    @pytest.mark.parametrize("index", range(len(ENGAGED)))
    def test_bytes_equal_at_one_and_two_blas_threads(self, index):
        _name, layer, chw = ENGAGED[index]
        rng = np.random.default_rng(index)
        words = [0x7FC0BEEF, 0xFFC01234, 0x7F800001, 0x80000000, 0x7F800000]
        x = _scatter_words(rng, (32, *chw), words, 1e-3)
        previous = set_blas_threads(1)
        if previous is None:
            pytest.skip("no OpenBLAS thread control in this process")
        try:
            with np.errstate(all="ignore"):
                one = layer(x)
                set_blas_threads(2)
                two = layer(x)
        finally:
            set_blas_threads(previous)
        assert np.isnan(one).any()
        assert one.tobytes() == two.tobytes()

    def test_lenet_conv1_peak_memory_is_one_images_buffer(self):
        """The batched patch matrix of LeNet-5 conv1 at 128 images is
        30.1 MB; the per-image lowering peaks far below it."""
        layer = next(layer for name, layer, _ in ENGAGED if name == "lenet5/CONV-1")
        x = np.zeros((128, 3, 32, 32), dtype=np.float32)
        matrix_bytes = 128 * 28 * 28 * 3 * 5 * 5 * 4
        tracemalloc.start()
        try:
            layer(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes / 4

    @pytest.mark.parametrize(
        "conv,shape,training",
        [
            (nn.Conv2d(3, 8, 3, stride=2, padding=1, seed=0), (2, 3, 32, 32), False),
            (nn.Conv2d(8, 8, 3, padding=1, seed=0), (2, 8, 4, 4), False),
            (nn.Conv2d(3, 1, 3, padding=1, seed=0), (2, 3, 32, 32), False),
            (nn.Conv2d(3, 8, 3, padding=1, seed=0), (2, 3, 32, 32), True),
        ],
        ids=["stride-2", "4x4-plane", "one-output-channel", "training"],
    )
    def test_routes_through_im2col(self, conv, shape, training, monkeypatch):
        calls = []
        im2col = conv_module.im2col
        monkeypatch.setattr(
            conv_module, "im2col", lambda *args: calls.append(1) or im2col(*args)
        )
        monkeypatch.setattr(conv_module, "conv2d_per_image", None)
        conv.train(training)
        conv(np.ones(shape, dtype=np.float32))
        assert calls == [1]

    def test_eval_of_a_large_plane_skips_im2col(self, monkeypatch):
        monkeypatch.setattr(conv_module, "im2col", None)
        conv = nn.Conv2d(3, 8, 3, padding=1, seed=0).eval()
        assert conv(np.ones((2, 3, 32, 32), dtype=np.float32)).shape == (2, 8, 32, 32)

    def test_an_images_output_does_not_depend_on_its_batch(self):
        conv = nn.Conv2d(3, 6, 5, seed=0).eval()
        x = np.random.default_rng(1).standard_normal((5, 3, 32, 32)).astype(np.float32)
        batched = conv(x)
        for index in range(x.shape[0]):
            alone = conv(x[index : index + 1])
            assert alone.tobytes() == batched[index : index + 1].tobytes()
