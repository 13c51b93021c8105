"""Tests for the model architectures and registry."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    MODEL_BUILDERS,
    CifarAlexNet,
    CifarVGG16,
    LeNet5,
    MLP,
    build_model,
    computational_layers,
    layer_names,
)


class TestAlexNet:
    def test_layer_structure_matches_paper(self):
        """Paper Section V-A: AlexNet has 5 CONV and 3 FC layers."""
        model = CifarAlexNet(width_mult=0.25, seed=0)
        names = layer_names(model)
        assert names == [
            "CONV-1", "CONV-2", "CONV-3", "CONV-4", "CONV-5",
            "FC-1", "FC-2", "FC-3",
        ]

    def test_forward_shape(self):
        model = CifarAlexNet(width_mult=0.25, seed=0)
        model.eval()
        out = model(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.shape == (2, 10)

    def test_width_mult_scales_parameters(self):
        small = CifarAlexNet(width_mult=0.125, seed=0).num_parameters()
        large = CifarAlexNet(width_mult=0.5, seed=0).num_parameters()
        assert large > 4 * small

    def test_deterministic_construction(self):
        a = CifarAlexNet(width_mult=0.25, seed=3)
        b = CifarAlexNet(width_mult=0.25, seed=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            CifarAlexNet(image_size=4)


class TestVGG16:
    def test_layer_structure_matches_paper(self):
        """Paper Section V-A: base VGG-16 has 13 CONV and 1 FC layer."""
        model = CifarVGG16(width_mult=0.125, seed=0)
        names = layer_names(model)
        conv = [n for n in names if n.startswith("CONV")]
        fc = [n for n in names if n.startswith("FC")]
        assert len(conv) == 13
        assert fc == ["FC-1"]

    def test_forward_shape(self):
        model = CifarVGG16(width_mult=0.125, seed=0)
        model.eval()
        out = model(np.zeros((2, 3, 32, 32), dtype=np.float32))
        assert out.shape == (2, 10)

    def test_batchnorm_optional(self):
        with_bn = CifarVGG16(width_mult=0.125, batch_norm=True, seed=0)
        without_bn = CifarVGG16(width_mult=0.125, batch_norm=False, seed=0)
        bn_count = sum(isinstance(m, nn.BatchNorm2d) for m in with_bn.modules())
        assert bn_count == 13
        assert not any(isinstance(m, nn.BatchNorm2d) for m in without_bn.modules())

    def test_trainable_forward_backward(self):
        model = CifarVGG16(width_mult=0.0625, seed=0)
        model.train()
        x = np.random.default_rng(0).random((4, 3, 32, 32)).astype(np.float32)
        out = model(x)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestLeNet:
    def test_structure(self):
        model = LeNet5(seed=0)
        names = layer_names(model)
        assert names == ["CONV-1", "CONV-2", "FC-1", "FC-2", "FC-3"]

    def test_forward_shape(self):
        model = LeNet5(seed=0)
        model.eval()
        assert model(np.zeros((1, 3, 32, 32), dtype=np.float32)).shape == (1, 10)


class TestMLP:
    def test_structure_and_shapes(self):
        model = MLP(16, 4, hidden=(8, 8), seed=0)
        model.eval()
        out = model(np.zeros((3, 1, 4, 4), dtype=np.float32))
        assert out.shape == (3, 4)
        assert layer_names(model) == ["FC-1", "FC-2", "FC-3"]

    def test_invalid_hidden_rejected(self):
        with pytest.raises(ValueError):
            MLP(16, 4, hidden=(0,))


class TestRegistry:
    def test_all_builders_construct(self):
        for name in MODEL_BUILDERS:
            model = build_model(name, width_mult=0.125, seed=0)
            assert isinstance(model, nn.Module)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("resnet50")

    def test_computational_layers_returns_modules(self):
        model = LeNet5(seed=0)
        pairs = computational_layers(model)
        assert all(isinstance(m, (nn.Conv2d, nn.Linear)) for _, m in pairs)
        assert [n for n, _ in pairs] == layer_names(model)
