"""Model architectures (AlexNet, VGG-16, LeNet-5, MLP) and the zoo."""

from repro.models.alexnet import CifarAlexNet, build_alexnet
from repro.models.lenet import LeNet5, build_lenet5
from repro.models.mlp import MLP, build_mlp
from repro.models.registry import (
    MODEL_BUILDERS,
    build_model,
    computational_layers,
    layer_names,
)
from repro.models.vgg import VGG16_PLAN, CifarVGG16, build_vgg16
from repro.models.zoo import PretrainedBundle, ZooConfig, get_pretrained, train_model

__all__ = [
    "CifarAlexNet",
    "CifarVGG16",
    "LeNet5",
    "MLP",
    "MODEL_BUILDERS",
    "PretrainedBundle",
    "VGG16_PLAN",
    "ZooConfig",
    "build_alexnet",
    "build_lenet5",
    "build_mlp",
    "build_model",
    "build_vgg16",
    "computational_layers",
    "get_pretrained",
    "layer_names",
    "train_model",
]
