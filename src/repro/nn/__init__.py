"""Pure-numpy neural-network framework (the paper's PyTorch substitute).

Provides modules, containers, activations, normalization, losses and
initialization — everything needed to build, train and run the AlexNet and
VGG-16 topologies the paper evaluates.
"""

from repro.nn.activations import (
    Activation,
    Identity,
    LeakyReLU,
    ReLU,
    ReLU6,
    Softmax,
)
from repro.nn.batchnorm import BatchNorm2d
from repro.nn.conv import Conv2d
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import HookHandle, Module, Parameter
from repro.nn.pooling import MaxPool2d
from repro.nn.sequential import Sequential

__all__ = [
    "Activation",
    "BatchNorm2d",
    "Conv2d",
    "CrossEntropyLoss",
    "Dropout",
    "Flatten",
    "HookHandle",
    "Identity",
    "LeakyReLU",
    "Linear",
    "MaxPool2d",
    "Module",
    "Parameter",
    "ReLU",
    "ReLU6",
    "Sequential",
    "Softmax",
]
