"""The Adam optimizer and the training loop."""

from repro.optim.adam import Adam
from repro.optim.optimizer import Optimizer
from repro.optim.trainer import (
    EpochStats,
    Trainer,
    TrainingHistory,
    evaluate_accuracy,
)

__all__ = [
    "Adam",
    "EpochStats",
    "Optimizer",
    "Trainer",
    "TrainingHistory",
    "evaluate_accuracy",
]
