"""Resilience metrics: accuracy and the paper's AUC (Section IV-B).

The AUC is the area under the classification-accuracy vs. *normalized*
fault-rate curve, computed with the trapezoidal rule, with both axes
normalized so a network holding 100% accuracy across the whole fault
range scores exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import nn
from repro.utils.validation import check_in_choices, check_positive

__all__ = [
    "evaluate_accuracy_arrays",
    "predict_labels",
    "BatchForward",
    "auc_resilience",
    "BoxStats",
    "ResilienceCurve",
]

# An alternate per-batch inference path: maps ``(batch, start_offset)`` to
# logits.  The suffix re-execution engine (repro.core.suffix) supplies one
# that recomputes only the layers downstream of the first faulted layer;
# ``None`` always means the plain full forward ``model(batch)``.
BatchForward = Callable[[np.ndarray, int], np.ndarray]


def predict_labels(
    model: nn.Module,
    images: np.ndarray,
    batch_size: int = 128,
    forward: "BatchForward | None" = None,
) -> np.ndarray:
    """Argmax class predictions over ``images`` in eval mode.

    ``forward`` optionally replaces the full forward pass per batch (it
    receives the batch and its start offset into ``images``); any
    replacement must be bit-identical to ``model(batch)`` — the suffix
    engine's partial re-execution is, by construction.
    """
    check_positive("batch_size", batch_size)
    was_training = model.training
    model.eval()
    predictions = []
    try:
        # Faulty weights legitimately overflow float32 (that is the studied
        # failure mode); inf/nan logits are still argmax-able.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, images.shape[0], batch_size):
                batch = images[start : start + batch_size]
                logits = model(batch) if forward is None else forward(batch, start)
                predictions.append(np.argmax(logits, axis=1))
    finally:
        model.train(was_training)
    return np.concatenate(predictions)


def evaluate_accuracy_arrays(
    model: nn.Module,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 128,
    forward: "BatchForward | None" = None,
) -> float:
    """Top-1 accuracy of ``model`` on in-memory arrays."""
    labels = np.asarray(labels)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"images and labels disagree on sample count: "
            f"{images.shape[0]} vs {labels.shape[0]}"
        )
    if images.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on zero samples")
    predictions = predict_labels(model, images, batch_size, forward=forward)
    return float((predictions == labels).mean())


def auc_resilience(
    fault_rates: np.ndarray,
    accuracies: np.ndarray,
    x_mode: str = "index",
) -> float:
    """Paper Section IV-B: trapezoidal area under accuracy vs fault rate.

    ``fault_rates`` must be sorted ascending; ``accuracies`` are fractions
    in [0, 1] (mean accuracy at each rate).  Both axes are normalized so
    the ideal network scores 1.

    ``x_mode`` selects the normalized-rate axis:

    * ``"index"`` (default): the sampled rates are spread evenly over
      [0, 1] — equivalent to uniform weight per sampled (log-spaced) rate,
      matching the evenly-spaced markers of paper Fig. 5a;
    * ``"linear"``: rates are normalized by the maximum rate, which makes
      the AUC dominated by behaviour near the top of the fault range.
    """
    check_in_choices("x_mode", x_mode, ("index", "linear"))
    rates = np.asarray(fault_rates, dtype=np.float64)
    accs = np.asarray(accuracies, dtype=np.float64)
    if rates.ndim != 1 or rates.shape != accs.shape:
        raise ValueError(
            f"fault_rates and accuracies must be matching 1-D arrays, got "
            f"{rates.shape} and {accs.shape}"
        )
    if rates.size < 2:
        raise ValueError("need at least two fault rates to integrate")
    if np.any(np.diff(rates) <= 0):
        raise ValueError("fault_rates must be strictly increasing")
    if np.any((accs < 0) | (accs > 1)):
        raise ValueError("accuracies must lie in [0, 1]")

    if x_mode == "index":
        x = np.linspace(0.0, 1.0, rates.size)
    else:
        x = rates / rates.max()
    return float(np.trapezoid(accs, x))


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary of the accuracy distribution at one fault rate."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "BoxStats":
        """Summarise a 1-D array of accuracy samples."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise ValueError("cannot summarise zero samples")
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        return cls(
            minimum=float(samples.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(samples.max()),
            mean=float(samples.mean()),
        )


@dataclass
class ResilienceCurve:
    """Accuracy-vs-fault-rate results of one campaign.

    ``accuracies`` has shape ``(n_rates, n_trials)``: independent
    fault-injection trials per rate.  ``clean_accuracy`` is the fault-free
    accuracy of the same model on the same evaluation set.
    """

    fault_rates: np.ndarray
    accuracies: np.ndarray
    clean_accuracy: float
    label: str = ""

    def __post_init__(self) -> None:
        self.fault_rates = np.asarray(self.fault_rates, dtype=np.float64)
        self.accuracies = np.atleast_2d(np.asarray(self.accuracies, dtype=np.float64))
        if self.fault_rates.ndim != 1:
            raise ValueError("fault_rates must be 1-D")
        if self.accuracies.shape[0] != self.fault_rates.size:
            raise ValueError(
                f"accuracies rows ({self.accuracies.shape[0]}) must match "
                f"fault_rates ({self.fault_rates.size})"
            )
        if np.any(np.diff(self.fault_rates) <= 0):
            raise ValueError("fault_rates must be strictly increasing")

    @property
    def n_trials(self) -> int:
        """Trials per fault rate."""
        return self.accuracies.shape[1]

    def mean_accuracies(self) -> np.ndarray:
        """Mean accuracy per fault rate (paper Fig. 7a/8a series)."""
        return self.accuracies.mean(axis=1)

    def worst_case(self) -> np.ndarray:
        """Minimum accuracy per fault rate (box-plot whisker bottom)."""
        return self.accuracies.min(axis=1)

    def box_stats(self) -> list[BoxStats]:
        """Per-rate five-number summaries (paper Fig. 7b/7c, 8b/8c)."""
        return [BoxStats.from_samples(row) for row in self.accuracies]

    def auc(self, include_zero_rate: bool = True, x_mode: str = "index") -> float:
        """The paper's AUC over this curve.

        With ``include_zero_rate`` the fault-free point (rate 0, clean
        accuracy) anchors the left end of the integration range, matching
        the paper's "fault range from 0 to 1e-5" phrasing.
        """
        rates = self.fault_rates
        accs = self.mean_accuracies()
        if include_zero_rate and rates[0] > 0:
            rates = np.concatenate([[0.0], rates])
            accs = np.concatenate([[self.clean_accuracy], accs])
        # The zero-rate point breaks pure-log spacing; "index" mode treats
        # all sampled points uniformly, which is what we document.
        return auc_resilience(rates, accs, x_mode=x_mode)

    def summary_rows(self) -> list[dict[str, float]]:
        """Row dicts (rate, mean, min, q1, median, q3, max) for reports."""
        rows = []
        for rate, box in zip(self.fault_rates, self.box_stats()):
            rows.append(
                {
                    "fault_rate": float(rate),
                    "mean": box.mean,
                    "min": box.minimum,
                    "q1": box.q1,
                    "median": box.median,
                    "q3": box.q3,
                    "max": box.maximum,
                }
            )
        return rows
