"""Threshold fine-tuning (methodology Step 3, paper Algorithm 1).

The AUC-vs-threshold curve of a layer is bell-shaped with its peak below
the profiled ``ACT_max`` (paper Fig. 5b), so an interval search finds the
peak with few AUC evaluations: split the search interval into three equal
sub-intervals, evaluate the AUC at the four boundaries, keep the
sub-interval(s) around the best boundary, and repeat until ``N``
iterations — or until the adjacent-AUC deltas fall below ``delta`` once at
least ``M`` iterations have run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro import nn
from repro.core.campaign import CampaignConfig, FaultSampler
from repro.core.executor import CampaignExecutor, WeightFaultCellTask
from repro.core.swap import get_thresholds, set_thresholds
from repro.hw.memory import WeightMemory
from repro.utils.shm import pack_object
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "FineTuneConfig",
    "IterationTrace",
    "FineTuneResult",
    "fine_tune_threshold",
    "LayerAUCEvaluator",
    "ThresholdFineTuner",
]

AUCEvaluator = Callable[[float], float]


@dataclass(frozen=True)
class FineTuneConfig:
    """Algorithm 1 stopping parameters."""

    max_iterations: int = 5  # N
    min_iterations: int = 2  # M
    tolerance: float = 0.01  # delta

    def __post_init__(self) -> None:
        check_positive("max_iterations", self.max_iterations)
        check_positive("min_iterations", self.min_iterations)
        check_non_negative("tolerance", self.tolerance)
        if self.min_iterations > self.max_iterations:
            raise ValueError(
                f"min_iterations ({self.min_iterations}) must not exceed "
                f"max_iterations ({self.max_iterations})"
            )


@dataclass(frozen=True)
class IterationTrace:
    """One interval-search iteration (paper Fig. 6 panels)."""

    iteration: int
    boundaries: tuple[float, float, float, float]
    auc_values: tuple[float, float, float, float]
    best_index: int  # 0-based index of the best boundary
    interval: tuple[float, float]  # the selected next search interval


@dataclass
class FineTuneResult:
    """Outcome of fine-tuning one layer's threshold."""

    layer_name: str
    threshold: float
    auc: float
    act_max: float
    trace: list[IterationTrace] = field(default_factory=list)
    evaluations: int = 0
    converged_early: bool = False

    @property
    def iterations(self) -> int:
        """Number of interval-search iterations executed."""
        return len(self.trace)


def _boundaries(low: float, high: float) -> tuple[float, float, float, float]:
    """Algorithm 1's AUC_Calculation boundary placement: T1..T4."""
    step = (high - low) / 3.0
    return (low, low + step, low + 2.0 * step, high)


def fine_tune_threshold(
    evaluator: AUCEvaluator,
    act_max: float,
    config: "FineTuneConfig | None" = None,
    layer_name: str = "",
    lower_bound: float = 0.0,
) -> FineTuneResult:
    """Run Algorithm 1 over ``[lower_bound, act_max]``.

    ``evaluator`` maps a candidate threshold to its AUC.  Evaluations are
    memoised: interval ends recur between iterations, and Algorithm 1's
    ``Interval_Search`` reuses boundary AUCs freely.

    An evaluator with a ``close`` method (the warm-pool
    :class:`LayerAUCEvaluator`) is closed when the search finishes, so
    its worker pool lives exactly as long as one Algorithm-1 run —
    shared by every iteration, built at most once.
    """
    if act_max <= lower_bound:
        raise ValueError(
            f"act_max ({act_max}) must exceed lower_bound ({lower_bound})"
        )
    config = config if config is not None else FineTuneConfig()
    try:
        return _fine_tune_threshold(
            evaluator, act_max, config, layer_name, lower_bound
        )
    finally:
        close = getattr(evaluator, "close", None)
        if callable(close):
            close()


def _fine_tune_threshold(
    evaluator: AUCEvaluator,
    act_max: float,
    config: FineTuneConfig,
    layer_name: str,
    lower_bound: float,
) -> FineTuneResult:
    """The Algorithm-1 interval search proper (evaluator lifecycle handled
    by :func:`fine_tune_threshold`)."""

    cache: dict[float, float] = {}

    def evaluate_all(thresholds: Sequence[float]) -> tuple[float, ...]:
        """AUCs for all ``thresholds``, memoised; un-cached ones may be
        evaluated together through the evaluator's batch entry point
        (one shared worker pool for all boundary campaigns)."""
        keys = [float(np.float32(t)) for t in thresholds]  # stable keys
        missing = [k for k in dict.fromkeys(keys) if k not in cache]
        if len(missing) > 1 and hasattr(evaluator, "evaluate_many"):
            values = evaluator.evaluate_many([max(k, 1e-12) for k in missing])
            cache.update(zip(missing, (float(v) for v in values)))
        else:
            for key in missing:
                cache[key] = float(evaluator(max(key, 1e-12)))
        return tuple(cache[key] for key in keys)

    low, high = float(lower_bound), float(act_max)
    result = FineTuneResult(
        layer_name=layer_name, threshold=high, auc=float("-inf"), act_max=float(act_max)
    )

    for counter in range(1, config.max_iterations + 1):
        bounds = _boundaries(low, high)
        aucs = evaluate_all(bounds)
        best = int(np.argmax(aucs))

        if best == 0:
            interval = (bounds[0], bounds[1])
        elif best == 3:
            interval = (bounds[2], bounds[3])
        else:
            interval = (bounds[best - 1], bounds[best + 1])

        result.trace.append(
            IterationTrace(
                iteration=counter,
                boundaries=bounds,
                auc_values=aucs,
                best_index=best,
                interval=interval,
            )
        )
        # Keep the best threshold seen over *all* evaluations, not just the
        # final iteration's boundaries: the interval recursion re-thirds the
        # selected region, so an interior peak boundary from iteration k is
        # generally not a boundary of iteration k+1 and would otherwise be
        # lost.  (Algorithm 1 in the paper returns the last iteration's T;
        # keeping the global argmax is a strict improvement.)
        if float(aucs[best]) > result.auc:
            # Floor at a tiny positive value: the T1 = 0 boundary means
            # "clip everything", which clipped activations express as an
            # infinitesimal (but valid) threshold.
            result.threshold = max(float(bounds[best]), 1e-12)
            result.auc = float(aucs[best])
        low, high = interval

        deltas = [abs(aucs[i + 1] - aucs[i]) for i in range(3)]
        if max(deltas) <= config.tolerance and counter >= config.min_iterations:
            result.converged_early = True
            break

    result.evaluations = len(cache)
    return result


class LayerAUCEvaluator:
    """The AUC evaluator Algorithm 1 calls for one layer.

    Calling it sets the layer's clipping threshold, runs a full campaign
    (same seed => common random numbers across thresholds) and returns
    the curve's AUC.  ``memory`` controls the fault scope: pass a
    layer-scoped memory for the paper's per-layer analysis (Fig. 5) or a
    whole-network memory to tune against network-wide faults.

    :meth:`evaluate_many` evaluates several candidate thresholds at once:
    with ``workers > 1`` it snapshots the model at each threshold and
    submits one campaign per threshold into a *single shared worker
    pool* (Algorithm 1's boundary evaluations fan out together instead
    of spinning up a pool per boundary).  Both entry points are
    bit-deterministic, so Algorithm 1's search trajectory is identical
    at any worker count and batch size.

    The evaluator owns one *warm* :class:`CampaignExecutor`: the pool is
    built on the first parallel evaluation and reused by every later
    iteration of Algorithm 1 (call :meth:`close` when tuning ends —
    :func:`fine_tune_threshold` and :class:`ThresholdFineTuner` do).
    Each threshold's snapshot is serialized exactly once: the packed
    unit both materializes the parent-side copy (whose clean accuracy
    anchors the AUC) and ships to the workers via the executor's
    pre-packed payload path, with its weight tensors mapped zero-copy
    from the shared-memory tensor plane.
    """

    def __init__(
        self,
        model: nn.Module,
        layer_name: str,
        memory: WeightMemory,
        images: np.ndarray,
        labels: np.ndarray,
        campaign_config: CampaignConfig,
        sampler: "FaultSampler | None" = None,
        include_zero_rate: bool = True,
        workers: int = 1,
    ):
        self.model = model
        self.layer_name = layer_name
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.campaign_config = campaign_config
        self.sampler = sampler
        self.include_zero_rate = include_zero_rate
        self.workers = workers
        self._executor: "CampaignExecutor | None" = None

    def _warm_executor(self) -> CampaignExecutor:
        """The evaluator's persistent executor (pool built on first use;
        at ``workers=1`` it runs every campaign in process)."""
        if self._executor is None:
            self._executor = CampaignExecutor(
                workers=self.workers, persistent=True
            )
        return self._executor

    def close(self) -> None:
        """Shut down the warm worker pool, if one was started (idempotent)."""
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.close()

    def __call__(self, threshold: float) -> float:
        set_thresholds(self.model, {self.layer_name: threshold})
        task = WeightFaultCellTask(
            self.model, self.memory, self.images, self.labels,
            config=self.campaign_config, sampler=self.sampler,
            label=f"{self.layer_name}@T={threshold:g}",
        )
        curve = self._warm_executor().run_tasks([task])[0]
        return curve.auc(include_zero_rate=self.include_zero_rate)

    def evaluate_many(self, thresholds: Sequence[float]) -> list[float]:
        """AUCs for several thresholds, one campaign each, one pool total.

        Each threshold gets its own bit-exact ``(model, memory)``
        snapshot — one :func:`~repro.utils.shm.pack_object` of the whole
        cell task, whose unit serves double duty:
        :meth:`~repro.utils.shm.PackedUnit.unpack_copy` materializes the
        detached parent-side copy (preserving the memory's aliasing into
        the copy's parameters), and the same unit ships to the warm pool
        through ``run_tasks(payloads=...)`` — its weight tensors laid
        out in the shared-memory tensor plane, which workers map as
        zero-copy read-only views.  No model snapshot is ever serialized
        twice.
        """
        if self.workers == 1 or len(thresholds) < 2:
            return [self(threshold) for threshold in thresholds]
        initial = get_thresholds(self.model)[self.layer_name]
        tasks = []
        units = []
        try:
            for threshold in thresholds:
                set_thresholds(self.model, {self.layer_name: threshold})
                unit = pack_object(
                    WeightFaultCellTask(
                        self.model, self.memory, self.images, self.labels,
                        config=self.campaign_config, sampler=self.sampler,
                    )
                )
                task = unit.unpack_copy()
                task.label = f"{self.layer_name}@T={threshold:g}"
                # The unpack round-trip duplicated the eval arrays; the
                # parent-side copy only needs them for the clean-accuracy
                # evaluation, so share the originals (bit-equal) instead
                # of holding one private copy per threshold.
                task.images = self.images
                task.labels = self.labels
                units.append(unit)
                tasks.append(task)
        finally:
            set_thresholds(self.model, {self.layer_name: initial})
        curves = self._warm_executor().run_tasks(tasks, payloads=units)
        return [
            curve.auc(include_zero_rate=self.include_zero_rate) for curve in curves
        ]


class ThresholdFineTuner:
    """Step 3 driver: fine-tune every clipped layer of a model.

    Per the paper, each layer is tuned starting from the Step-2 network
    (all layers initialised at their ``ACT_max``); the tuned thresholds
    are applied together at the end.
    """

    def __init__(
        self,
        model: nn.Module,
        memory_factory: Callable[[str], WeightMemory],
        images: np.ndarray,
        labels: np.ndarray,
        campaign_config: CampaignConfig,
        finetune_config: "FineTuneConfig | None" = None,
        sampler: "FaultSampler | None" = None,
        workers: int = 1,
    ):
        self.model = model
        self.memory_factory = memory_factory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.campaign_config = campaign_config
        self.finetune_config = (
            finetune_config if finetune_config is not None else FineTuneConfig()
        )
        self.sampler = sampler
        self.workers = workers

    def tune_layer(self, layer_name: str, act_max: float) -> FineTuneResult:
        """Fine-tune one layer, restoring its initial threshold afterwards."""
        initial = get_thresholds(self.model)[layer_name]
        evaluator = LayerAUCEvaluator(
            self.model,
            layer_name,
            self.memory_factory(layer_name),
            self.images,
            self.labels,
            self.campaign_config,
            sampler=self.sampler,
            workers=self.workers,
        )
        try:
            return fine_tune_threshold(
                evaluator,
                act_max=act_max,
                config=self.finetune_config,
                layer_name=layer_name,
            )
        finally:
            evaluator.close()
            set_thresholds(self.model, {layer_name: initial})

    def tune_all(self, act_max: Mapping[str, float]) -> dict[str, FineTuneResult]:
        """Fine-tune every layer in ``act_max`` and apply the results."""
        results: dict[str, FineTuneResult] = {}
        for layer_name, layer_act_max in act_max.items():
            results[layer_name] = self.tune_layer(layer_name, float(layer_act_max))
        set_thresholds(
            self.model,
            {name: result.threshold for name, result in results.items()},
        )
        return results
