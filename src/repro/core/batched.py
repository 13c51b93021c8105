"""Adaptive early stopping for Monte-Carlo fault campaigns.

Cuts the cell count of the :class:`~repro.core.executor` cell
substrate's trial grids, in the spirit of Ares (Reagen et al., DAC
2018):

**Adaptive early stopping** (:class:`AdaptiveCampaignTask`).  Wraps any
scalar-accuracy cell task and turns each rate's trial column into a
*family* evaluated sequentially in chunks of ``batch_k``: after every
chunk a 95% Wilson interval over the pooled image-level counts is
computed, and the family stops as soon as at least two trials ran and
its half-width falls under ``ci_halfwidth``.  The executed trials reuse
the exact per-cell seed paths (``rate/<i>/trial/<j>``) and each trial runs
through the base runner's ordinary per-cell path, suffix engine
included, so an adaptive family's trial accuracies are bit-identical
to the first ``n`` trials of the exact sweep — common random numbers
survive the stopping layer.  The stopping decision depends only on
(seed, grid, ``batch_k``, ``ci_halfwidth``), never on workers
or suffix caching, so checkpoint resume reproduces it exactly.

The pooled interval treats the ``n_trials * n_images`` image-level
Bernoulli outcomes as independent — the Ares pooling.  Near the
accuracy cliff, between-trial variance (few flipped bits decide the
whole trial) makes the pooled interval anti-conservative as a
*population* statement; it is used here as a stopping rule for the mean
estimate, and ``tests/test_stats_stopping.py`` pins its coverage in the
regime the rule is trusted for.

**Importance sampling** (:class:`ImportanceBitflipSampler`).  The bit
position study (:mod:`repro.analysis.bitpos`) shows sign/exponent bits
dominate SDC; the sampler tilts the per-bit flip probability of those
*hot* positions up by ``boost`` and reweights each trial by the exact
likelihood ratio of the untilted model, so weighted estimates stay
unbiased (``E_q[w f] = E_p[f]`` holds exactly; the proposal and target
are both product-Bernoulli laws over bit cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.metrics import ResilienceCurve

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.faultmodels import FaultSet

__all__ = [
    "DEFAULT_BATCH_K",
    "wilson_interval",
    "family_interval",
    "ImportanceBitflipSampler",
    "AdaptiveCampaignTask",
    "AdaptiveResult",
    "adaptive_cell_width",
]

# Trial-family chunk width of an adaptive task given ``batch_k=0``.
DEFAULT_BATCH_K = 8

# Grid sentinel for adaptive cells: trials a family never executed are
# stored as -1 (NaN would read as "cell still pending" to the executor's
# resume logic, which keys completion on isfinite).
SKIP_SENTINEL = -1.0

# The stopping rule's fixed settings: a 95% Wilson interval, and at least
# two executed trials before a family may stop.
_LEVEL = 0.95
_MIN_TRIALS = 2


# --------------------------------------------------------------------- #
# binomial confidence intervals
# --------------------------------------------------------------------- #


def _norm_ppf(q: float) -> float:
    """Standard normal quantile (stdlib ``NormalDist``)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    # Imported here: a module-level ``statistics`` import pulls
    # ``decimal`` and ``fractions`` into every process, interval or not.
    from statistics import NormalDist

    return NormalDist().inv_cdf(q)


def wilson_interval(successes: float, trials: float) -> "tuple[float, float]":
    """95% Wilson score interval for a binomial proportion.

    The stopping interval: near-nominal coverage even at small counts and
    proportions near 0/1 (where the Wald interval collapses), and cheap
    enough to evaluate after every trial chunk.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0.0 <= successes <= trials:
        raise ValueError(
            f"successes must lie in [0, trials={trials}], got {successes}"
        )
    z = _norm_ppf(0.5 + _LEVEL / 2.0)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # At k = 0 and k = n the bound is exactly 0 or 1, but the float
    # difference can round either side of it.
    low = 0.0 if successes <= 0 else max(0.0, centre - half)
    high = 1.0 if successes >= trials else min(1.0, centre + half)
    return low, high


def family_interval(
    accuracies: Sequence[float],
    n_images: int,
    weights: "Sequence[float] | None" = None,
) -> "tuple[float, float]":
    """``(estimate, ci_halfwidth)`` for one (rate, trial-family) cell.

    Unweighted families pool the image-level correct/incorrect counts of
    all executed trials into one binomial and take its Wilson interval.
    Importance-weighted families use the normal-approximation
    interval over the per-trial products ``w_t * acc_t`` instead (the
    pooled-count reduction does not survive reweighting); with a single
    trial the half-width is infinite, so a weighted family never stops
    before its second trial.
    """
    accs = [float(a) for a in accuracies]
    if not accs:
        raise ValueError("family_interval needs at least one executed trial")
    if weights is not None:
        if len(weights) != len(accs):
            raise ValueError(
                f"weights must parallel accuracies: {len(weights)} weights "
                f"for {len(accs)} accuracies"
            )
        values = np.asarray(
            [w * a for w, a in zip(weights, accs)], dtype=np.float64
        )
        estimate = float(values.mean())
        if values.size < 2:
            return estimate, math.inf
        z = _norm_ppf(0.5 + _LEVEL / 2.0)
        half = z * float(values.std(ddof=1)) / math.sqrt(values.size)
        return estimate, half
    n = len(accs) * int(n_images)
    # Per-trial accuracies are exact fractions k_t/n_images; rounding per
    # trial recovers the integer counts without float drift.
    successes = sum(round(a * n_images) for a in accs)
    low, high = wilson_interval(successes, n)
    return successes / n, (high - low) / 2.0


# --------------------------------------------------------------------- #
# importance sampling of bit positions
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ImportanceBitflipSampler:
    """Tilted random-bit-flip proposal with exact unbiased reweighting.

    The target law is the paper's :class:`~repro.hw.faultmodels.RandomBitFlip`
    — independent per-bit flips at the fault rate (equivalently:
    Binomial count, uniform positions).  The proposal boosts the per-bit
    flip probability of the *hot* in-word positions (default: float32
    sign + exponent, the bits :mod:`repro.analysis.bitpos` shows
    dominate SDC) to ``min(rate * boost, 0.5)`` and leaves the cold
    positions at ``rate``; each draw carries the likelihood ratio of
    target over proposal, computed in log space from the hot-cell
    counts.  Both laws are product-Bernoulli over bit cells, so the
    weighted estimator is exactly unbiased: ``E_q[w f] = E_p[f]``.
    """

    boost: float = 8.0
    hot_positions: "tuple[int, ...]" = (31, 30, 29, 28, 27, 26, 25, 24, 23)

    def __post_init__(self) -> None:
        if not self.boost > 0.0:
            raise ValueError(f"boost must be positive, got {self.boost}")
        positions = tuple(int(p) for p in self.hot_positions)
        if len(set(positions)) != len(positions) or any(
            p < 0 for p in positions
        ):
            raise ValueError(
                f"hot_positions must be distinct non-negative in-word bit "
                f"positions, got {self.hot_positions!r}"
            )
        object.__setattr__(self, "boost", float(self.boost))
        object.__setattr__(self, "hot_positions", positions)

    def sample_with_weight(
        self, memory, rate: float, rng: np.random.Generator
    ) -> "tuple[FaultSet, float]":
        """One tilted draw over ``memory``'s bit space plus its weight."""
        from repro.hw.faultmodels import FaultSet, _sample_unique_bits

        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be a probability, got {rate}")
        if rate == 0.0:
            return FaultSet.empty(), 1.0
        bits_per_word = int(memory.bits_per_word)
        hot = sorted(p for p in self.hot_positions if p < bits_per_word)
        cold = sorted(set(range(bits_per_word)) - set(hot))
        total_words = int(memory.total_words)
        n_hot = total_words * len(hot)
        n_cold = total_words * len(cold)
        q_hot = min(rate * self.boost, 0.5)
        # Draw order (hot count, hot cells, cold count, cold cells) is
        # part of the determinism contract: the draw is a pure function
        # of (self, memory geometry, rate, rng).
        k_hot = int(rng.binomial(n_hot, q_hot)) if n_hot else 0
        hot_bits = self._place(
            _sample_unique_bits(n_hot, k_hot, rng), hot, bits_per_word
        )
        k_cold = int(rng.binomial(n_cold, rate)) if n_cold else 0
        cold_bits = self._place(
            _sample_unique_bits(n_cold, k_cold, rng), cold, bits_per_word
        )
        bits = np.sort(np.concatenate([hot_bits, cold_bits]))
        # Cold cells sample at the target rate, so their likelihood terms
        # cancel; only the hot cells contribute.
        log_weight = 0.0
        if n_hot and q_hot > rate:
            log_weight = k_hot * math.log(rate / q_hot) + (
                n_hot - k_hot
            ) * (math.log1p(-rate) - math.log1p(-q_hot))
        return FaultSet.flips(bits), float(math.exp(min(log_weight, 700.0)))

    @staticmethod
    def _place(
        cell_ids: np.ndarray, positions: "list[int]", bits_per_word: int
    ) -> np.ndarray:
        """Map flat cell ids ``word * len(positions) + rank`` to bit indices."""
        if cell_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        n_positions = len(positions)
        words = cell_ids // n_positions
        offsets = np.asarray(positions, dtype=np.int64)[cell_ids % n_positions]
        return words * bits_per_word + offsets


# --------------------------------------------------------------------- #
# the adaptive task
# --------------------------------------------------------------------- #


def adaptive_cell_width(max_trials: int, weighted: bool) -> int:
    """Scalars per adaptive (rate, family) cell.

    The vector layout is ``[estimate, executed, acc_0..acc_{T-1}
    (, w_0..w_{T-1})]`` with :data:`SKIP_SENTINEL` padding — the single
    source of truth shared by :class:`AdaptiveCampaignTask` (which
    writes cells) and shard merging (which reassembles grids from
    recorded cells without reconstructing the task).
    """
    return 2 + int(max_trials) * (2 if weighted else 1)


class AdaptiveCampaignTask:
    """Early-stopping wrapper around a scalar-accuracy cell task.

    Each fault rate becomes one executor cell holding the whole trial
    *family*: trials run in chunks of ``batch_k``, one at a time
    through the base runner's per-cell path, and the family stops once
    it has run two trials and its pooled interval's half-width is at
    most ``ci_halfwidth``, or after ``max_trials`` (the base config's
    trial count by default).  Executed trials reuse the exact per-cell
    seed paths, so every executed accuracy is bit-identical to the
    corresponding cell of the exact sweep.

    With ``importance`` set (weight campaigns over the random-bit-flip
    model only — the reweighting is exact against that target), trial
    fault sets are drawn from the tilted proposal instead of the base
    sampler and the family estimate is the weighted mean.

    The cell vector layout is ``[estimate, executed, acc_0..acc_{T-1}
    (, w_0..w_{T-1})]`` with :data:`SKIP_SENTINEL` padding, so adaptive
    sweeps checkpoint/resume through the unchanged executor machinery.
    """

    def __init__(
        self,
        base,
        ci_halfwidth: float = 0.02,
        max_trials: "int | None" = None,
        batch_k: int = 0,
        importance: "ImportanceBitflipSampler | float | None" = None,
        label: "str | None" = None,
    ):
        if int(getattr(base, "cell_width", 1)) != 1:
            raise ValueError(
                f"adaptive stopping needs a scalar-accuracy base task; "
                f"{base.kind!r} has cell_width={base.cell_width}"
            )
        if not 0.0 < ci_halfwidth <= 0.5:
            raise ValueError(
                f"ci_halfwidth must be in (0, 0.5], got {ci_halfwidth}"
            )
        if int(batch_k) < 0:
            raise ValueError(
                f"batch_k must be >= 0 (0 = the default chunk of "
                f"{DEFAULT_BATCH_K}), got {batch_k}"
            )
        if isinstance(importance, (int, float)) and not isinstance(
            importance, bool
        ):
            importance = ImportanceBitflipSampler(boost=float(importance))
        if importance is not None and not hasattr(base, "memory"):
            raise ValueError(
                "importance sampling needs a base task with a weight "
                "memory (weight-fault campaigns)"
            )
        self.base = base
        self.max_trials = int(
            base.config.trials if max_trials is None else max_trials
        )
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {max_trials}")
        self.ci_halfwidth = float(ci_halfwidth)
        self.importance = importance
        # The chunk width is scientific for adaptive runs: the stopping
        # rule is evaluated at chunk boundaries, so it shapes which
        # trials execute.  0 resolves to DEFAULT_BATCH_K here.
        self.batch_k = int(batch_k) or DEFAULT_BATCH_K
        self.label = base.label if label is None else label
        self.kind = f"adaptive:{base.kind}"
        self.config = replace(base.config, trials=1)
        self.cell_width = adaptive_cell_width(
            self.max_trials, weighted=importance is not None
        )

    def __getstate__(self) -> dict:
        from repro.core.executor import payload_state

        return payload_state(self)

    def absorb_clean_logits(self, logits_batches) -> None:
        """Seed the base task's clean accuracy from its runner's clean pass.

        The family runner's engine is the base runner's, so its clean
        logits are exactly what the base task would recompute.
        """
        absorb = getattr(self.base, "absorb_clean_logits", None)
        if absorb is not None:
            absorb(logits_batches)

    def clean_pass_key(self) -> "tuple | None":
        """The base task's key: the family runner's engine is the base runner's."""
        key = getattr(self.base, "clean_pass_key", None)
        return key() if key is not None else None

    def make_runner(self) -> "_AdaptiveFamilyRunner":
        return _AdaptiveFamilyRunner(self)

    def build_result(
        self, rates: np.ndarray, values: np.ndarray
    ) -> "AdaptiveResult":
        return AdaptiveResult.from_grid(self, rates, values)


class _AdaptiveFamilyRunner:
    """Evaluates one (rate, family) cell by looping the base runner."""

    def __init__(self, task: AdaptiveCampaignTask):
        self.task = task
        self.inner = task.base.make_runner()
        # The executor's parent-side cache export looks for `.engine`.
        self.engine = getattr(self.inner, "engine", None)
        self.n_images = int(task.base.labels.shape[0])

    def run_cell(self, rate_index: int, trial: int) -> np.ndarray:
        task = self.task
        total = task.max_trials
        accuracies: "list[float]" = []
        weights: "list[float] | None" = (
            [] if task.importance is not None else None
        )
        estimate = 0.0
        while len(accuracies) < total:
            upto = min(len(accuracies) + task.batch_k, total)
            trial_indices = range(len(accuracies), upto)
            if weights is not None:
                draws = [self._draw(rate_index, j) for j in trial_indices]
                fault_sets = [fault_set for fault_set, _ in draws]
                weights.extend(weight for _, weight in draws)
            else:
                fault_sets = [
                    self.inner.fault_set(rate_index, j) for j in trial_indices
                ]
            accuracies.extend(
                float(value) for value in self.run_family(fault_sets)
            )
            estimate, halfwidth = family_interval(
                accuracies, self.n_images, weights=weights
            )
            if len(accuracies) >= _MIN_TRIALS and halfwidth <= task.ci_halfwidth:
                break
        vector = np.full(task.cell_width, SKIP_SENTINEL, dtype=np.float64)
        vector[0] = estimate
        vector[1] = len(accuracies)
        vector[2 : 2 + len(accuracies)] = accuracies
        if weights is not None:
            offset = 2 + total
            vector[offset : offset + len(weights)] = weights
        return vector

    def run_family(self, fault_sets) -> list:
        """One chunk of the family: each pre-drawn fault set in order,
        through the base runner's per-cell path."""
        return [self.inner.run_fault_set(fault_set) for fault_set in fault_sets]

    def _draw(self, rate_index: int, trial: int):
        """One importance draw on the cell's own seed path."""
        from repro.core.executor import cell_seed_path

        base = self.task.base
        rate = float(base.config.fault_rates[rate_index])
        rng = self.inner.tree.generator(cell_seed_path(rate_index, trial))
        return self.task.importance.sample_with_weight(base.memory, rate, rng)

    def close(self) -> None:
        self.inner.close()


# The benchmark tracer (perfbench/tracer.py) wraps
# ``BatchedSuffixKernel.run_family`` as its ``batched.run_family`` span;
# this alias keeps that hook bound to one adaptive chunk.  Delete it once
# the tracer wraps ``_AdaptiveFamilyRunner.run_family`` directly.
BatchedSuffixKernel = _AdaptiveFamilyRunner


@dataclass(frozen=True)
class AdaptiveResult:
    """One adaptive sweep's estimates, achieved widths and savings.

    ``accuracies`` is the ``(n_rates, max_trials)`` executed-trial
    matrix padded with :data:`SKIP_SENTINEL`; executed entries are
    bit-identical to the exact sweep's corresponding cells.  ``curve``
    offers a :class:`~repro.core.metrics.ResilienceCurve` view for
    plotting/AUC code, with skipped cells filled by the family estimate
    (clipped to [0, 1]) — the ``estimates`` vector stays authoritative.
    """

    label: str
    fault_rates: np.ndarray
    estimates: np.ndarray
    halfwidths: np.ndarray
    executed: np.ndarray
    accuracies: np.ndarray
    weights: "np.ndarray | None"
    max_trials: int
    tolerance: float
    clean_accuracy: float

    @classmethod
    def from_grid(
        cls, task: AdaptiveCampaignTask, rates: np.ndarray, values: np.ndarray
    ) -> "AdaptiveResult":
        clean = getattr(task.base, "clean_accuracy", None)
        return cls.assemble(
            label=task.label,
            rates=rates,
            values=values,
            max_trials=task.max_trials,
            weighted=task.importance is not None,
            n_images=int(task.base.labels.shape[0]),
            tolerance=task.ci_halfwidth,
            clean_accuracy=float(clean()) if callable(clean) else float("nan"),
        )

    @classmethod
    def assemble(
        cls,
        label: str,
        rates: np.ndarray,
        values: np.ndarray,
        max_trials: int,
        weighted: bool,
        n_images: int,
        tolerance: float,
        clean_accuracy: float = float("nan"),
    ) -> "AdaptiveResult":
        """Rebuild a result from raw cell vectors, without the task.

        The pure-data twin of :meth:`from_grid`: everything except the
        clean accuracy is a function of the recorded grid and the spec
        parameters, so shard merging reassembles results from per-shard
        JSON — bit-identical to the unsharded ``build_result`` because
        the half-width recomputation (:func:`family_interval`) sees the
        exact same executed accuracies and weights.
        """
        total = int(max_trials)
        grid = np.asarray(values, dtype=np.float64).reshape(
            len(rates), adaptive_cell_width(total, weighted)
        )
        estimates = grid[:, 0].copy()
        # A quarantined family leaves its grid row all-NaN; casting NaN
        # to int is undefined, so treat it as zero executed trials (the
        # estimate stays NaN and the half-width below becomes inf).
        raw_executed = grid[:, 1]
        executed = np.where(
            np.isfinite(raw_executed), raw_executed, 0.0
        ).astype(np.int64)
        accuracies = grid[:, 2 : 2 + total].copy()
        weights = None
        if weighted:
            weights = grid[:, 2 + total : 2 + 2 * total].copy()
        halfwidths = np.empty(len(rates), dtype=np.float64)
        for index in range(len(rates)):
            n_exec = int(executed[index])
            if n_exec <= 0:
                halfwidths[index] = float("inf")
                continue
            halfwidths[index] = family_interval(
                accuracies[index, :n_exec],
                int(n_images),
                weights=(
                    weights[index, :n_exec] if weights is not None else None
                ),
            )[1]
        return cls(
            label=label,
            fault_rates=np.asarray(rates, dtype=np.float64),
            estimates=estimates,
            halfwidths=halfwidths,
            executed=executed,
            accuracies=accuracies,
            weights=weights,
            max_trials=total,
            tolerance=float(tolerance),
            clean_accuracy=float(clean_accuracy),
        )

    @property
    def cells_total(self) -> int:
        return int(self.fault_rates.size) * int(self.max_trials)

    @property
    def cells_executed(self) -> int:
        return int(self.executed.sum())

    @property
    def cells_skipped(self) -> int:
        return self.cells_total - self.cells_executed

    @property
    def curve(self) -> ResilienceCurve:
        filled = self.accuracies.copy()
        for index in range(filled.shape[0]):
            estimate = float(self.estimates[index])
            # max(0.0, nan) silently returns 0.0; keep a quarantined
            # family's row NaN instead of faking a zero-accuracy one.
            fill = (
                min(1.0, max(0.0, estimate))
                if math.isfinite(estimate)
                else float("nan")
            )
            filled[index, int(self.executed[index]) :] = fill
        return ResilienceCurve(
            fault_rates=self.fault_rates,
            accuracies=filled,
            clean_accuracy=self.clean_accuracy,
            label=self.label,
        )

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "fault_rates": [float(r) for r in self.fault_rates],
            "estimates": [float(e) for e in self.estimates],
            "ci_halfwidths": [float(h) for h in self.halfwidths],
            "executed": [int(e) for e in self.executed],
            "max_trials": int(self.max_trials),
            "cells_executed": self.cells_executed,
            "cells_skipped": self.cells_skipped,
            "tolerance": float(self.tolerance),
            "level": _LEVEL,
            "method": "wilson",
            "clean_accuracy": float(self.clean_accuracy),
        }
        if self.weights is not None:
            payload["importance_weights"] = [
                [float(w) for w in row] for row in self.weights
            ]
        return payload
