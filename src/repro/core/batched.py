"""Batched Monte-Carlo kernel with adaptive early stopping.

Two independent speed layers over the :class:`~repro.core.executor`
cell substrate, in the spirit of Ares (Reagen et al., DAC 2018):

**Variant batching** (:class:`BatchedSuffixKernel`).  K fault variants
of one campaign share the clean prefix *and* an un-faulted tail: every
layer after the last faulted layer of the whole group sees fault-free
weights under every variant, so the group's K per-variant frontiers can
be stacked into one wide tensor and pushed through that tail in a
single forward call.  Each variant's prefix/faulted span still runs
individually under its own injection context (bit-identity there is by
construction, exactly the suffix-engine argument), and the wide tail is
**bitwise-verified** before it is trusted: BLAS kernels may block a
``(K*B, ...)`` operand differently from a ``(B, ...)`` one, and row
blocking is a function of operand shape — so the first time a
``(tail start, frontier shape, K)`` signature appears, the kernel
computes both the per-variant tails and the wide tail, compares them
bit for bit, and permanently falls back to per-variant tails for that
signature on any mismatch.  Batched chunks are therefore bit-identical
to the per-cell path *unconditionally*, not just on BLAS builds that
happen to be row-stable.  The kernel runs inside adaptive families
(below); exact sweeps dispatch one cell at a time.
``REPRO_NO_BATCHED=1`` disables the kernel everywhere (results
unchanged, by the same argument).

**Adaptive early stopping** (:class:`AdaptiveCampaignTask`).  Wraps any
scalar-accuracy cell task and turns each rate's trial column into a
*family* evaluated sequentially in chunks of ``batch_k``: after every
chunk a Wilson or Clopper-Pearson interval over the pooled image-level
counts is computed, and the family stops as soon as its half-width
falls under ``ci_halfwidth``.  The executed trials reuse the exact
per-cell seed paths (``rate/<i>/trial/<j>``), so an adaptive family's
trial accuracies are bit-identical to the first ``n`` trials of the
exact sweep — common random numbers survive the stopping layer.  The
stopping decision depends only on (seed, grid, ``batch_k``,
``ci_halfwidth``, method), never on workers, suffix caching or
``REPRO_NO_BATCHED``, so checkpoint resume reproduces it exactly.

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
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro import nn
from repro.core.metrics import ResilienceCurve
from repro.core.suffix import _top_level_index_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.bitpos import BitPositionResult
    from repro.core.suffix import SuffixForwardEngine
    from repro.hw.faultmodels import FaultSet

__all__ = [
    "DEFAULT_BATCH_K",
    "batched_globally_disabled",
    "wilson_interval",
    "clopper_pearson_interval",
    "family_interval",
    "FaultVariant",
    "BatchedSuffixKernel",
    "ImportanceBitflipSampler",
    "AdaptiveCampaignTask",
    "AdaptiveResult",
    "adaptive_cell_width",
]

_DISABLE_ENV = "REPRO_NO_BATCHED"

# Trial-family chunk width when a caller asks for batching without
# picking a width (``batch_k=0`` on an adaptive task).
DEFAULT_BATCH_K = 8

# Grid sentinel for adaptive cells: trials a family never executed are
# stored as -1 (NaN would read as "cell still pending" to the executor's
# resume logic, which keys completion on isfinite).
SKIP_SENTINEL = -1.0

_METHODS = ("wilson", "clopper-pearson")


def batched_globally_disabled() -> bool:
    """Whether ``REPRO_NO_BATCHED`` turns variant batching off."""
    return os.environ.get(_DISABLE_ENV, "").strip() not in ("", "0")


# --------------------------------------------------------------------- #
# binomial confidence intervals
# --------------------------------------------------------------------- #


def _norm_ppf(q: float) -> float:
    """Standard normal quantile; scipy when present, else Acklam's
    rational approximation (|error| < 1.2e-8 over the open unit
    interval — far below any stopping tolerance used here)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    try:
        from scipy import stats

        return float(stats.norm.ppf(q))
    except ImportError:  # pragma: no cover - scipy is present in dev envs
        return _norm_ppf_fallback(q)


def _norm_ppf_fallback(q: float) -> float:
    """Acklam's inverse-normal approximation (pure stdlib)."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    q_low = 0.02425
    if q < q_low:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
            ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    if q > 1.0 - q_low:
        return -_norm_ppf_fallback(1.0 - q)
    u = q - 0.5
    r = u * u
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * u / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def wilson_interval(
    successes: float, trials: float, level: float = 0.95
) -> "tuple[float, float]":
    """Wilson score interval for a binomial proportion.

    The default stopping interval: near-nominal coverage even at small
    counts and proportions near 0/1 (where the Wald interval collapses),
    and cheap enough to evaluate after every trial chunk.
    """
    _check_counts(successes, trials)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    z = _norm_ppf(0.5 + level / 2.0)
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def clopper_pearson_interval(
    successes: float, trials: float, level: float = 0.95
) -> "tuple[float, float]":
    """Clopper-Pearson (exact) interval for a binomial proportion.

    Guaranteed-conservative alternative to Wilson: coverage is at least
    nominal for every (p, n), at the price of wider intervals (slower
    stopping).  Quantiles of the beta distribution via scipy when
    available, else a regularized-incomplete-beta bisection.
    """
    _check_counts(successes, trials)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    alpha = 1.0 - level
    k, n = float(successes), float(trials)
    low = 0.0 if k <= 0 else _beta_ppf(alpha / 2.0, k, n - k + 1.0)
    high = 1.0 if k >= n else _beta_ppf(1.0 - alpha / 2.0, k + 1.0, n - k)
    return low, high


def _check_counts(successes: float, trials: float) -> None:
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0.0 <= successes <= trials:
        raise ValueError(
            f"successes must lie in [0, trials={trials}], got {successes}"
        )


def _beta_ppf(q: float, a: float, b: float) -> float:
    """Beta distribution quantile; scipy when present, else bisection."""
    try:
        from scipy import stats

        return float(stats.beta.ppf(q, a, b))
    except ImportError:  # pragma: no cover - scipy is present in dev envs
        return _beta_ppf_fallback(q, a, b)


def _beta_ppf_fallback(q: float, a: float, b: float) -> float:
    """Invert the regularized incomplete beta by bisection.

    60 halvings pin the root to ~1e-18, far below the 1e-6-ish accuracy
    the continued-fraction CDF itself delivers; both are orders of
    magnitude tighter than any stopping tolerance.
    """
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = (low + high) / 2.0
        if _beta_cdf(mid, a, b) < q:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` (continued fraction)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def family_interval(
    accuracies: Sequence[float],
    n_images: int,
    level: float = 0.95,
    method: str = "wilson",
    weights: "Sequence[float] | None" = None,
) -> "tuple[float, float]":
    """``(estimate, ci_halfwidth)`` for one (rate, trial-family) cell.

    Unweighted families pool the image-level correct/incorrect counts of
    all executed trials into one binomial and interval it with the named
    method.  Importance-weighted families use the normal-approximation
    interval over the per-trial products ``w_t * acc_t`` instead (the
    pooled-count reduction does not survive reweighting); with a single
    trial the half-width is infinite, so a weighted family never stops
    before its second trial.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    accs = [float(a) for a in accuracies]
    if not accs:
        raise ValueError("family_interval needs at least one executed trial")
    if weights is not None:
        values = np.asarray(
            [w * a for w, a in zip(weights, accs)], dtype=np.float64
        )
        if values.size != len(accs):
            raise ValueError("weights must parallel accuracies")
        estimate = float(values.mean())
        if values.size < 2:
            return estimate, math.inf
        z = _norm_ppf(0.5 + level / 2.0)
        half = z * float(values.std(ddof=1)) / math.sqrt(values.size)
        return estimate, half
    n = len(accs) * int(n_images)
    # Per-trial accuracies are exact fractions k_t/n_images; rounding per
    # trial recovers the integer counts without float drift.
    successes = sum(round(a * n_images) for a in accs)
    interval = (
        wilson_interval if method == "wilson" else clopper_pearson_interval
    )
    low, high = interval(successes, n, level)
    return successes / n, (high - low) / 2.0


# --------------------------------------------------------------------- #
# the batched kernel
# --------------------------------------------------------------------- #


@dataclass
class FaultVariant:
    """One member of a variant family: how to apply it, what it touches.

    ``apply`` returns a fresh context manager that installs the fault
    set (``injector.apply(fault_set)`` et al.); ``affected`` is the
    injector's cut-point report for that fault set, the same names the
    suffix engine consumes.
    """

    apply: Callable[[], Any]
    affected: "tuple[str, ...]"


class BatchedSuffixKernel:
    """Shared-tail batched evaluation of fault-variant families.

    Splits the model at ``tail_start`` — one past the last top-level
    child any variant in the family faults — and evaluates the family
    as K individual prefix runs (each under its own injection context,
    each starting from the suffix engine's cached boundary when one
    applies) plus one wide forward over the common tail.  Falls back to
    the exact per-cell path variant-by-variant whenever batching cannot
    be proven safe: unknown layer names, models without a top-level
    index, empty fault sets (the clean-logits shortcut is already free),
    or a tail signature whose wide forward failed bitwise verification.
    """

    def __init__(
        self,
        model: nn.Module,
        images: np.ndarray,
        batch_size: int,
        engine: "SuffixForwardEngine | None" = None,
        batch_k: int = 0,
    ):
        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        self.batch_size = int(batch_size)
        self.engine = engine
        k = int(batch_k)
        if k <= 0 or batched_globally_disabled():
            k = 1
        self.batch_k = k
        self._top_index: "dict[str, int] | None" = None
        if isinstance(model, nn.Sequential) and len(model) > 0:
            self._top_index = _top_level_index_map(model)
        self._starts = list(range(0, self.images.shape[0], self.batch_size))
        # Wide-tail verdict per (tail_start, K, frontier shape): True
        # once the wide forward matched the per-variant tails bit for
        # bit, False (permanent per-variant fallback) on any mismatch.
        self._verified: "dict[tuple, bool]" = {}
        self.stats = {
            "families": 0,
            "variants_batched": 0,
            "variants_single": 0,
            "wide_tail_batches": 0,
            "verified_signatures": 0,
            "fallback_signatures": 0,
        }

    @property
    def enabled(self) -> bool:
        """Whether families can batch at all on this model/config."""
        return (
            self.batch_k > 1
            and self._top_index is not None
            and bool(self._starts)
        )

    def run_family(
        self,
        variants: Sequence[FaultVariant],
        measure: Callable[[Any], Any],
    ) -> list[Any]:
        """Evaluate every variant; returns per-variant ``measure`` values.

        ``measure(forward)`` must consume the model's logits exclusively
        through ``forward(batch, offset)`` calls over the kernel's
        evaluation batches — true of every cell task built on
        :func:`~repro.core.metrics.predict_labels` /
        :func:`~repro.core.metrics.evaluate_accuracy_arrays`.  Batched
        variants get a replay forward over precomputed logits; fallback
        variants get exactly the per-cell suffix/full forward.
        """
        self.stats["families"] += 1
        if not self.enabled:
            self.stats["variants_single"] += len(variants)
            return [self._run_single(v, measure) for v in variants]
        values: list[Any] = [None] * len(variants)
        group: "list[tuple[int, FaultVariant, tuple[int, int]]]" = []
        for index, variant in enumerate(variants):
            span = self._cut_span(variant.affected)
            if span is None:
                self.stats["variants_single"] += 1
                values[index] = self._run_single(variant, measure)
            else:
                group.append((index, variant, span))
        for start in range(0, len(group), self.batch_k):
            chunk = group[start : start + self.batch_k]
            if len(chunk) == 1:
                self.stats["variants_single"] += 1
                values[chunk[0][0]] = self._run_single(chunk[0][1], measure)
                continue
            self.stats["variants_batched"] += len(chunk)
            logits = self._family_logits(chunk)
            for (index, _, _), per_batch in zip(chunk, logits):
                values[index] = measure(self._replay(per_batch))
        return values

    # ------------------------------------------------------------------ #

    def _cut_span(self, affected: Sequence[str]) -> "tuple[int, int] | None":
        """``(first, last)`` faulted top-level indices, or ``None``.

        ``None`` routes the variant to the exact per-cell path: an empty
        fault set (the engine's clean shortcut already costs nothing) or
        a layer name outside the top-level map (no sound tail bound).
        """
        if not affected or self._top_index is None:
            return None
        indices = [self._top_index.get(name) for name in affected]
        if any(index is None for index in indices):
            return None
        return min(indices), max(indices)  # type: ignore[type-var]

    def _run_single(self, variant: FaultVariant, measure) -> Any:
        """The exact per-cell path for one variant (the reference)."""
        forward = None
        if self.engine is not None:
            forward = self.engine.forward_fn(list(variant.affected))
        with variant.apply():
            return measure(forward)

    def _family_logits(self, chunk) -> "list[list[np.ndarray]]":
        """Per-variant, per-batch output logits for one batched chunk."""
        tail_start = max(last for _, _, (_, last) in chunk) + 1
        was_training = self.model.training
        self.model.eval()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                frontiers = [
                    self._variant_frontiers(variant, tail_start)
                    for _, variant, _ in chunk
                ]
                if tail_start >= len(self.model):
                    return frontiers
                return self._run_tail(tail_start, frontiers)
        finally:
            self.model.train(was_training)

    def _variant_frontiers(
        self, variant: FaultVariant, tail_start: int
    ) -> "list[np.ndarray]":
        """Run one variant's prefix+faulted span under its injection.

        Starts each batch from the suffix engine's deepest cached clean
        boundary when one applies (the skipped prefix is untouched by
        the faults — the engine's own bit-identity argument), else from
        the raw images; stops at ``tail_start``.
        """
        prefix_start = None
        if self.engine is not None:
            prefix_start = self.engine.start_index_for(list(variant.affected))
        outputs: "list[np.ndarray]" = []
        with variant.apply():
            for batch_index, offset in enumerate(self._starts):
                begin, x = 0, self.images[offset : offset + self.batch_size]
                if prefix_start is not None:
                    cached = self.engine.cached_input(batch_index, prefix_start)
                    if cached is not None:
                        begin, x = prefix_start, cached
                outputs.append(
                    self.model.forward_from(begin, x, stop=tail_start)
                )
        return outputs

    def _run_tail(
        self, tail_start: int, frontiers: "list[list[np.ndarray]]"
    ) -> "list[list[np.ndarray]]":
        """Push all frontiers through the clean tail, wide when proven.

        The tail's weights are fault-free under *every* variant of the
        group (that is how ``tail_start`` was chosen), so per-variant
        tail runs are bit-identical to what each variant's own full
        suffix would compute.  The wide (concatenated) run is used only
        for signatures that passed bitwise verification; verification
        batches compute both and return the per-variant reference.
        """
        n_variants = len(frontiers)
        out: "list[list[np.ndarray]]" = [
            [None] * len(self._starts) for _ in range(n_variants)
        ]
        for batch_index in range(len(self._starts)):
            blocks = [frontiers[k][batch_index] for k in range(n_variants)]
            signature = (tail_start, n_variants, tuple(blocks[0].shape))
            verdict = self._verified.get(signature)
            if verdict is None:
                references = [
                    self.model.forward_from(tail_start, block)
                    for block in blocks
                ]
                wide = self.model.forward_from(
                    tail_start, np.concatenate(blocks, axis=0)
                )
                row = 0
                verdict = True
                for block, reference in zip(blocks, references):
                    rows = block.shape[0]
                    if not np.array_equal(
                        wide[row : row + rows], reference, equal_nan=True
                    ):
                        verdict = False
                        break
                    row += rows
                self._verified[signature] = verdict
                self.stats[
                    "verified_signatures" if verdict else "fallback_signatures"
                ] += 1
                for k in range(n_variants):
                    out[k][batch_index] = references[k]
            elif verdict:
                wide = self.model.forward_from(
                    tail_start, np.concatenate(blocks, axis=0)
                )
                self.stats["wide_tail_batches"] += 1
                row = 0
                for k, block in enumerate(blocks):
                    rows = block.shape[0]
                    out[k][batch_index] = wide[row : row + rows]
                    row += rows
            else:
                for k, block in enumerate(blocks):
                    out[k][batch_index] = self.model.forward_from(
                        tail_start, block
                    )
        return out

    def _replay(self, per_batch: "list[np.ndarray]"):
        """A batch-forward that serves the precomputed logits."""
        table = {
            offset: logits for offset, logits in zip(self._starts, per_batch)
        }

        def forward(batch: np.ndarray, offset: int) -> np.ndarray:
            logits = table.get(int(offset))
            if logits is None or logits.shape[0] != batch.shape[0]:
                raise RuntimeError(
                    "batched kernel replay saw an evaluation batch it did "
                    "not precompute (offset mismatch with the task's "
                    "images/batch_size)"
                )
            return logits

        return forward


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

    @classmethod
    def from_bitpos(
        cls, result: "BitPositionResult", k: int = 9, boost: float = 8.0
    ) -> "ImportanceBitflipSampler":
        """Seed the hot set from measured bit-position damage evidence."""
        return cls(
            boost=boost,
            hot_positions=tuple(
                int(p) for p in result.most_damaging_positions(k)
            ),
        )

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
    *family*: trials run in chunks of ``batch_k`` (through the base
    runner's batched path, so intra-chunk variants share wide tails)
    and the family stops once its pooled interval's half-width is at
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
        level: float = 0.95,
        method: str = "wilson",
        importance: "ImportanceBitflipSampler | float | None" = None,
        min_trials: int = 2,
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
        if method not in _METHODS:
            raise ValueError(
                f"method must be one of {_METHODS}, got {method!r}"
            )
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
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
        self.level = float(level)
        self.method = str(method)
        self.importance = importance
        # The chunk width is scientific for adaptive runs: the stopping
        # rule is evaluated at chunk boundaries, so it shapes which
        # trials execute.  0 resolves to DEFAULT_BATCH_K here (never to
        # the environment, which must not move stopping decisions).
        self.batch_k = int(batch_k) if int(batch_k) > 0 else DEFAULT_BATCH_K
        self.min_trials = min(max(1, int(min_trials)), self.max_trials)
        self.label = base.label if label is None else label
        self.kind = f"adaptive:{base.kind}"
        self.config = replace(base.config, trials=1)
        self.cell_width = adaptive_cell_width(
            self.max_trials, weighted=importance is not None
        )

    def __getstate__(self) -> dict:
        from repro.core.executor import payload_state

        return payload_state(self)

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
        chunk_width = task.batch_k
        accuracies: "list[float]" = []
        weights: "list[float] | None" = (
            [] if task.importance is not None else None
        )
        estimate = 0.0
        while len(accuracies) < total:
            upto = min(len(accuracies) + chunk_width, total)
            trial_indices = list(range(len(accuracies), upto))
            if weights is not None:
                draws = [self._draw(rate_index, j) for j in trial_indices]
                values = self.inner.run_fault_sets([fs for fs, _ in draws])
                weights.extend(weight for _, weight in draws)
            else:
                values = self.inner.run_cells(
                    [(rate_index, j) for j in trial_indices]
                )
            accuracies.extend(float(value) for value in values)
            estimate, halfwidth = family_interval(
                accuracies,
                self.n_images,
                level=task.level,
                method=task.method,
                weights=weights,
            )
            if (
                len(accuracies) >= task.min_trials
                and halfwidth <= task.ci_halfwidth
            ):
                break
        vector = np.full(task.cell_width, SKIP_SENTINEL, dtype=np.float64)
        vector[0] = estimate
        vector[1] = len(accuracies)
        vector[2 : 2 + len(accuracies)] = accuracies
        if weights is not None:
            offset = 2 + total
            vector[offset : offset + len(weights)] = weights
        return vector

    def _draw(self, rate_index: int, trial: int):
        """One importance draw on the cell's own seed path."""
        from repro.core.executor import cell_seed_path

        base = self.task.base
        rate = float(base.config.fault_rates[rate_index])
        rng = self.inner.tree.generator(cell_seed_path(rate_index, trial))
        return self.task.importance.sample_with_weight(base.memory, rate, rng)

    def close(self) -> None:
        self.inner.close()


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
    level: float
    method: str
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
            level=task.level,
            method=task.method,
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
        level: float = 0.95,
        method: str = "wilson",
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
                level=level,
                method=method,
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
            level=float(level),
            method=str(method),
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
            "level": float(self.level),
            "method": self.method,
            "clean_accuracy": float(self.clean_accuracy),
        }
        if self.weights is not None:
            payload["importance_weights"] = [
                [float(w) for w in row] for row in self.weights
            ]
        return payload
