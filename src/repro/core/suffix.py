"""Suffix re-execution: skip the clean prefix of scoped fault campaigns.

Every Monte-Carlo cell of a *scoped* campaign — layerwise analysis,
Algorithm-1 boundary evaluation, activation-fault sweeps, quantized
scoped sweeps — faults a known set of layers, yet historically re-ran the
**full** forward pass over the evaluation set for every cell.  All
activations upstream of the first faulted layer are bit-identical to the
clean run (the prefix weights are untouched by construction), so that
prefix was recomputed thousands of times for nothing.

:class:`SuffixForwardEngine` removes that waste:

* **One clean pass per runner.**  At construction the engine runs a
  single fault-free forward over the evaluation set (in eval mode, same
  batching as :func:`repro.core.metrics.predict_labels`) and caches, per
  batch, the tensor flowing into every *candidate cut layer* — the
  top-level children of the model that contain the campaign's faultable
  layers — via :meth:`repro.nn.Sequential.forward_collect`.  The clean
  logits are kept as well.
* **Per-cell suffix execution.**  :meth:`forward_fn` receives the layers
  a cell's fault set actually touches (the injector's cut-point report)
  and returns a per-batch forward replacement that re-executes only from
  the deepest cached boundary at or above the first faulted layer, via
  :meth:`repro.nn.Sequential.forward_from`.  Cells whose fault set is
  empty (common at low rates) return the cached clean logits outright.
* **Bit-identity by construction.**  The cached boundary tensor *is* the
  tensor the full forward would recompute — the skipped prefix is
  untouched by the faults — and evaluation is deterministic NumPy
  whose bytes do not depend on the BLAS thread count, so the suffix
  output equals the full-forward output bit for bit.  ``tests/test_core_suffix.py`` guards this with a
  registry-wide hypothesis property test.
* **Memory budget with graceful fallback.**  Cached boundaries are
  admitted deepest-first while the projected total stays within a byte
  budget (``REPRO_SUFFIX_BUDGET_MB``, default 256).  A cut below every
  cached boundary — or a batch the cache does not recognise — falls back
  to the plain full forward, never to an error.
* **One clean pass per host.**  A built engine can
  :meth:`~SuffixForwardEngine.export_cache` its state as a picklable
  :class:`SharedSuffixCache`; the campaign executor publishes that cache
  through the shared-memory tensor plane (:mod:`repro.utils.shm`) and
  every worker on the host rebuilds its engine from **read-only
  zero-copy views** of the same activations via :func:`shared_cache`
  instead of re-running the clean pass.  The cache is what the worker
  would have computed — same weights (bit-exact pickle round-trip),
  same batching, bytes independent of the BLAS thread count — so
  sharing it changes nothing but wall clock (``docs/MEMORY_MODEL.md``
  documents the lifecycle).

The engine is an execution detail, not science: results are bit-identical
with it on or off, which the determinism test matrix checks for every
campaign type (suffix on/off x workers 1/2 x zero-copy on/off).  Disable
globally with ``REPRO_NO_SUFFIX=1`` or per campaign with the
``suffix=False`` keyword.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import nn
from repro.models.registry import computational_layers
from repro.utils.validation import env_number

__all__ = [
    "SuffixForwardEngine",
    "SharedSuffixCache",
    "shared_cache",
    "suffix_budget_bytes",
    "suffix_globally_disabled",
]

_BUDGET_ENV = "REPRO_SUFFIX_BUDGET_MB"
_DISABLE_ENV = "REPRO_NO_SUFFIX"
_DEFAULT_BUDGET_MB = 256


def suffix_globally_disabled() -> bool:
    """Whether ``REPRO_NO_SUFFIX`` turns suffix re-execution off."""
    return os.environ.get(_DISABLE_ENV, "").strip() not in ("", "0")


def suffix_budget_bytes() -> int:
    """The activation-cache byte budget (``REPRO_SUFFIX_BUDGET_MB`` env)."""
    megabytes = env_number(
        _BUDGET_ENV, float, "a number of megabytes", _DEFAULT_BUDGET_MB
    )
    return max(0, int(megabytes * 1024 * 1024))


@dataclass(frozen=True)
class SharedSuffixCache:
    """A picklable snapshot of one engine's clean pass, shared via shm.

    Holds everything a sibling engine over a bit-identical model copy
    needs to skip its own clean forward: the per-batch boundary tensors,
    the clean logits, the batch shapes, and the admitted boundary
    indices.  All arrays are contiguous, so the tensor plane
    (:mod:`repro.utils.shm`) ships them out-of-band and workers map them
    as read-only views — the cache is read-mostly by design (the engine
    never mutates cached activations).

    ``batch_size`` and ``batch_shapes`` double as the compatibility
    fingerprint: :meth:`SuffixForwardEngine.build` silently ignores a
    cache that does not match its own evaluation set and falls back to
    running the clean pass locally.
    """

    batch_size: int
    batch_shapes: "tuple[tuple[int, ...], ...]"
    cached_indices: "tuple[int, ...]"
    cached: "tuple[dict[int, np.ndarray], ...]"
    clean_logits: "tuple[np.ndarray, ...]"


# The cache offered to the next engine build in this process, if any.
# Set by the executor's worker loop around ``task.make_runner()`` — the
# runner's engine then attaches shared activations instead of running
# its own clean pass.  A plain module global: workers are single-threaded
# and exactly one runner is built per context.
_SHARED_CACHE: "SharedSuffixCache | None" = None


@contextmanager
def shared_cache(cache: "SharedSuffixCache | None") -> Iterator[None]:
    """Offer ``cache`` to engines built inside the block.

    The executor wraps ``task.make_runner()`` in this context on the
    worker side; :meth:`SuffixForwardEngine.build` consumes the offer if
    (and only if) the cache matches its evaluation set.  ``None`` is a
    no-op, so call sites need no conditional.
    """
    global _SHARED_CACHE
    previous = _SHARED_CACHE
    _SHARED_CACHE = cache
    try:
        yield
    finally:
        _SHARED_CACHE = previous


def _top_level_index_map(model: nn.Sequential) -> "dict[str, int] | None":
    """Map each paper-style layer name to the top-level child holding it.

    Returns ``None`` when some computational layer is not reachable under
    a top-level child (an exotic model shape the engine does not handle).
    """
    owners: dict[int, set[int]] = {}
    for index, child in enumerate(model):
        owners[index] = {id(module) for module in child.modules()}
    mapping: dict[str, int] = {}
    for name, module in computational_layers(model):
        for index, ids in owners.items():
            if id(module) in ids:
                mapping[name] = index
                break
        else:
            return None
    return mapping


class SuffixForwardEngine:
    """Cached-prefix forward engine over one model and evaluation set.

    Build through :meth:`build`, which returns ``None`` whenever suffix
    re-execution cannot help (unsupported model shape, empty candidate
    set, global disable) — callers then simply keep the full-forward
    path.  When a compatible :class:`SharedSuffixCache` is offered (via
    :func:`shared_cache`), construction attaches the published
    activations — typically read-only shared-memory views — instead of
    running its own clean pass; ``stats["from_shared_cache"]`` records
    which way the engine was built.
    """

    def __init__(
        self,
        model: nn.Sequential,
        images: np.ndarray,
        batch_size: int,
        top_index: "dict[str, int]",
        candidates: Sequence[int],
        budget_bytes: int,
        clean_shortcut: bool,
        shared: "SharedSuffixCache | None" = None,
    ):
        self.model = model
        self.batch_size = int(batch_size)
        self.clean_shortcut = bool(clean_shortcut)
        self._top_index = dict(top_index)
        self.stats = {
            "cells_clean_shortcut": 0,
            "batches_suffix": 0,
            "batches_full": 0,
            "cached_bytes": 0,
            "from_shared_cache": shared is not None,
        }

        starts = list(range(0, images.shape[0], self.batch_size))
        self._batch_of_start = {start: i for i, start in enumerate(starts)}
        self._clean_logits: list[np.ndarray] = []
        # Per batch: {top-level child index: tensor flowing into it}.
        self._cached: list[dict[int, np.ndarray]] = []
        self._batch_shapes: list[tuple[int, ...]] = []

        if shared is not None:
            # Attach the published clean pass: the cache holds exactly
            # what the loop below would compute over a bit-identical
            # model copy, so no forward runs at all.  Cached arrays are
            # treated as read-only throughout (suffix execution only
            # ever reads them), so shared views need no copy.
            self._batch_shapes = [tuple(shape) for shape in shared.batch_shapes]
            self._cached = [dict(batch) for batch in shared.cached]
            self._clean_logits = list(shared.clean_logits)
            kept: "list[int] | None" = list(shared.cached_indices)
        else:
            kept = None  # decided from the first batch
            was_training = model.training
            model.eval()
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    for start in starts:
                        batch = images[start : start + self.batch_size]
                        self._batch_shapes.append(batch.shape)
                        wanted = candidates if kept is None else kept
                        logits, captured = model.forward_collect(batch, wanted)
                        if kept is None:
                            kept = self._admit_within_budget(
                                captured, batch.shape[0], images.shape[0],
                                budget_bytes,
                            )
                            captured = {i: captured[i] for i in kept}
                        self._cached.append(captured)
                        self._clean_logits.append(logits)
            finally:
                model.train(was_training)
        self.cached_indices = sorted(kept or [])
        self.stats["cached_bytes"] = sum(
            array.nbytes for batch in self._cached for array in batch.values()
        )

    @staticmethod
    def _admit_within_budget(
        captured: "dict[int, np.ndarray]",
        first_batch: int,
        total_images: int,
        budget_bytes: int,
    ) -> list[int]:
        """Pick the boundaries to keep: deepest first, projected to fit.

        Deeper boundaries skip more prefix per cell (and, conveniently,
        activations usually shrink through the network), so when the
        budget cannot hold everything the shallow boundaries are dropped
        first — their cuts then fall back toward the full forward.
        """
        kept: list[int] = []
        spent = 0
        for index in sorted(captured, reverse=True):
            per_sample = captured[index].nbytes / max(first_batch, 1)
            projected = int(per_sample * total_images)
            if spent + projected > budget_bytes:
                continue
            spent += projected
            kept.append(index)
        return kept

    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        model: nn.Module,
        images: np.ndarray,
        batch_size: int,
        scope_layers: "Iterable[str] | None" = None,
        budget_bytes: "int | None" = None,
        clean_shortcut: bool = True,
        enabled: bool = True,
    ) -> "SuffixForwardEngine | None":
        """Build an engine, or ``None`` when it cannot pay for itself.

        ``scope_layers`` are the paper-style names of the layers the
        campaign can fault (a scoped memory's ``layer_names()``, an
        activation injector's hooked layers); ``None`` means any
        computational layer.  ``clean_shortcut`` keeps the engine alive
        purely for empty-fault-set cells even when every cut would start
        at layer 0 (weight campaigns want this; activation campaigns,
        whose faults are sampled during the forward itself, do not).
        """
        if not enabled or suffix_globally_disabled():
            return None
        if not isinstance(model, nn.Sequential) or len(model) == 0:
            return None
        images = np.asarray(images)
        if images.ndim == 0 or images.shape[0] == 0:
            return None
        top_index = _top_level_index_map(model)
        if top_index is None:
            return None
        if scope_layers is None:
            scope = list(top_index)
        else:
            scope = list(scope_layers)
            if any(name not in top_index for name in scope):
                return None
        candidates = sorted({top_index[name] for name in scope} - {0})
        if not candidates and not clean_shortcut:
            return None
        budget = suffix_budget_bytes() if budget_bytes is None else int(budget_bytes)
        shared = _SHARED_CACHE
        if shared is not None and not cls._cache_compatible(
            shared, images, int(batch_size), candidates
        ):
            shared = None  # incompatible offer: run the clean pass locally
        engine = cls(
            model,
            images,
            batch_size,
            top_index,
            candidates,
            budget,
            clean_shortcut,
            shared=shared,
        )
        if not engine.cached_indices and not clean_shortcut:
            # Budget admitted nothing and empty fault sets cannot occur:
            # every cell would fall back to the full forward anyway.
            return None
        return engine

    @staticmethod
    def _cache_compatible(
        cache: SharedSuffixCache,
        images: np.ndarray,
        batch_size: int,
        candidates: Sequence[int],
    ) -> bool:
        """Whether an offered cache matches this build's evaluation set.

        The batching fingerprint (batch size + per-batch shapes) must be
        exact and every published boundary must be one this engine would
        itself consider — anything else means the offer was made for a
        different task, and the build quietly runs its own clean pass.
        """
        if cache.batch_size != batch_size:
            return False
        expected = tuple(
            (min(batch_size, images.shape[0] - start),) + images.shape[1:]
            for start in range(0, images.shape[0], batch_size)
        )
        if tuple(cache.batch_shapes) != expected:
            return False
        return set(cache.cached_indices) <= set(candidates)

    def export_cache(self) -> "SharedSuffixCache | None":
        """Snapshot the clean pass for publication to sibling engines.

        Returns ``None`` once the engine is closed.  The snapshot
        references the engine's live arrays (no copy); the tensor plane
        copies them into the shared segment exactly once at ship time.
        """
        if not self._clean_logits and not self._cached:
            return None
        return SharedSuffixCache(
            batch_size=self.batch_size,
            batch_shapes=tuple(tuple(shape) for shape in self._batch_shapes),
            cached_indices=tuple(self.cached_indices),
            cached=tuple(dict(batch) for batch in self._cached),
            clean_logits=tuple(self._clean_logits),
        )

    # ------------------------------------------------------------------ #

    def start_index_for(self, affected_layers: Sequence[str]) -> "int | None":
        """Deepest cached boundary at or above the first affected layer.

        ``None`` means no cached boundary helps (fall back to the full
        forward).  An unknown layer name is treated conservatively as a
        cut at the very first layer.
        """
        indices = [self._top_index.get(name, 0) for name in affected_layers]
        cut = min(indices) if indices else 0
        start = None
        for index in self.cached_indices:
            if index <= cut:
                start = index
            else:
                break
        return start

    def forward_fn(self, affected_layers: Sequence[str]):
        """A :data:`~repro.core.metrics.BatchForward` for one cell.

        ``affected_layers`` is the cut-point report of the cell's fault
        set (:meth:`repro.hw.injector.FaultInjector.affected_layers`,
        :meth:`repro.hw.quant.QuantizedWeightMemory.affected_layers`, or
        an activation injector's hooked layers).  Returns ``None`` when
        the plain full forward is the right path.  Every trial takes
        this path, an adaptive family's included (it runs its chunks
        trial by trial), so :attr:`stats` counts every suffix forward.
        """
        if not affected_layers:
            if not self.clean_shortcut:
                return None
            self.stats["cells_clean_shortcut"] += 1
            return self._clean_forward
        start = self.start_index_for(affected_layers)
        if start is None:
            return None

        def suffix_forward(batch: np.ndarray, offset: int) -> np.ndarray:
            index = self._batch_of_start.get(offset)
            if index is None or batch.shape != self._batch_shapes[index]:
                self.stats["batches_full"] += 1
                return self.model(batch)
            self.stats["batches_suffix"] += 1
            return self.model.forward_from(start, self._cached[index][start])

        return suffix_forward

    def _clean_forward(self, batch: np.ndarray, offset: int) -> np.ndarray:
        """The zero-fault shortcut: replay the cached clean logits."""
        index = self._batch_of_start.get(offset)
        if index is None or batch.shape != self._batch_shapes[index]:
            self.stats["batches_full"] += 1
            return self.model(batch)
        return self._clean_logits[index]

    def close(self) -> None:
        """Release the cached activations (idempotent)."""
        self._cached = []
        self._clean_logits = []
        self.cached_indices = []
