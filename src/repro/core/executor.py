"""Parallel campaign execution: deterministic fan-out of (rate, trial) cells.

:class:`CampaignExecutor` is the single execution substrate for every
Monte-Carlo sweep in this codebase.  A sweep is described by one or more
*cell tasks* — picklable objects implementing :class:`CampaignCellTask` —
whose grid of ``(rate index, trial index)`` cells the executor evaluates
either in-process (``workers=1``, exactly the historical serial loops) or
across a :class:`concurrent.futures.ProcessPoolExecutor` worker pool.

Weight-fault campaigns (:class:`WeightFaultCellTask`, here), quantized
int8 campaigns (:class:`~repro.core.quantized.QuantizedCellTask`),
activation-fault campaigns
(:class:`~repro.hw.actfaults.ActivationFaultCellTask`) and the
vector-valued outcome/per-class analyses all speak this protocol, and
:meth:`CampaignExecutor.run_tasks` schedules cells from *several* tasks
(layerwise layers, mitigation variants, Algorithm-1 boundary thresholds)
into one shared pool instead of running campaigns back-to-back.

Design
------

**Cell protocol.**  A task is a picklable description of one campaign:
``task.make_runner()`` builds the mutable per-process machinery (fault
injector, quantized deployment, activation hooks), and
``runner.run_cell(rate_index, trial)`` evaluates one cell.  The
in-process lane builds the runner over the caller's live objects; a
worker builds it over its own mapped copy — the *same code* runs in
both, so determinism holds by construction rather than by keeping loops
in sync.

**Zero-copy shipping.**  Each task packs once into a
:class:`~repro.utils.shm.PackedUnit` (pickle protocol 5, tensors
out-of-band) whose bytes also feed the checkpoint CRC.  All units —
plus each task's suffix-engine clean pass, run once in the parent
(region ``suffix/<task>``) — are laid out in one shared-memory *tensor
plane* per sweep generation, which workers attach once and map as
read-only numpy views; injection privatizes only the regions its fault
set touches (copy-on-write).  Without shared memory the plane travels
inline, with bit-identical results.  ``persistent=True`` keeps a warm
pool across :meth:`CampaignExecutor.run_tasks` calls, since payloads
travel per generation rather than through the pool initializer.  See
``docs/MEMORY_MODEL.md``.

**Suffix re-execution.**  Every runner owns a
:class:`~repro.core.suffix.SuffixForwardEngine`: one clean forward pass
caches the tensor entering every faultable layer, and each cell
re-executes only from the first layer its fault set touches.

**Determinism.**  The per-cell seed depends only on
``(campaign seed, rate index, trial index)`` via
:class:`~repro.utils.rng.SeedTree` (path ``rate/<i>/trial/<j>``), never on
which worker evaluates the cell, which task the cell belongs to, or in
which order cells complete.  Worker state is a bit-exact copy of the
parent's and evaluation is deterministic NumPy whose bytes do not
depend on the BLAS thread count, so parallel and cross-campaign runs
produce results *bit-identical* to running each campaign's serial loop
back-to-back — the common-random-numbers contract of ``campaign.py``
survives any scheduling.  ``tests/test_conformance.py`` checks the
store bytes across worker and BLAS thread counts.

**BLAS thread budget.**  NumPy's OpenBLAS starts one thread per CPU in
every process, so a pool of ``W`` workers on ``C`` CPUs would run
``W x C`` BLAS threads.  Each pool worker therefore caps its BLAS
threads at ``max(1, C // W)`` in the pool initializer
(:mod:`repro.utils.blas`), where ``C`` is this process's CPU affinity
count; the cap only ever lowers the count a worker inherited, so an
``OPENBLAS_NUM_THREADS`` set before launch still bounds it.  The parent
and the in-process lane keep their count.

**Dispatch.**  Cells are enumerated task-major, rate-major (the serial
order) and fed to one supervised loop — retry, backoff, quarantine,
timeouts and pool rebuilds exist once — through one of two *lanes*.
Its rules arrive as one :class:`SupervisionPolicy`.  The pool lane
splits the cells into contiguous single-task chunks, about four per
worker across all tasks, and keeps up to two chunks per worker in
flight.  The in-process lane (``workers=1``, and the fallback after
repeated pool losses) evaluates one cell per dispatch on the caller's
live tasks, so its futures are already finished when the loop waits on
them.  Results are written back into each task's ``(n_rates,
n_trials)`` value grid by index, so completion order is irrelevant.

**Streaming and resume.**  An optional per-cell ``progress`` callback
receives a :class:`CellResult` as each value lands, and an optional
``checkpoint`` file — an append-only JSONL journal — records each
completed cell before its callback fires, so an interrupted sweep
restarted with the same configuration re-runs only the missing cells.
The journal's header fingerprints each task's kind (a quantized
checkpoint can never resume a weight-fault sweep), config grid and a CRC
of its pickled content.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.core.chaos import ChaosPolicy
from repro.core.metrics import ResilienceCurve, evaluate_accuracy_arrays
from repro.utils import blas
from repro.utils.rng import SeedTree
from repro.utils.serialization import trim_torn_tail
from repro.utils.shm import PackedUnit, ShippedPlane, pack_object, ship_units

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.campaign import CampaignConfig, FaultSampler
    from repro.core.suffix import SharedSuffixCache

__all__ = [
    "CellResult",
    "CellTimeoutError",
    "ProgressCallback",
    "CellRecorder",
    "CellRunner",
    "CampaignCellTask",
    "InjectionCellRunner",
    "WeightFaultCellTask",
    "CampaignExecutor",
    "SupervisionPolicy",
    "ON_CELL_ERROR_CHOICES",
    "FAILURE_REASONS",
    "FAILED_CELL_FIELDS",
    "payload_state",
    "resolve_workers",
    "cell_seed_path",
]

# v4: the checkpoint became an append-only JSONL journal (header line +
# one line per cell); v3 and earlier were whole-file JSON documents
# and cannot resume.
_CHECKPOINT_VERSION = 4


def cell_seed_path(rate_index: int, trial: int) -> str:
    """The :class:`SeedTree` path of one campaign cell.

    This string is the determinism contract between the in-process
    lane and the worker pool: both derive the cell's generator from it.
    """
    return f"rate/{rate_index}/trial/{trial}"


def resolve_workers(workers: int) -> int:
    """Normalize a worker count: ``0`` means one worker per CPU core."""
    if not isinstance(workers, (int, np.integer)):
        raise TypeError(f"workers must be an int, got {type(workers).__name__}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = cpu_count), got {workers}")
    if workers == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return os.cpu_count() or 1
    return int(workers)


# What to do when a cell's evaluation raises an exception (worker deaths
# and timeouts are infrastructure faults and are always retried first):
#   abort      - re-raise immediately (the historical behavior, default)
#   retry      - retry up to max_retries times, then quarantine
#   quarantine - mark the cell failed on the first blamed error
ON_CELL_ERROR_CHOICES = ("retry", "quarantine", "abort")

# Why a cell was quarantined.
FAILURE_REASONS = ("exception", "timeout", "worker-death")

# The first retry's backoff; each later blamed failure doubles it, up to
# 2**5 times.  No jitter: determinism extends to scheduling decisions.
RETRY_BACKOFF_S = 0.05
# Pool reconstructions before the executor swaps in the in-process lane.
MAX_POOL_REBUILDS = 8

# Schema of one quarantined-cell record (CampaignExecutor.quarantined,
# scenario "failed_cells" payloads, shard partial "failed" lists).  The
# failure-outcome table in docs/FAULT_TOLERANCE.md mirrors these fields
# and tests/test_docs_consistency.py enforces the match both directions.
FAILED_CELL_FIELDS = {
    "task": "label (or kind) of the owning campaign task",
    "task_index": "position of the task in the scheduling pass",
    "rate_index": "rate index of the quarantined cell",
    "trial": "trial index of the quarantined cell",
    "reason": "one of the FAILURE_REASONS: exception, timeout, worker-death",
    "attempts": "dispatch attempts consumed before the cell was given up",
    "error": "rendering of the last error ('' for timeouts without one)",
}


class CellTimeoutError(RuntimeError):
    """A cell dispatch exceeded the supervision policy's cell timeout."""


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the executor reacts to failing cells, workers and stalls.

    ``max_retries`` bounds the blamed failures a single cell may
    accumulate (infrastructure faults — worker deaths, timeouts — are
    always retried up to this bound regardless of ``on_cell_error``).
    ``cell_timeout`` is the per-cell wall-clock budget of a dispatch
    (``None`` disables timeouts; enforced on the worker pool only —
    in-process execution cannot be preempted).  ``on_cell_error`` picks
    the exception policy from :data:`ON_CELL_ERROR_CHOICES`; the
    default ``"abort"`` preserves the historical raise-on-first-error
    contract.  The retry backoff and the pool-rebuild budget are the
    module constants :data:`RETRY_BACKOFF_S` and
    :data:`MAX_POOL_REBUILDS`.

    The policy is the only way these rules reach the executor: callers
    build and validate it where the settings enter (the CLI builds one
    from ``--max-retries``, ``--cell-timeout`` and ``--on-cell-error``)
    and pass it down as ``supervision=``.
    """

    max_retries: int = 2
    cell_timeout: "float | None" = None
    on_cell_error: str = "abort"

    def __post_init__(self) -> None:
        if int(self.max_retries) < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        object.__setattr__(self, "max_retries", int(self.max_retries))
        if self.cell_timeout is not None:
            timeout = float(self.cell_timeout)
            if timeout <= 0:
                raise ValueError(
                    f"cell_timeout must be positive (or None), got {timeout}"
                )
            object.__setattr__(self, "cell_timeout", timeout)
        if self.on_cell_error not in ON_CELL_ERROR_CHOICES:
            raise ValueError(
                f"on_cell_error must be one of {ON_CELL_ERROR_CHOICES}, "
                f"got {self.on_cell_error!r}"
            )


def backoff_seconds(failures: int) -> float:
    """Deterministic exponential backoff after the n-th blamed failure."""
    if failures <= 0:
        return 0.0
    return RETRY_BACKOFF_S * (2.0 ** min(failures - 1, 5))


@dataclass(frozen=True)
class CellResult:
    """One completed (rate, trial) cell, streamed to progress callbacks.

    ``accuracy`` is the cell's primary scalar (the accuracy for curve
    campaigns, the first component for vector-valued analyses, whose full
    vector arrives in ``values``).  ``campaign_index`` / ``campaign_label``
    identify the owning task in a cross-campaign sweep.
    """

    rate_index: int
    trial: int
    fault_rate: float
    accuracy: float
    completed: int  # cells finished so far (including checkpointed ones)
    total: int  # total cells across all tasks in the sweep
    from_checkpoint: bool = False
    campaign_index: int = 0
    campaign_label: str = ""
    values: "tuple[float, ...] | None" = None
    # True for a quarantined cell: the accuracy is NaN and the full
    # failure record lands in CampaignExecutor.quarantined.
    failed: bool = False


ProgressCallback = Callable[[CellResult], None]


class CellRecorder(Protocol):
    """A sink for per-cell records (the result-store hook).

    Unlike a progress callback (presentation), a recorder is part of
    the result path: it sees every completed cell — including
    checkpoint-replayed ones — via :meth:`cell`, and every quarantined
    cell's full :data:`FAILED_CELL_FIELDS` record via :meth:`failure`
    (the matching ``failed=True`` :class:`CellResult` still flows
    through :meth:`cell`, so implementations that only want executed
    cells should skip results with ``failed`` set).
    :class:`repro.results.SegmentRecorder` streams these into the
    append-only per-cell store (see ``docs/RESULTS.md``).
    """

    def cell(self, result: CellResult) -> None: ...

    def failure(self, record: dict) -> None: ...


# --------------------------------------------------------------------- #
# the cell protocol
# --------------------------------------------------------------------- #


class CellRunner(Protocol):
    """Per-process campaign machinery built by a task's :meth:`make_runner`."""

    def run_cell(self, rate_index: int, trial: int) -> "float | Sequence[float]":
        """Evaluate one cell; must depend only on (seed, rate, trial)."""

    def close(self) -> None:
        """Tear down (restore weights, remove hooks); idempotent."""


class CampaignCellTask(Protocol):
    """A picklable description of one campaign's cell grid.

    ``kind`` discriminates campaign types in checkpoint fingerprints;
    ``cell_width`` is the number of scalars per cell (1 for accuracy
    curves).  ``build_result`` turns the assembled
    ``(n_rates, n_trials[, cell_width])`` value grid into the campaign's
    result object (usually a :class:`ResilienceCurve`).
    """

    kind: str
    label: str
    config: "CampaignConfig"
    cell_width: int

    def make_runner(self) -> CellRunner: ...

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> Any: ...


def payload_state(task: CampaignCellTask) -> dict:
    """The ``__getstate__`` shared by every cell task.

    Drops parent-side presentation (``label``) and caches (``_clean``)
    from the pickled payload, so the payload bytes — and hence the
    checkpoint CRC — depend only on the campaign's scientific content.
    """
    state = dict(task.__dict__)
    state["label"] = ""
    if "_clean" in state:
        state["_clean"] = None
    return state


def _accuracy_from_logits(
    current: "float | None",
    logits_batches: "Sequence[np.ndarray]",
    labels: np.ndarray,
) -> "float | None":
    """Top-1 accuracy from per-batch logits, mirroring
    :func:`~repro.core.metrics.evaluate_accuracy_arrays` exactly
    (per-batch argmax, concatenated, compared to the labels).  Returns
    ``current`` unchanged when it is already set or the batches do not
    cover the evaluation set.
    """
    if current is not None or not logits_batches:
        return current
    predictions = np.concatenate(
        [np.argmax(batch, axis=1) for batch in logits_batches]
    )
    if predictions.shape[0] != labels.shape[0]:  # pragma: no cover - defensive
        return current
    return float((predictions == labels).mean())


class InjectionCellRunner:
    """Injector + seed tree over one (possibly worker-local) model copy.

    The shared scaffold for every task that samples a weight-fault set
    and measures the model under injection — the accuracy campaign, the
    outcome taxonomy and the per-class analysis differ only in what
    ``task.measure()`` computes while the faults are applied.

    The runner owns a :class:`~repro.core.suffix.SuffixForwardEngine`
    (one clean pass over the eval set, cached prefix activations): each
    cell's fault set is located *before* injection and only the layers
    from the first faulted one onward are re-executed — bit-identical to
    the full forward, since the skipped prefix is untouched.  Cells whose
    fault set is empty replay the cached clean logits outright.
    """

    def __init__(self, task):
        from repro.core.suffix import SuffixForwardEngine
        from repro.hw.injector import FaultInjector

        self.task = task
        self.injector = FaultInjector(task.memory)
        self.tree = SeedTree(task.config.seed)
        self.engine = SuffixForwardEngine.build(
            task.model,
            task.images,
            task.config.batch_size,
            scope_layers=task.memory.layer_names(),
        )

    def fault_set(self, rate_index: int, trial: int):
        """The cell's fault draw on its deterministic seed path."""
        task = self.task
        rate = float(task.config.fault_rates[rate_index])
        rng = self.tree.generator(cell_seed_path(rate_index, trial))
        return task.sampler(task.memory, rate, rng)

    def run_fault_set(self, fault_set) -> "float | Sequence[float]":
        """Measure the model under one pre-drawn fault set."""
        forward = None
        if self.engine is not None:
            forward = self.engine.forward_fn(self.injector.affected_layers(fault_set))
        with self.injector.apply(fault_set):
            return self.task.measure(forward=forward)

    def run_cell(self, rate_index: int, trial: int) -> "float | Sequence[float]":
        return self.run_fault_set(self.fault_set(rate_index, trial))

    def close(self) -> None:
        # Injection restores per cell; only the activation cache remains.
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class WeightFaultCellTask:
    """The paper's campaign: sample weight faults, inject, evaluate, restore.

    :func:`~repro.core.campaign.run_campaign` and the scenario compiler
    build one from its parts.  The ``label`` and lazily-cached clean
    accuracy are parent-side and excluded from the pickled payload, so
    the payload bytes — and hence the checkpoint CRC — depend only on
    the campaign's scientific content.
    """

    kind = "weight-fault"
    cell_width = 1

    def __init__(
        self,
        model,
        memory,
        images: np.ndarray,
        labels: np.ndarray,
        config: "CampaignConfig | None" = None,
        sampler: "FaultSampler | None" = None,
        label: str = "",
    ):
        from repro.core.campaign import CampaignConfig, random_bitflip_sampler

        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.sampler = sampler if sampler is not None else random_bitflip_sampler()
        self.label = label
        self._clean: "float | None" = None

    def __getstate__(self) -> dict:
        return payload_state(self)

    def clean_accuracy(self) -> float:
        """Fault-free accuracy on the evaluation set (computed lazily)."""
        if self._clean is None:
            self._clean = evaluate_accuracy_arrays(
                self.model, self.images, self.labels, self.config.batch_size
            )
        return self._clean

    def absorb_clean_logits(self, logits_batches) -> None:
        """Seed the lazy clean accuracy from an engine's clean pass.

        The cached clean logits' argmax agreement with the labels is
        exactly what :meth:`clean_accuracy` would recompute with another
        full forward, so the executor feeds the export back instead.
        """
        self._clean = _accuracy_from_logits(
            self._clean, logits_batches, self.labels
        )

    def clean_pass_key(self) -> tuple:
        """The runner's clean pass: the model as-is, scoped to the memory."""
        return clean_pass_key(
            "float", self.model, self.images, self.config.batch_size,
            self.memory.layer_names(),
        )

    def measure(self, forward=None) -> float:
        """Accuracy of the (currently fault-injected) model."""
        return evaluate_accuracy_arrays(
            self.model, self.images, self.labels, self.config.batch_size,
            forward=forward,
        )

    def make_runner(self) -> InjectionCellRunner:
        return InjectionCellRunner(self)

    def build_result(self, rates: np.ndarray, values: np.ndarray) -> ResilienceCurve:
        return ResilienceCurve(
            fault_rates=rates,
            accuracies=values,
            clean_accuracy=self.clean_accuracy(),
            label=self.label,
        )


# --------------------------------------------------------------------- #
# worker-side machinery
# --------------------------------------------------------------------- #

# Per-process sweep state, set once by _init_worker.  Plain module
# globals: ProcessPoolExecutor workers are single-threaded and each
# process serves exactly one sweep *generation* at a time.  A warm pool
# outlives individual sweeps, so the payload travels with each chunk
# call — a tiny tensor-plane address, attached once per worker per
# generation — instead of the pool initializer.  Tasks load lazily and
# only one runner stays live per worker.
_WORKER_STATE: "dict | None" = None

# Parent-side generation ids: one per run_tasks scheduling pass, so a
# worker can tell a fresh region table from the one it already attached.
_GENERATION = iter(range(1, 2**62))


def _blas_budget(workers: int) -> int:
    """BLAS threads per worker of a ``workers``-process pool: the CPUs shared out."""
    return max(1, resolve_workers(0) // workers)


def _init_worker(blas_threads: int) -> None:
    """Pool initializer: cap BLAS threads, then empty slots for the first chunk.

    The cap only lowers the worker's inherited count.  Applying it here
    covers every start method, every pool rebuild and warm pools alike.
    """
    global _WORKER_STATE
    inherited = blas.blas_threads()
    if inherited is not None and inherited > blas_threads:
        blas.set_blas_threads(blas_threads)
    _WORKER_STATE = {
        "generation": None,
        "view": None,
        "task_index": None,
        "runner": None,
    }


def _worker_state(plane: ShippedPlane, generation: "tuple[int, int]") -> dict:
    """Attach this worker to ``plane``'s segment (once per generation).

    Teardown order matters under zero-copy: the runner (whose model
    arrays may be views into the old generation's segment) is released
    *before* the old plane view detaches, so the unmap never invalidates
    a live array.
    """
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - defensive: initializer always ran
        raise RuntimeError("campaign worker used before initialization")
    if state["generation"] != generation:
        if state["runner"] is not None:
            state["runner"].close()
            state["runner"] = None
        state["task_index"] = None
        if state["view"] is not None:
            state["view"].close()
        state["view"] = plane.open()
        state["generation"] = generation
    return state


def _task_runner(state: dict, task_index: int):
    """The worker's runner for ``task_index``, (re)built on task switch.

    Loading ``task/<i>`` maps the task's tensors as read-only views; if
    the parent published the task's clean pass (region ``suffix/<i>``), the
    runner's engine attaches it through the shared-cache offer instead
    of re-running the clean forward in this worker.
    """
    if state["task_index"] != task_index:
        from repro.core.suffix import shared_cache

        if state["runner"] is not None:
            state["runner"].close()
            state["runner"] = None
            state["task_index"] = None
        view = state["view"]
        task = view.load(f"task/{task_index}")
        cache_name = f"suffix/{task_index}"
        cache = view.load(cache_name) if cache_name in view else None
        with shared_cache(cache):
            state["runner"] = task.make_runner()
        state["task_index"] = task_index
    return state["runner"]


def _run_task_cells(
    plane: ShippedPlane,
    generation: "tuple[int, int]",
    task_index: int,
    cells: "Sequence[tuple[int, int, int]]",
) -> "list[tuple[int, int, int, float | Sequence[float]]]":
    """Evaluate a chunk of one task's cells in this worker.

    Each cell is ``(rate_index, trial, attempt)``, where ``attempt``
    counts earlier dispatches of the same cell and keys the chaos
    harness (:mod:`repro.core.chaos`): with the default
    ``attempts=1`` gate a re-dispatched cell is never disturbed twice,
    so recovery converges.  Chaos fires *before* the runner is touched,
    leaving retried dispatches clean state to evaluate from.
    """
    chaos = ChaosPolicy.from_env()
    if chaos is not None:
        chaos.disturb(
            task_index, [cell[:2] for cell in cells], [cell[2] for cell in cells]
        )
    runner = _task_runner(_worker_state(plane, generation), task_index)
    return [
        (task_index, rate_index, trial, runner.run_cell(rate_index, trial))
        for rate_index, trial, _ in cells
    ]


class _InProcessLane:
    """The pool stand-in the dispatch loop uses for in-process execution.

    :meth:`submit` evaluates the call at once and returns an already
    finished :class:`~concurrent.futures.Future`, so serial runs (and
    the fallback after repeated pool losses) share the pool's retry and
    quarantine code.  Exceptions land in the future like a worker's;
    ``KeyboardInterrupt`` and ``SystemExit`` propagate at once.
    :meth:`run_cells`, the counterpart of :func:`_run_task_cells`,
    evaluates on the caller's live tasks with one runner live — built on
    a task's first cell, closed on task switch and by :meth:`shutdown` —
    and runs chaos ``in_process`` (a ``kill`` would end the campaign).
    Runners are built through :class:`_CleanPasses`, so tasks with the
    same clean forward share one clean pass here as in the pool.
    """

    def __init__(
        self,
        tasks: Sequence[CampaignCellTask],
        queued: "Iterable[int]",
        chaos: "ChaosPolicy | None",
    ):
        self.passes = _CleanPasses(tasks, queued)
        self.chaos = chaos
        self.task_index: "int | None" = None
        self.runner: "CellRunner | None" = None

    def submit(self, call: Callable, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(call(*args))
        except Exception as error:
            future.set_exception(error)
        return future

    def run_cells(
        self, task_index: int, cells: "Sequence[tuple[int, int, int]]"
    ) -> "list[tuple[int, int, int, float | Sequence[float]]]":
        if self.chaos is not None:
            self.chaos.disturb(
                task_index,
                [cell[:2] for cell in cells],
                [cell[2] for cell in cells],
                in_process=True,
            )
        if self.task_index != task_index:
            self.shutdown()
            self.runner = self.passes.make_runner(task_index)
            self.task_index = task_index
        return [
            (task_index, rate_index, trial, self.runner.run_cell(rate_index, trial))
            for rate_index, trial, _ in cells
        ]

    def shutdown(self, cancel_futures: bool = False) -> None:
        """Close the live runner (restores the caller's model)."""
        if self.runner is not None:
            runner, self.runner, self.task_index = self.runner, None, None
            runner.close()


# --------------------------------------------------------------------- #
# parent-side packing and the checkpoint journal
# --------------------------------------------------------------------- #


def _pack_task(task: CampaignCellTask) -> PackedUnit:
    """Serialize one task once, for both the checkpoint CRC and the pool.

    An unpicklable task (e.g. a closure sampler) is an error here: the
    pool could not ship it, and a checkpoint could not fingerprint its
    content, so a journal could resume a different campaign.
    """
    try:
        return pack_object(task)
    except Exception as error:
        raise ValueError(
            f"campaign state of {task.label or task.kind!r} must be "
            "picklable for workers > 1 or a checkpoint; use a picklable "
            "sampler (e.g. random_bitflip_sampler(), ecc_sampler()) "
            "instead of a lambda/closure, or run with workers=1 and no "
            f"checkpoint ({error})"
        ) from error


def clean_pass_key(prepare: Any, model, images: np.ndarray, batch_size: int,
                   scope: Sequence[Any]) -> tuple:
    """The identity of a task's clean pass, as ``(forward, scope)``.

    ``forward`` fixes the clean logits: how the runner prepares the
    model (``prepare``), the model object, the eval array's memory
    (address, shape, strides, dtype) and the batch size.  ``scope``
    names what the runner's engine is built for, which fixes its cached
    boundaries.  Tasks with equal keys share one exported
    :class:`~repro.core.suffix.SharedSuffixCache`; tasks with equal
    ``forward`` share clean logits.  An identity key is sound only
    inside one executor call, whose tasks hold their models and images.
    """
    memory = (
        images.__array_interface__["data"][0],
        images.shape,
        images.strides,
        images.dtype.str,
    )
    return (prepare, id(model), memory, int(batch_size)), tuple(scope)


class _CleanPasses:
    """One clean pass per distinct clean forward, for either lane.

    ``queued`` names the tasks with cells queued for the lane.  Tasks
    with equal :func:`clean_pass_key` share one
    :class:`~repro.core.suffix.SharedSuffixCache`: the first one built
    runs its runner's clean pass, and the cache is kept only until every
    queued task with that key has been built, so a task rebuilt later (a
    retried cell) runs its own.  A task kind without a key never shares.
    Every queued task with the same clean forward takes the first
    cache's clean logits as its clean accuracy, a task whose own runner
    builds no engine included.  A runner's ``close()`` restores the live
    model exactly, so building one over it is safe.
    """

    def __init__(self, tasks: Sequence[CampaignCellTask], queued: "Iterable[int]"):
        self.tasks = tasks
        self.keys = [
            task.clean_pass_key() if hasattr(task, "clean_pass_key") else None
            for task in tasks
        ]
        self.queued = sorted(set(queued))
        self._unbuilt: "dict[tuple, set[int]]" = {}
        for index in self.queued:
            if self.keys[index] is not None:
                self._unbuilt.setdefault(self.keys[index], set()).add(index)
        self._kept: "dict[tuple, SharedSuffixCache | None]" = {}

    def make_runner(self, index: int) -> CellRunner:
        """Task ``index``'s runner, attached to a kept same-key clean pass."""
        return self._build(index)[0]

    def export(self, index: int) -> "SharedSuffixCache | None":
        """Task ``index``'s clean pass: a kept one, else a closed runner's."""
        key = self.keys[index]
        if key in self._kept:
            return self._share(index, self._kept[key])
        runner, cache = self._build(index)
        runner.close()
        return cache

    def _build(self, index: int) -> "tuple[CellRunner, SharedSuffixCache | None]":
        from repro.core.suffix import shared_cache

        task = self.tasks[index]
        with shared_cache(self._kept.get(self.keys[index])):
            runner = task.make_runner()
        try:
            return runner, self._share(index, _absorb_clean_pass(task, runner))
        except BaseException:
            runner.close()
            raise

    def _share(
        self, index: int, cache: "SharedSuffixCache | None"
    ) -> "SharedSuffixCache | None":
        key = self.keys[index]
        if key is None:
            return cache
        unbuilt = self._unbuilt.get(key, set())
        unbuilt.discard(index)
        if unbuilt:
            self._kept[key] = cache
        else:
            self._kept.pop(key, None)
        if cache is not None:
            for other in self.queued:
                other_key = self.keys[other]
                if other_key is not None and other_key[0] == key[0]:
                    _absorb_logits(self.tasks[other], cache.clean_logits)
        return cache


def _export_suffix_caches(
    tasks: Sequence[CampaignCellTask],
    pending: "list[list[tuple[int, int]]]",
) -> "dict[int, PackedUnit]":
    """Run one clean pass per distinct clean forward and pack its cache.

    Each pending task's :class:`_CleanPasses` export ships in the tensor
    plane, so workers attach the activations instead of recomputing
    them.  Tasks sharing a cache share one unit, whose buffers the plane
    places once.  Tasks without a cache publish nothing, and their
    workers run their own (bit-identical) clean pass.
    """
    from repro.core.suffix import suffix_globally_disabled

    caches: "dict[int, PackedUnit]" = {}
    if suffix_globally_disabled():
        return caches
    passes = _CleanPasses(
        tasks, (index for index, cells in enumerate(pending) if cells)
    )
    units: "dict[tuple | None, PackedUnit]" = {}
    for index in passes.queued:
        cache = passes.export(index)
        if cache is not None:
            key = passes.keys[index]
            if key is None or key not in units:
                units[key] = pack_object(cache)
            caches[index] = units[key]
    return caches


def _absorb_logits(task: CampaignCellTask, logits_batches) -> None:
    """Seed ``task``'s clean accuracy from clean logits, if it takes them."""
    absorb = getattr(task, "absorb_clean_logits", None)
    if absorb is not None:
        absorb(logits_batches)


def _absorb_clean_pass(
    task: CampaignCellTask, runner: CellRunner
) -> "SharedSuffixCache | None":
    """Export ``runner``'s clean pass and seed ``task``'s clean accuracy.

    The engine's clean logits double as the task's clean accuracy
    (bit-identical argmax), sparing the result a second full forward
    over the evaluation set.  Returns the exported cache, or
    ``None`` when the runner has no engine.
    """
    engine = getattr(runner, "engine", None)
    cache = engine.export_cache() if engine is not None else None
    if cache is not None:
        _absorb_logits(task, cache.clean_logits)
    return cache


class _Journal:
    """The checkpoint: an append-only JSONL journal of completed cells.

    The first line is the sweep's fingerprint header — the format
    version and, per task, its kind, config grid (seed, trials, batch
    size, fault rates) and a CRC of its pickled content — so a journal
    can never silently resume a *different* sweep (different campaign
    type, model, mitigation variant, sampler or evaluation set).  Every
    later line is one completed cell, ``[task, rate, trial, value]``,
    appended and flushed as it is recorded, so a record costs the same
    at the first cell and the millionth.  Opening an existing journal
    replays its cells into :attr:`cells`; a torn last line (the writer
    died mid-append) is dropped and truncated away before appending
    resumes, and any other line that is not a cell of the header's grids
    — a value of the wrong width included — is refused with its file and
    line number.  Close the journal when the pass ends.
    """

    def __init__(
        self,
        path: "str | Path",
        tasks: Sequence[CampaignCellTask],
        crcs: Sequence[str],
        extra: "dict | None" = None,
    ):
        self.path = Path(path)
        # Scalars per cell, per task: a width-1 cell is a number, a
        # width-w cell a list of exactly w numbers.
        self._widths = [int(getattr(task, "cell_width", 1)) for task in tasks]
        self._names = [task.label or task.kind for task in tasks]
        header: dict = {
            "version": _CHECKPOINT_VERSION,
            "campaigns": [
                {
                    "kind": task.kind,
                    "seed": int(task.config.seed),
                    "trials": int(task.config.trials),
                    "batch_size": int(task.config.batch_size),
                    "fault_rates": [float(r) for r in task.config.fault_rates],
                    "campaign_crc": crc,
                }
                for task, crc in zip(tasks, crcs)
            ],
        }
        if extra:
            # Caller-supplied identity (e.g. a shard's index/count and the
            # suite hash) joins the fingerprint: a checkpoint written as
            # shard i/N can never resume as j/N or i/M.
            collisions = set(extra) & set(header)
            if collisions:
                raise ValueError(
                    f"checkpoint extra keys collide with the fingerprint: "
                    f"{sorted(collisions)}"
                )
            header.update(json.loads(json.dumps(extra)))
        self.cells: "dict[tuple[int, int, int], float | list[float]]" = {}
        if self.path.exists() and self._replay(header):
            self._file = open(self.path, "ab")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "wb")
            self._append(header)

    def _replay(self, header: dict) -> bool:
        """Load the recorded cells; return whether an intact header remains.

        The file is only trimmed once its header matches: a refused
        checkpoint is left exactly as it was found.
        """
        with open(self.path, "rb") as handle:
            first = handle.readline()
            stored = _json_or_none(first)
            if not isinstance(stored, dict):
                # Not a journal header: an older whole-file JSON checkpoint,
                # or an empty file / torn header (nothing intact to keep).
                stored = _json_or_none(first + handle.read())
                if stored is None and not first.endswith(b"\n"):
                    return False
        version = stored.get("version") if isinstance(stored, dict) else None
        if version != _CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path} has format version {version}, but "
                f"only version {_CHECKPOINT_VERSION} append-only JSONL "
                "journals resume; delete it or use a fresh path"
            )
        if stored != header:
            difference = _header_difference(stored, header, self._names)
            raise ValueError(
                f"checkpoint {self.path} was written by a different campaign "
                f"type or configuration ({difference}); delete it or use a "
                "fresh path"
            )
        campaigns = header["campaigns"]
        _, *lines = trim_torn_tail(self.path).splitlines() or [b""]
        for number, line in enumerate(lines, start=2):
            cell = _json_or_none(line)
            if not _is_cell(cell, campaigns, self._widths):
                raise ValueError(
                    f"{self.path}:{number}: not a [task, rate, trial, value] "
                    f"cell inside the header's campaigns, rates, trials and "
                    f"cell widths: {line.decode('ascii', 'replace')}"
                )
            task_index, rate_index, trial, value = cell
            self.cells[(task_index, rate_index, trial)] = value
        return first.endswith(b"\n")

    def _append(self, entry: Any) -> None:
        self._file.write(json.dumps(entry).encode("ascii") + b"\n")
        self._file.flush()

    def record(
        self, task_index: int, rate_index: int, trial: int, value
    ) -> None:
        """Append one completed cell and flush it to the file."""
        if np.ndim(value) == 0:
            stored: "float | list[float]" = float(value)
        else:
            stored = [float(v) for v in np.asarray(value).reshape(-1)]
        self._append([int(task_index), int(rate_index), int(trial), stored])

    def close(self) -> None:
        self._file.close()


def _header_difference(stored: dict, header: dict, names: Sequence[str]) -> str:
    """Where a stored journal header first departs from this run's: a
    top-level key (such as ``shard``), the campaign count, or the first
    differing campaign (index, task label or kind) and field."""
    for key in sorted(set(stored) | set(header)):
        if key != "campaigns" and stored.get(key) != header.get(key):
            return f"{key} {stored.get(key)!r}, this run's {header.get(key)!r}"
    recorded, campaigns = stored.get("campaigns"), header["campaigns"]
    if not isinstance(recorded, list) or len(recorded) != len(campaigns):
        count = len(recorded) if isinstance(recorded, list) else 0
        return f"{count} campaign(s), this run's {len(campaigns)}"
    index = next(
        index for index, pair in enumerate(zip(recorded, campaigns))
        if pair[0] != pair[1]
    )
    old = recorded[index] if isinstance(recorded[index], dict) else {}
    new = campaigns[index]
    key = next(key for key in sorted({*old, *new}) if old.get(key) != new.get(key))
    return (
        f"campaign {index} ({names[index]!r}) has {key} {old.get(key)!r}, "
        f"this run's {new.get(key)!r}"
    )


def _json_or_none(raw: bytes) -> Any:
    try:
        return json.loads(raw)
    except ValueError:
        return None


def _is_cell(entry: Any, campaigns: "list[dict]", widths: "list[int]") -> bool:
    """Whether a journal line is ``[task, rate, trial, value]`` inside the
    header's grids.

    The indices must be plain non-negative integers: ``run_grids``
    indexes per-task lists with them, so a ``-1`` would land on the last
    task's cell.  The value is a number for a width-1 task and a list of
    exactly ``width`` numbers otherwise: a short list would broadcast
    into the whole cell and resume as finished.
    """
    if not (isinstance(entry, list) and len(entry) == 4):
        return False
    task, rate, trial, value = entry
    if type(task) is not int or not 0 <= task < len(campaigns):
        return False
    bounds = (len(campaigns[task]["fault_rates"]), campaigns[task]["trials"])
    if widths[task] == 1:
        values = [value]
    elif isinstance(value, list) and len(value) == widths[task]:
        values = value
    else:
        return False
    return all(
        type(i) is int and 0 <= i < n for i, n in zip((rate, trial), bounds)
    ) and all(type(v) in (int, float) for v in values)


# --------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------- #


class CampaignExecutor:
    """Runs one or more campaigns' (rates x trials) grids, serially or in parallel.

    Parameters
    ----------
    workers:
        ``1`` (default) runs every cell in-process over the caller's
        live objects.  ``N > 1`` fans cells across ``N`` worker
        processes.  ``0`` means one worker per CPU core.
    progress:
        Optional callback receiving a :class:`CellResult` per completed
        cell (checkpointed cells are replayed with
        ``from_checkpoint=True`` at the start of a resumed run).
    checkpoint:
        Optional path of an append-only JSONL journal.  Each completed
        cell is appended and flushed before its progress callback
        fires; re-running with the same configuration skips them.
    checkpoint_extra:
        Optional JSON-serializable mapping merged into the checkpoint
        fingerprint.  Callers that scope a checkpoint to an execution
        identity beyond the campaign content — e.g. a shard's
        ``{"shard": {"index", "count", "suite_hash"}}`` — record it here
        so a checkpoint written under one identity refuses to resume
        under another.  Keys must not collide with the built-in
        fingerprint fields.
    persistent:
        Keep the worker pool alive between :meth:`run_tasks` calls (a
        *warm pool*), so repeated sweeps — Algorithm 1's per-iteration
        boundary batches — skip pool start-up; each sweep ships its
        payload through a fresh shared-memory generation.  Call
        :meth:`close` (or use the executor as a context manager) when
        done.  Idle workers keep the last sweep's runner (model copy
        plus suffix cache) until the next sweep or :meth:`close` — size
        ``REPRO_SUFFIX_BUDGET_MB`` accordingly on wide warm pools.
    supervision:
        The :class:`SupervisionPolicy` (retries, timeouts and the
        cell-error policy); ``None`` means the defaults: 2 retries, no
        timeout, abort.
    recorder:
        Optional :class:`CellRecorder` receiving every completed cell
        (``cell``) and every quarantined cell's failure record
        (``failure``) — the hook behind the append-only per-cell
        result store (``repro.results``, ``docs/RESULTS.md``).

    After each :meth:`run_grids` pass, :attr:`quarantined` holds one
    record per cell that exhausted its retries (schema:
    :data:`FAILED_CELL_FIELDS`); quarantined cells stay ``nan`` in the
    value grids and are *not* checkpointed, so a resumed run retries
    them.  See ``docs/FAULT_TOLERANCE.md``.
    """

    def __init__(
        self,
        workers: int = 1,
        progress: "ProgressCallback | None" = None,
        checkpoint: "str | Path | None" = None,
        persistent: bool = False,
        checkpoint_extra: "dict | None" = None,
        supervision: "SupervisionPolicy | None" = None,
        recorder: "CellRecorder | None" = None,
    ):
        self.workers = resolve_workers(workers)
        self.recorder = recorder
        self.progress = progress
        self.checkpoint_path = checkpoint
        self.checkpoint_extra = dict(checkpoint_extra) if checkpoint_extra else None
        self.persistent = bool(persistent)
        self.supervision = (
            supervision if supervision is not None else SupervisionPolicy()
        )
        # Failure records of the most recent run_grids pass, one dict
        # per quarantined cell (schema: FAILED_CELL_FIELDS).
        self.quarantined: "list[dict]" = []
        self._pool: "ProcessPoolExecutor | None" = None

    def close(self) -> None:
        """Shut down the warm pool, if one is alive (idempotent)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.shutdown()

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reconfigure(
        self,
        progress: "ProgressCallback | None" = None,
        checkpoint: "str | Path | None" = None,
    ) -> "CampaignExecutor":
        """Repoint the per-run hooks of a long-lived executor.

        A persistent executor (``persistent=True``) keeps its warm
        worker pool across ``run_tasks`` passes; the progress callback
        and checkpoint file, by contrast, belong to one run.  Callers
        that reuse an executor across runs (the service's slot workers)
        swap them here between passes — ``run_grids`` reads both freshly
        on every call, so no pool restart is involved.  Returns ``self``
        for chaining.
        """
        self.progress = progress
        self.checkpoint_path = checkpoint
        return self

    # ------------------------------------------------------------------ #

    def run_tasks(
        self,
        tasks: Sequence[CampaignCellTask],
        payloads: "Sequence[PackedUnit | None] | None" = None,
    ) -> list[Any]:
        """Execute several campaigns' cells through one scheduling pass.

        With ``workers > 1`` every task's pending cells share a single
        worker pool (the cross-campaign fan-out); with ``workers=1`` the
        tasks run back-to-back in task order, rate-major — exactly the
        historical sequential loops.  Either way each task's result is
        bit-identical, and the returned list is parallel to ``tasks``.

        ``payloads`` optionally supplies a pre-packed
        :class:`~repro.utils.shm.PackedUnit` per task (parallel to
        ``tasks``; ``None`` entries are packed here).  A caller that
        already packed a task to snapshot it — e.g.
        :meth:`~repro.core.finetune.LayerAUCEvaluator.evaluate_many` —
        passes the same unit instead of paying a second serialization of
        the model; the unit must describe an object equivalent to the
        corresponding task.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        rates_list, grids = self.run_grids(tasks, payloads=payloads)
        return [
            task.build_result(rates_list[index], grids[index])
            for index, task in enumerate(tasks)
        ]

    def run_grids(
        self,
        tasks: Sequence[CampaignCellTask],
        payloads: "Sequence[PackedUnit | None] | None" = None,
        cells: "Sequence[Sequence[tuple[int, int]]] | None" = None,
    ) -> "tuple[list[np.ndarray], list[np.ndarray]]":
        """Execute (a subset of) each task's cells; return raw value grids.

        The engine behind :meth:`run_tasks`, for callers that assemble
        results themselves — scenario runs build each result with
        :func:`~repro.scenarios.compile.assemble_scenario_result`, and
        shard runs execute disjoint cell subsets on independent hosts
        and merge the grids later.  Returns
        ``(rates, grids)``, both parallel to ``tasks``; each grid is the
        task's ``(n_rates, n_trials[, cell_width])`` float64 array with
        executed cells filled in and everything else ``nan``.

        ``cells`` optionally restricts execution to a per-task subset of
        ``(rate_index, trial)`` cells (parallel to ``tasks``).  Subset
        cells run in the serial enumeration order (rate-major), with the
        same per-cell seed paths as a full run — a cell's value is
        bit-identical no matter which subset, host or worker evaluates
        it.  Checkpointed cells outside the subset are ignored, and
        progress totals count only the subset.
        """
        tasks = list(tasks)
        self.quarantined = []
        if not tasks:
            return [], []
        if payloads is not None and len(payloads) != len(tasks):
            raise ValueError(
                f"payloads ({len(payloads)}) must parallel tasks ({len(tasks)})"
            )

        rates_list: list[np.ndarray] = []
        grids: list[np.ndarray] = []
        for task in tasks:
            rates = np.asarray(task.config.fault_rates, dtype=np.float64)
            width = int(getattr(task, "cell_width", 1))
            shape: "tuple[int, ...]" = (rates.size, task.config.trials)
            if width != 1:
                shape = (*shape, width)
            rates_list.append(rates)
            grids.append(np.full(shape, np.nan, dtype=np.float64))
        subset = self._resolve_cells(tasks, grids, cells)
        total = sum(len(chosen) for chosen in subset)

        # One serialization per task serves both the checkpoint
        # fingerprint and the worker payload; pre-packed payloads are
        # reused verbatim, so those tasks are never serialized here.
        units: "list[PackedUnit | None]" = (
            list(payloads) if payloads is not None else [None] * len(tasks)
        )
        for unit in units:
            if unit is not None and not isinstance(unit, PackedUnit):
                raise TypeError(
                    "payloads entries must be PackedUnit or None, got "
                    f"{type(unit).__name__}"
                )
        if self.checkpoint_path is not None or self.workers > 1:
            for index, task in enumerate(tasks):
                if units[index] is None:
                    units[index] = _pack_task(task)

        journal = None
        if self.checkpoint_path is not None:
            crcs = [f"{unit.crc32():08x}" for unit in units]
            journal = _Journal(
                self.checkpoint_path, tasks, crcs, extra=self.checkpoint_extra
            )
        try:
            completed = 0
            if journal is not None:
                wanted = [set(chosen) for chosen in subset]
                for (task_index, rate_index, trial), value in sorted(
                    journal.cells.items()
                ):
                    if (rate_index, trial) not in wanted[task_index]:
                        continue
                    grids[task_index][rate_index, trial] = value
                    completed += 1
                    self._emit(
                        tasks[task_index], task_index, rate_index, trial,
                        rates_list[task_index], grids[task_index][rate_index, trial],
                        completed, total, from_checkpoint=True,
                    )
            pending = [
                [cell for cell in chosen if not np.all(np.isfinite(grid[cell]))]
                for grid, chosen in zip(grids, subset)
            ]
            if any(pending):
                self._run_pending(
                    tasks, units, pending, rates_list, grids,
                    completed, total, journal,
                )
        finally:
            if journal is not None:
                journal.close()
        return rates_list, grids

    def _run_pending(
        self,
        tasks: Sequence[CampaignCellTask],
        units: "list[PackedUnit | None]",
        pending: "list[list[tuple[int, int]]]",
        rates_list: list[np.ndarray],
        grids: list[np.ndarray],
        completed: int,
        total: int,
        journal: "_Journal | None",
    ) -> None:
        """Dispatch the pending cells in process or across the pool."""
        if self.workers == 1:
            self._dispatch(
                tasks, None, pending, rates_list, grids, completed, total, journal
            )
            return
        # One clean pass per host: publish each task's suffix
        # activation cache alongside its weights (skipped on the
        # inline transport, where the cache bytes would be
        # copied into every chunk call instead of mapped once).
        # The writability probe, not mere importability, gates
        # the export so a full /dev/shm doesn't waste one clean
        # forward per task on caches that could never ship.
        from repro.utils.shm import shared_memory_writable

        suffix_units: "dict[int, PackedUnit]" = (
            _export_suffix_caches(tasks, pending)
            if shared_memory_writable()
            else {}
        )
        task_units = [
            (f"task/{index}", unit) for index, unit in enumerate(units)
        ]
        cache_units = [
            (f"suffix/{index}", unit)
            for index, unit in sorted(suffix_units.items())
        ]
        shipment = ship_units(task_units + cache_units)
        if cache_units and not shipment.ref.via_shared_memory:
            # Segment creation failed at runtime (e.g. /dev/shm
            # full): the inline transport re-pickles the plane
            # into every chunk call, so carrying the activation
            # caches there would multiply the copy cost the
            # publication exists to avoid.  Re-ship tasks only;
            # workers rebuild their clean passes locally.
            shipment.release()
            shipment = ship_units(task_units)
        # The segment (or the inline ref) now owns the only
        # payload copy; drop the per-task units so a large
        # multi-model sweep doesn't hold the streams twice.
        del task_units, cache_units, suffix_units
        units.clear()
        try:
            self._dispatch(
                tasks, shipment.ref, pending, rates_list,
                grids, completed, total, journal,
            )
        finally:
            shipment.release()

    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_cells(
        tasks: Sequence[CampaignCellTask],
        grids: list[np.ndarray],
        cells: "Sequence[Sequence[tuple[int, int]]] | None",
    ) -> "list[list[tuple[int, int]]]":
        """Validate and canonicalize a per-task cell subset.

        ``None`` selects every cell.  Each task's subset is
        duplicate-checked, bounds-checked against its grid, and sorted
        into the serial enumeration order (rate-major), so a subset run
        visits its cells in the same relative order as the full run.
        """
        if cells is None:
            return [
                [(rate_index, trial) for rate_index in range(grid.shape[0])
                 for trial in range(grid.shape[1])]
                for grid in grids
            ]
        cells = list(cells)
        if len(cells) != len(tasks):
            raise ValueError(
                f"cells ({len(cells)}) must parallel tasks ({len(tasks)})"
            )
        subset: "list[list[tuple[int, int]]]" = []
        for task, grid, wanted in zip(tasks, grids, cells):
            name = task.label or task.kind
            chosen: "set[tuple[int, int]]" = set()
            for rate_index, trial in wanted:
                cell = (int(rate_index), int(trial))
                if not (
                    0 <= cell[0] < grid.shape[0] and 0 <= cell[1] < grid.shape[1]
                ):
                    raise ValueError(
                        f"cell {cell} lies outside the "
                        f"{grid.shape[0]}x{grid.shape[1]} grid of task {name!r}"
                    )
                if cell in chosen:
                    raise ValueError(f"duplicate cell {cell} for task {name!r}")
                chosen.add(cell)
            subset.append(sorted(chosen))
        return subset

    def _emit(
        self,
        task: CampaignCellTask,
        task_index: int,
        rate_index: int,
        trial: int,
        rates: np.ndarray,
        value,
        completed: int,
        total: int,
        from_checkpoint: bool = False,
        failed: bool = False,
    ) -> None:
        if self.progress is None and self.recorder is None:
            return
        scalars = np.atleast_1d(np.asarray(value, dtype=np.float64))
        result = CellResult(
            rate_index=rate_index,
            trial=trial,
            fault_rate=float(rates[rate_index]),
            accuracy=float(scalars[0]),
            completed=completed,
            total=total,
            from_checkpoint=from_checkpoint,
            campaign_index=task_index,
            campaign_label=task.label,
            values=(
                tuple(float(v) for v in scalars) if scalars.size > 1 else None
            ),
            failed=failed,
        )
        if self.recorder is not None:
            self.recorder.cell(result)
        if self.progress is not None:
            self.progress(result)

    def _quarantine(
        self,
        task: CampaignCellTask,
        task_index: int,
        rate_index: int,
        trial: int,
        rates: np.ndarray,
        completed: int,
        total: int,
        reason: str,
        attempts: int,
        error: "BaseException | None",
    ) -> None:
        """Record one cell as a ``failed`` outcome instead of aborting.

        The cell's grid entry stays NaN (so a checkpoint resume retries
        it), a :data:`FAILED_CELL_FIELDS` record lands on
        ``self.quarantined`` for results/summary surfacing, and the
        progress stream sees a ``failed=True`` :class:`CellResult`.
        """
        self.quarantined.append(
            {
                "task": task.label or task.kind,
                "task_index": int(task_index),
                "rate_index": int(rate_index),
                "trial": int(trial),
                "reason": reason,
                "attempts": int(attempts),
                "error": "" if error is None else f"{type(error).__name__}: {error}",
            }
        )
        if self.recorder is not None:
            self.recorder.failure(self.quarantined[-1])
        self._emit(
            task, task_index, rate_index, trial, rates,
            float("nan"), completed, total, failed=True,
        )

    def _dispatch(
        self,
        tasks: Sequence[CampaignCellTask],
        plane: "ShippedPlane | None",
        pending: "list[list[tuple[int, int]]]",
        rates_list: list[np.ndarray],
        grids: list[np.ndarray],
        completed: int,
        total: int,
        journal: "_Journal | None",
    ) -> None:
        """The one supervised dispatch loop, over the pool or in process.

        ``plane`` selects the lane: a shipped plane fans chunks over the
        worker pool (the warm pool of a persistent executor, else a
        right-sized one-shot pool), ``None`` runs every cell through an
        :class:`_InProcessLane` on the caller's live tasks.  Supervision
        (``docs/FAULT_TOLERANCE.md``) is written once for both lanes:

        * **Worker death** discards the broken pool, harvests chunks
          that still finished, rebuilds the pool under a fresh
          generation id against the *same* shipment, and re-dispatches
          the in-flight chunks; suspect cells re-enter through a *probe
          lane* where they run strictly alone, so the next death
          convicts one cell.
        * **Timeouts** (pool lane only) give each in-flight chunk a
          deadline of ``cell_timeout`` per cell; an expired chunk takes
          the pool down with it.
        * **Cell exceptions** follow ``on_cell_error``; multi-cell
          chunks are first split into singletons so the blame lands on
          one cell, and retries back off deterministically.
        * Past :data:`MAX_POOL_REBUILDS` pool losses the loop **degrades**
          by swapping in the in-process lane, chaos off.

        Each result lands in the grid and the journal before its
        progress callback fires.  Cells are pure functions of
        ``(seed, rate, trial)``, so every recovery path yields
        bit-identical grids.
        """
        policy = self.supervision
        lane: "ProcessPoolExecutor | _InProcessLane"
        call: Callable

        def in_process(chaos: "ChaosPolicy | None", queued: "Iterable[int]") -> None:
            nonlocal lane, call, capacity, cell_timeout
            lane = _InProcessLane(tasks, queued, chaos)
            call, capacity, cell_timeout = lane.run_cells, 1, None

        def pool_lane() -> None:
            # A fresh generation per pool: rebuilt workers re-attach the
            # SAME shipment (the parent owns the segment) on first chunk.
            nonlocal lane, call
            lane = self._acquire_pool(workers)
            call = partial(
                _run_task_cells, plane, (os.getpid(), next(_GENERATION))
            )

        n_pending = sum(len(cells) for cells in pending)
        if plane is None:
            chunk_size = 1
            in_process(
                ChaosPolicy.from_env(),
                (index for index, cells in enumerate(pending) if cells),
            )
        else:
            workers = (
                self.workers if self.persistent else min(self.workers, n_pending)
            )
            chunk_size = max(1, n_pending // (workers * 4))
            if not plane.via_shared_memory:
                # Inline transport re-pickles the whole payload into
                # every chunk's call item; coarsen to about one chunk per
                # worker so the copy count matches initializer shipping.
                chunk_size = max(chunk_size, -(-n_pending // workers))
            capacity, cell_timeout = 2 * workers, policy.cell_timeout
            pool_lane()
        normal: "deque[tuple[int, list[tuple[int, int]]]]" = deque()
        for task_index, cells in enumerate(pending):
            for start in range(0, len(cells), chunk_size):
                normal.append((task_index, list(cells[start : start + chunk_size])))
        probe: "deque[tuple[int, list[tuple[int, int]]]]" = deque()
        dispatches: "dict[tuple[int, int, int], int]" = {}
        failures: "dict[tuple[int, int, int], int]" = {}
        in_flight: "dict[Any, tuple[int, list[tuple[int, int]], float | None, bool]]" = {}
        rebuilds = 0
        backoff = 0.0

        def submit_chunk(
            task_index: int, cells: "list[tuple[int, int]]", probed: bool
        ) -> None:
            shipped = [
                (rate_index, trial,
                 dispatches.get((task_index, rate_index, trial), 0))
                for rate_index, trial in cells
            ]
            future = lane.submit(call, task_index, shipped)
            for rate_index, trial in cells:
                key = (task_index, rate_index, trial)
                dispatches[key] = dispatches.get(key, 0) + 1
            deadline = None
            if cell_timeout is not None:
                deadline = time.monotonic() + cell_timeout * len(cells)
            in_flight[future] = (task_index, list(cells), deadline, probed)

        def harvest(results) -> None:
            nonlocal completed
            for task_index, rate_index, trial, value in results:
                grids[task_index][rate_index, trial] = value
                completed += 1
                if journal is not None:
                    journal.record(task_index, rate_index, trial, value)
                self._emit(
                    tasks[task_index], task_index, rate_index, trial,
                    rates_list[task_index],
                    grids[task_index][rate_index, trial],
                    completed, total,
                )

        def give_up(
            task_index: int,
            cell: "tuple[int, int]",
            reason: str,
            error: "BaseException | None",
        ) -> None:
            nonlocal completed
            completed += 1
            self._quarantine(
                tasks[task_index], task_index, cell[0], cell[1],
                rates_list[task_index], completed, total,
                reason, dispatches.get((task_index, *cell), 0), error,
            )

        def settle_failure(
            task_index: int,
            cells: "list[tuple[int, int]]",
            reason: str,
            error: BaseException,
            blamed: bool,
        ) -> None:
            nonlocal backoff
            if reason == "exception" and policy.on_cell_error == "abort":
                raise error
            if not blamed or len(cells) != 1:
                # The blame cannot land on one cell: split into
                # singletons.  Death suspects go through the probe lane
                # (strictly alone in flight, so the next death convicts
                # exactly one cell); everything else requeues normally.
                queue = probe if reason == "worker-death" else normal
                for cell in cells:
                    queue.append((task_index, [cell]))
                return
            cell = cells[0]
            key = (task_index, *cell)
            failures[key] = failures.get(key, 0) + 1
            if reason == "exception":
                if (
                    policy.on_cell_error == "quarantine"
                    or failures[key] > policy.max_retries
                ):
                    give_up(task_index, cell, reason, error)
                else:
                    backoff = max(backoff, backoff_seconds(failures[key]))
                    normal.append((task_index, [cell]))
                return
            # Infrastructure faults (timeout, worker-death) are retried
            # regardless of on_cell_error; the policy only decides what
            # happens once the retry budget is spent.
            if failures[key] > policy.max_retries:
                if policy.on_cell_error == "abort":
                    raise error
                give_up(task_index, cell, reason, error)
                return
            backoff = max(backoff, backoff_seconds(failures[key]))
            queue = probe if reason == "worker-death" else normal
            queue.append((task_index, [cell]))

        def breakdown(error: BaseException) -> None:
            nonlocal rebuilds
            survivors = list(in_flight.items())
            in_flight.clear()
            self._discard_pool(lane)
            for future, (task_index, cells, _deadline, probed) in survivors:
                finished = future.done() and not future.cancelled()
                exc = future.exception() if finished else error
                if exc is None:
                    harvest(future.result())
                elif exc is error or isinstance(exc, BrokenExecutor):
                    settle_failure(
                        task_index, cells, "worker-death", error, blamed=probed
                    )
                else:
                    settle_failure(
                        task_index, cells, "exception", exc,
                        blamed=len(cells) == 1,
                    )
            rebuilds += 1
            if rebuilds <= MAX_POOL_REBUILDS:
                pool_lane()
                return
            warnings.warn(
                f"process pool broke {rebuilds} times "
                f"(MAX_POOL_REBUILDS={MAX_POOL_REBUILDS}); degrading "
                "to serial in-process execution for the remaining cells",
                RuntimeWarning,
                stacklevel=2,
            )
            # The fallback exists to finish the campaign, so it runs
            # chaos-free: injected disturbances had their shot at the
            # pool that just collapsed.
            queued = [*probe, *normal]
            probe.clear()
            normal.clear()
            normal.extend(
                (task_index, [cell]) for task_index, cells in queued for cell in cells
            )
            in_process(None, (task_index for task_index, _ in normal))

        try:
            while normal or probe or in_flight:
                try:
                    if probe:
                        if not in_flight:
                            task_index, cells = probe[0]
                            submit_chunk(task_index, cells, probed=True)
                            probe.popleft()
                    else:
                        while normal and len(in_flight) < capacity:
                            task_index, cells = normal[0]
                            submit_chunk(task_index, cells, probed=False)
                            normal.popleft()
                except BrokenExecutor as error:
                    breakdown(error)
                    continue
                if backoff:
                    time.sleep(backoff)
                    backoff = 0.0
                if not in_flight:
                    continue
                deadlines = [
                    entry[2]
                    for entry in in_flight.values()
                    if entry[2] is not None
                ]
                timeout = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines
                    else None
                )
                done, _ = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken: "BaseException | None" = None
                for future in done:
                    task_index, cells, _deadline, probed = in_flight.pop(future)
                    try:
                        results = future.result()
                    except BrokenExecutor as error:
                        broken = error
                        settle_failure(
                            task_index, cells, "worker-death", error,
                            blamed=probed,
                        )
                    except Exception as error:
                        settle_failure(
                            task_index, cells, "exception", error,
                            blamed=len(cells) == 1,
                        )
                    else:
                        harvest(results)
                now = time.monotonic()
                expired = [
                    future
                    for future, entry in in_flight.items()
                    if entry[2] is not None
                    and entry[2] <= now
                    and not future.done()
                ]
                for future in expired:
                    task_index, cells, _deadline, probed = in_flight.pop(future)
                    future.cancel()
                    error = CellTimeoutError(
                        f"chunk of {len(cells)} cell(s) of task {task_index} "
                        f"exceeded its {policy.cell_timeout:g}s-per-cell "
                        "wall-clock budget"
                    )
                    # A running cell cannot be cancelled remotely; the
                    # stuck worker goes down with the pool below.
                    broken = broken or error
                    settle_failure(
                        task_index, cells, "timeout", error,
                        blamed=len(cells) == 1,
                    )
                if broken is not None:
                    breakdown(broken)
        finally:
            # The warm pool outlives the pass; every other lane ends here.
            if lane is not self._pool:
                lane.shutdown(cancel_futures=True)

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a (possibly broken, possibly stuck) pool down hard.

        Worker processes are SIGKILLed first: a stuck cell would
        otherwise keep ``shutdown(wait=True)`` from returning, and after
        a breakage every in-flight chunk is re-dispatched elsewhere
        anyway.  Killed workers release their shared-memory mappings on
        exit; the parent still owns (and later unlinks) the segments.
        """
        if self._pool is pool:
            self._pool = None
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already-reaped worker
                pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _acquire_pool(self, workers: int) -> ProcessPoolExecutor:
        """The warm pool (created once) or a fresh one-shot pool."""
        import multiprocessing

        if self.persistent and self._pool is not None:
            return self._pool
        # Fork, not the interpreter's default (forkserver on Linux from
        # Python 3.14): workers inherit the parent's imports and start
        # fastest that way.
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(_blas_budget(workers),),
        )
        if self.persistent:
            self._pool = pool
        return pool
