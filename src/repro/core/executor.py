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
The pool lane splits the cells into contiguous single-task chunks of
``chunk_size`` (default: about four chunks per worker across all tasks)
and keeps up to two chunks per worker in flight.  The in-process lane
(``workers=1``, and the fallback after repeated pool losses) evaluates
one cell per dispatch on the caller's live tasks, so its futures are
already finished when the loop waits on them.  Results are written back
into each task's ``(n_rates, n_trials)`` value grid by index, so
completion order is irrelevant.

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
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence

import numpy as np

from repro.core.chaos import ChaosPolicy
from repro.core.metrics import ResilienceCurve, evaluate_accuracy_arrays
from repro.utils import blas
from repro.utils.rng import SeedTree
from repro.utils.shm import PackedUnit, ShippedPlane, pack_object, ship_units
from repro.utils.validation import env_number

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.campaign import CampaignConfig, FaultInjectionCampaign, FaultSampler

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
    contract.  ``retry_backoff`` seeds the deterministic exponential
    backoff (no jitter — determinism extends to scheduling decisions),
    and ``max_pool_rebuilds`` caps pool reconstructions before the
    executor swaps in the in-process lane.
    """

    max_retries: int = 2
    cell_timeout: "float | None" = None
    on_cell_error: str = "abort"
    retry_backoff: float = 0.05
    max_pool_rebuilds: int = 8

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
        if float(self.retry_backoff) < 0:
            raise ValueError("retry_backoff must be >= 0")
        object.__setattr__(self, "retry_backoff", float(self.retry_backoff))
        if int(self.max_pool_rebuilds) < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        object.__setattr__(
            self, "max_pool_rebuilds", int(self.max_pool_rebuilds)
        )

    @classmethod
    def from_env(
        cls,
        max_retries: "int | None" = None,
        cell_timeout: "float | None" = None,
        on_cell_error: "str | None" = None,
    ) -> "SupervisionPolicy":
        """Resolve a policy: explicit argument > environment > default.

        The environment knobs (``REPRO_MAX_RETRIES``,
        ``REPRO_CELL_TIMEOUT``, ``REPRO_ON_CELL_ERROR``) configure runs
        whose call sites don't thread the parameters — benchmarks,
        examples, hardening sub-campaigns.
        """
        if max_retries is None:
            max_retries = env_number(
                "REPRO_MAX_RETRIES", int, "an integer", cls.max_retries
            )
        if cell_timeout is None:
            cell_timeout = env_number(
                "REPRO_CELL_TIMEOUT", float, "a number of seconds"
            )
        if on_cell_error is None:
            raw = os.environ.get("REPRO_ON_CELL_ERROR", "").strip()
            on_cell_error = raw if raw else cls.on_cell_error
        return cls(
            max_retries=max_retries,
            cell_timeout=cell_timeout,
            on_cell_error=on_cell_error,
        )

    def backoff_seconds(self, failures: int) -> float:
        """Deterministic exponential backoff after the n-th blamed failure."""
        if failures <= 0 or self.retry_backoff <= 0:
            return 0.0
        return self.retry_backoff * (2.0 ** min(failures - 1, 5))


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

    Drops parent-side presentation (``label``), caches (``_clean``) and
    execution details (``suffix`` — results are bit-identical with the
    engine on or off) from the pickled payload, so the payload bytes —
    and hence the checkpoint CRC — depend only on the campaign's
    scientific content: a checkpoint written with the suffix engine on
    resumes a run with it off, and vice versa.  Worker processes thus
    always run with the engine enabled; ``REPRO_NO_SUFFIX=1`` (inherited
    by workers) is the everywhere-off switch.
    """
    state = dict(task.__dict__)
    state["label"] = ""
    if "_clean" in state:
        state["_clean"] = None
    if "suffix" in state:
        state["suffix"] = True
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
            enabled=getattr(task, "suffix", True),
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

    Built either from a live :class:`~repro.core.campaign.FaultInjectionCampaign`
    (serial path / pickling source) or directly from its parts.  The
    ``label`` and lazily-cached clean accuracy are parent-side and excluded
    from the pickled payload, so the payload bytes — and hence the
    checkpoint CRC — depend only on the campaign's scientific content.
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
        clean_accuracy: "float | None" = None,
        suffix: bool = True,
    ):
        from repro.core.campaign import CampaignConfig, random_bitflip_sampler

        self.model = model
        self.memory = memory
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.config = config if config is not None else CampaignConfig()
        self.sampler = sampler if sampler is not None else random_bitflip_sampler()
        self.label = label
        self._clean = None if clean_accuracy is None else float(clean_accuracy)
        self.suffix = bool(suffix)

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
    """

    def __init__(
        self, tasks: Sequence[CampaignCellTask], chaos: "ChaosPolicy | None"
    ):
        self.tasks = tasks
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
            self.runner = self.tasks[task_index].make_runner()
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


def _pack_task(
    task: CampaignCellTask,
) -> "tuple[PackedUnit | None, Exception | None]":
    """Serialize one task once, for both the checkpoint CRC and the pool.

    Returns ``(None, error)`` when the task is unpicklable (e.g. a
    closure sampler): in-process runs then fall back to config-level
    checkpoint validation, and pool runs raise a clear error.
    """
    try:
        return pack_object(task), None
    except Exception as error:
        return None, error


def _export_suffix_caches(
    tasks: Sequence[CampaignCellTask],
    pending: "list[list[tuple[int, int]]]",
) -> "dict[int, PackedUnit]":
    """Run each pending task's clean pass once and pack its cache.

    Builds (and immediately closes) a parent-side runner per task to
    populate its :class:`~repro.core.suffix.SuffixForwardEngine`; the
    exported :class:`~repro.core.suffix.SharedSuffixCache` ships in the
    tensor plane, so workers attach the activations instead of
    recomputing them — one clean pass per host per task.  Tasks whose
    engine declines to build publish nothing, and their workers run
    their own (bit-identical) clean pass.  A runner's ``close()``
    restores the live model exactly, so building one here is safe.
    """
    from repro.core.suffix import suffix_globally_disabled

    caches: "dict[int, PackedUnit]" = {}
    if suffix_globally_disabled():
        return caches
    for index, task in enumerate(tasks):
        if not pending[index]:
            continue
        runner = task.make_runner()
        try:
            engine = getattr(runner, "engine", None)
            cache = engine.export_cache() if engine is not None else None
        finally:
            runner.close()
        if cache is not None:
            # The cache's clean logits double as the task's clean
            # accuracy (bit-identical argmax), sparing build_result a
            # second full forward over the evaluation set.
            absorb = getattr(task, "absorb_clean_logits", None)
            if absorb is not None:
                absorb(cache.clean_logits)
            caches[index] = pack_object(cache)
    return caches


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
    resumes.  Close the journal when the pass ends.
    """

    def __init__(
        self,
        path: "str | Path",
        tasks: Sequence[CampaignCellTask],
        crcs: Sequence["str | None"],
        extra: "dict | None" = None,
    ):
        self.path = Path(path)
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
        intact = self._replay(header) if self.path.exists() else 0
        if intact:
            os.truncate(self.path, intact)  # drop a torn last line
            self._file = open(self.path, "ab")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "wb")
            self._append(header)

    def _replay(self, header: dict) -> int:
        """Load the recorded cells; return the intact prefix's length."""
        data = self.path.read_bytes()
        intact = data.rfind(b"\n") + 1
        first, *lines = data[:intact].splitlines() or [b""]
        stored = _json_or_none(first)
        if not isinstance(stored, dict):
            # Not a journal header: an older whole-file JSON checkpoint,
            # or an empty file / torn header (nothing intact to keep).
            stored = _json_or_none(data)
            if stored is None and not intact:
                return 0
        version = stored.get("version") if isinstance(stored, dict) else None
        if version != _CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path} has format version {version}, but "
                f"only version {_CHECKPOINT_VERSION} append-only JSONL "
                "journals resume; delete it or use a fresh path"
            )
        if stored != header:
            raise ValueError(
                f"checkpoint {self.path} was written by a different campaign "
                f"type or configuration; delete it or use a fresh path "
                f"(stored {stored}, expected {header})"
            )
        for line in lines:
            task_index, rate_index, trial, value = json.loads(line)
            self.cells[(task_index, rate_index, trial)] = value
        return intact

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


def _json_or_none(raw: bytes) -> Any:
    try:
        return json.loads(raw)
    except ValueError:
        return None


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
    chunk_size:
        Cells per dispatched task; ``0`` picks roughly four chunks per
        worker.  Larger chunks amortize dispatch overhead, smaller chunks
        stream progress sooner and balance load better.
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
    mp_context:
        Optional :mod:`multiprocessing` start-method name (``"fork"``,
        ``"spawn"``, ``"forkserver"``); default lets the platform choose.
    persistent:
        Keep the worker pool alive between :meth:`run_tasks` calls (a
        *warm pool*), so repeated sweeps — Algorithm 1's per-iteration
        boundary batches — skip pool start-up; each sweep ships its
        payload through a fresh shared-memory generation.  Call
        :meth:`close` (or use the executor as a context manager) when
        done.  Idle workers keep the last sweep's runner (model copy
        plus suffix cache) until the next sweep or :meth:`close` — size
        ``REPRO_SUFFIX_BUDGET_MB`` accordingly on wide warm pools.
    max_retries / cell_timeout / on_cell_error:
        Shorthand for the matching :class:`SupervisionPolicy` fields;
        unset knobs resolve through the ``REPRO_MAX_RETRIES`` /
        ``REPRO_CELL_TIMEOUT`` / ``REPRO_ON_CELL_ERROR`` environment and
        fall back to the policy defaults (2 retries, no timeout, abort).
    supervision:
        A complete :class:`SupervisionPolicy` (mutually exclusive with
        the shorthand knobs) for callers that also tune the backoff or
        the pool-rebuild budget.
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
        chunk_size: int = 0,
        progress: "ProgressCallback | None" = None,
        checkpoint: "str | Path | None" = None,
        mp_context: "str | None" = None,
        persistent: bool = False,
        checkpoint_extra: "dict | None" = None,
        max_retries: "int | None" = None,
        cell_timeout: "float | None" = None,
        on_cell_error: "str | None" = None,
        supervision: "SupervisionPolicy | None" = None,
        recorder: "CellRecorder | None" = None,
    ):
        self.workers = resolve_workers(workers)
        self.recorder = recorder
        if chunk_size < 0:
            raise ValueError(f"chunk_size must be >= 0 (0 = auto), got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self.progress = progress
        self.checkpoint_path = checkpoint
        self.checkpoint_extra = dict(checkpoint_extra) if checkpoint_extra else None
        self.mp_context = mp_context
        self.persistent = bool(persistent)
        if supervision is not None and (
            max_retries is not None
            or cell_timeout is not None
            or on_cell_error is not None
        ):
            raise ValueError(
                "pass either a SupervisionPolicy or the individual "
                "max_retries/cell_timeout/on_cell_error knobs, not both"
            )
        self.supervision = (
            supervision
            if supervision is not None
            else SupervisionPolicy.from_env(
                max_retries=max_retries,
                cell_timeout=cell_timeout,
                on_cell_error=on_cell_error,
            )
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
        checkpoint_extra: "dict | None" = None,
        recorder: "CellRecorder | None" = None,
    ) -> "CampaignExecutor":
        """Repoint the per-run hooks of a long-lived executor.

        A persistent executor (``persistent=True``) keeps its warm
        worker pool across ``run_tasks`` passes; the progress callback,
        checkpoint file and cell recorder, by contrast, belong to one
        run.  Callers that reuse an executor across runs (the service's
        slot workers) swap them here between passes — ``run_grids``
        reads all four freshly on every call, so no pool restart is
        involved.  Returns ``self`` for chaining.
        """
        self.progress = progress
        self.checkpoint_path = checkpoint
        self.checkpoint_extra = dict(checkpoint_extra) if checkpoint_extra else None
        self.recorder = recorder
        return self

    # ------------------------------------------------------------------ #

    def run(
        self,
        campaign: "FaultInjectionCampaign",
        sampler: "FaultSampler | None" = None,
        label: str = "",
        suffix: bool = True,
    ) -> ResilienceCurve:
        """Execute one weight-fault campaign's sweep and build its curve."""
        task = WeightFaultCellTask(
            campaign.model,
            campaign.memory,
            campaign.images,
            campaign.labels,
            config=campaign.config,
            sampler=sampler,
            label=label,
            clean_accuracy=campaign.clean_accuracy,
            suffix=suffix,
        )
        return self.run_tasks([task])[0]

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
        results themselves — shard runs execute disjoint cell subsets on
        independent hosts and merge the grids later.  Returns
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
        errors: "list[Exception | None]" = [None] * len(tasks)
        if self.checkpoint_path is not None or self.workers > 1:
            for index, task in enumerate(tasks):
                if units[index] is None:
                    units[index], errors[index] = _pack_task(task)

        journal = None
        if self.checkpoint_path is not None:
            if any(unit is None for unit in units):
                first_error = next(e for e in errors if e is not None)
                warnings.warn(
                    "campaign state is not picklable; the checkpoint can "
                    "validate only the config grid, not the model/sampler/"
                    "eval set — resuming against different campaign content "
                    f"would go undetected ({first_error})",
                    RuntimeWarning,
                    stacklevel=2,
                )
            crcs = [
                f"{unit.crc32():08x}" if unit is not None else None
                for unit in units
            ]
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
                    tasks, units, errors, pending, rates_list, grids,
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
        errors: "list[Exception | None]",
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
        for task, unit, error in zip(tasks, units, errors):
            if unit is None:
                raise ValueError(
                    f"campaign state of {task.label or task.kind!r} must "
                    "be picklable for workers > 1; use a picklable "
                    "sampler (e.g. random_bitflip_sampler(), "
                    "ecc_sampler()) instead of a lambda/closure, or "
                    f"run with workers=1 ({error})"
                ) from error
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
        * Past ``max_pool_rebuilds`` pool losses the loop **degrades**
          by swapping in the in-process lane, chaos off.

        Each result lands in the grid and the journal before its
        progress callback fires.  Cells are pure functions of
        ``(seed, rate, trial)``, so every recovery path yields
        bit-identical grids.
        """
        policy = self.supervision
        lane: "ProcessPoolExecutor | _InProcessLane"
        call: Callable

        def in_process(chaos: "ChaosPolicy | None") -> None:
            nonlocal lane, call, capacity, cell_timeout
            lane = _InProcessLane(tasks, chaos)
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
            in_process(ChaosPolicy.from_env())
        else:
            workers = (
                self.workers if self.persistent else min(self.workers, n_pending)
            )
            chunk_size = self.chunk_size or max(1, n_pending // (workers * 4))
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
                    backoff = max(backoff, policy.backoff_seconds(failures[key]))
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
            backoff = max(backoff, policy.backoff_seconds(failures[key]))
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
            if rebuilds <= policy.max_pool_rebuilds:
                pool_lane()
                return
            warnings.warn(
                f"process pool broke {rebuilds} times "
                f"(max_pool_rebuilds={policy.max_pool_rebuilds}); degrading "
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
            in_process(None)

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
        context = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context is not None
            else None
        )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(_blas_budget(workers),),
        )
        if self.persistent:
            self._pool = pool
        return pool
