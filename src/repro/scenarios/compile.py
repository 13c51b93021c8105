"""Lower campaign specs onto the executor substrate and run them.

:func:`compile_spec` turns one :class:`~repro.scenarios.spec.CampaignSpec`
into the matching executor cell task
(:class:`~repro.core.executor.WeightFaultCellTask`,
:class:`~repro.core.quantized.QuantizedCellTask` or
:class:`~repro.hw.actfaults.ActivationFaultCellTask`);
:func:`run_scenarios` compiles a whole suite and submits **every**
expanded scenario's (rate x trial) cells into **one**
:class:`~repro.core.executor.CampaignExecutor` scheduling pass
(``run_tasks``) — cross-scenario fan-out over a single worker pool, one
shared tensor plane per generation, the published per-task suffix
caches, and one resumable multi-campaign checkpoint file.  Results are
bit-identical to running each scenario on its own (``run_campaign``,
``run_quantized_campaign``, or a one-task ``run_tasks`` call for an
activation campaign) back-to-back at any worker count, which
``tests/test_scenarios.py`` asserts.

A :class:`ScenarioContext` owns the expensive shared artifacts: trained
bundles are produced once per model and prepared mitigation clones once
per ``(model, variant)`` pair — the redundancy variants (ecc, tmr, dmr)
sampling over the unprotected clone — so a 20-scenario matrix over
three variants of one model trains and hardens exactly once each.  The
context also carries the override knobs (zoo config overrides, a small
FT-ClipAct config) that :func:`smoke_context` uses to run every bundled
spec on tiny synthetic data inside the fast test tier.
"""

from __future__ import annotations

import hashlib
import re
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.core.campaign import CampaignConfig
from repro.scenarios.faults import SpecFaultSampler
from repro.utils.serialization import write_json_atomic
from repro.scenarios.spec import (
    REDUNDANCY_VARIANTS,
    CampaignSpec,
    ScenarioSuite,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import SupervisionPolicy
    from repro.core.metrics import ResilienceCurve
    from repro.core.pipeline import FTClipActConfig
    from repro.models.zoo import PretrainedBundle
    from repro.utils.cache import ArtifactCache

__all__ = [
    "ScenarioContext",
    "ScenarioResult",
    "assemble_scenario_result",
    "compile_spec",
    "run_scenarios",
    "scenario_file_stems",
    "smoke_context",
    "write_json_atomic",
    "write_results",
]


@dataclass
class ScenarioContext:
    """Shared model/mitigation artifacts for one batch of scenarios.

    ``bundle_overrides`` are applied to every model's
    :class:`~repro.models.zoo.ZooConfig` (the smoke context shrinks
    training there); ``harden_config`` overrides the FT-ClipAct pipeline
    for ``ftclipact`` scenarios; ``harden_workers`` threads into the
    hardening campaigns when no explicit config is given (hardening is
    bit-identical at any worker count).  Bundles and prepared variant
    clones are memoised, so every scenario sharing a ``(model,
    variant)`` pair reuses one artifact, and the redundancy variants
    reuse the unprotected clone (:func:`memoized_variant`).
    """

    cache: "ArtifactCache | None" = None
    bundle_overrides: Mapping[str, Any] = field(default_factory=dict)
    harden_config: "FTClipActConfig | None" = None
    harden_workers: int = 1

    def __post_init__(self) -> None:
        self._bundles: dict[str, "PretrainedBundle"] = {}
        self._prepared: dict[tuple[str, str], tuple[Any, Any]] = {}

    def bundle(self, model: str) -> "PretrainedBundle":
        """The (cached) pre-trained bundle for ``model``."""
        if model not in self._bundles:
            from repro.experiments import experiment_bundle

            self._bundles[model] = experiment_bundle(
                model, cache=self.cache, **dict(self.bundle_overrides)
            )
        return self._bundles[model]

    def prepared(self, model: str, variant: str) -> tuple[Any, Any]:
        """The (cached) ``(model, sampler)`` pair for one mitigation variant."""
        return memoized_variant(self, self._prepared, model, variant)


def memoized_variant(
    context: Any,
    memo: "dict[tuple[str, str], tuple[Any, Any]]",
    model: str,
    variant: str,
    lock: "Any | None" = None,
) -> tuple[Any, Any]:
    """``context``'s ``(model, sampler)`` for one variant, memoized in ``memo``.

    Redundancy variants (``ecc``, ``tmr``, ``dmr``) never modify the
    model: each compiles onto the memoized unprotected clone with its
    own protection sampler, so their weights ship once and their tasks
    share the unprotected task's clean pass.  ``lock``, if given, is
    held while a variant is prepared (the daemon's artifact lock).
    """
    key = (model, variant)
    if key not in memo:
        from repro.core.baselines import MITIGATION_SAMPLERS
        from repro.experiments import prepare_campaign_variant

        if variant in REDUNDANCY_VARIANTS:
            clone, _ = memoized_variant(context, memo, model, "unprotected", lock)
            memo[key] = (clone, MITIGATION_SAMPLERS[variant]())
        else:
            bundle = context.bundle(model)
            with lock if lock is not None else nullcontext():
                memo[key] = prepare_campaign_variant(
                    bundle,
                    variant,
                    workers=context.harden_workers,
                    harden_config=context.harden_config,
                    cache=context.cache,
                )
    return memo[key]


def smoke_context() -> ScenarioContext:
    """A context sized for the fast test tier (seconds, not minutes).

    Tiny synthetic splits, one training epoch per model, and a minimal
    FT-ClipAct pipeline (network-scope tuning, one Algorithm-1
    iteration) — enough to drive every bundled spec end-to-end through
    the real compiler and executor without paying full-fidelity
    training or hardening.
    """
    from repro.core.campaign import default_fault_rates
    from repro.core.finetune import FineTuneConfig
    from repro.core.pipeline import FTClipActConfig

    return ScenarioContext(
        bundle_overrides={"n_train": 96, "n_val": 48, "n_test": 64, "epochs": 1},
        harden_config=FTClipActConfig(
            profile_images=16,
            eval_images=16,
            batch_size=16,
            trials=1,
            fault_rates=tuple(default_fault_rates(1e-5, 1e-4, 1)),
            tune_scope="network",
            finetune=FineTuneConfig(
                max_iterations=1, min_iterations=1, tolerance=0.1
            ),
        ),
    )


def compile_spec(
    spec: CampaignSpec, context: "ScenarioContext | None" = None
):
    """Lower one spec to its executor cell task.

    The task's ``label`` is the scenario name, so progress callbacks,
    checkpoints and result tables stay addressable per scenario inside
    a cross-scenario sweep.
    """
    from repro.hw.memory import WeightMemory

    context = context if context is not None else ScenarioContext()
    bundle = context.bundle(spec.model)
    try:
        images, labels = bundle.prefix(spec.split, spec.eval_images)
    except ValueError as error:
        raise ValueError(f"scenario {spec.name!r} {error}") from None
    config = CampaignConfig(
        fault_rates=spec.rates,
        trials=spec.trials,
        seed=spec.seed,
        batch_size=spec.batch_size,
    )
    model, variant_sampler = context.prepared(spec.model, spec.variant)

    # random_bitflip compiles to sampler=None so a spec-driven run is the
    # *same object shape* as the direct API call (bit-identical is then
    # trivially preserved); every other model compiles to a picklable
    # SpecFaultSampler over the target bit space.
    spec_sampler = None
    if spec.fault_model.name != "random_bitflip":
        spec_sampler = SpecFaultSampler(
            spec.fault_model.name, spec.fault_model.params
        )

    if spec.campaign == "weight":
        from repro.core.executor import WeightFaultCellTask

        sampler = spec_sampler
        if spec.variant in REDUNDANCY_VARIANTS:
            sampler = variant_sampler  # protection filter over raw flips
        task = WeightFaultCellTask(
            model,
            WeightMemory.from_model(model),
            images,
            labels,
            config=config,
            sampler=sampler,
            label=spec.name,
        )
    elif spec.campaign == "quantized":
        from repro.core.quantized import QuantizedCellTask

        task = QuantizedCellTask(
            model,
            WeightMemory.from_model(model),
            images,
            labels,
            config=config,
            label=spec.name,
            sampler=spec_sampler,
        )
    else:
        # activation (spec validation admits nothing else)
        from repro.hw.actfaults import ActivationFaultCellTask

        task = ActivationFaultCellTask(
            model,
            images,
            labels,
            config=config,
            layers=list(spec.layers) if spec.layers is not None else None,
            label=spec.name,
        )
    if spec.mode == "adaptive":
        from repro.core.batched import AdaptiveCampaignTask

        # Spec validation already restricted adaptive mode to the scalar
        # accuracy campaigns, so the wrap below cannot fail on shape.
        task = AdaptiveCampaignTask(
            task,
            ci_halfwidth=spec.ci_halfwidth,
            max_trials=spec.trials,
            batch_k=spec.batch_k,
            importance=spec.importance,
            label=spec.name,
        )
    return task


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's spec together with its resilience curve.

    Adaptive-mode scenarios additionally carry the raw
    :class:`~repro.core.batched.AdaptiveResult` (interval widths, cells
    executed/skipped, importance weights); their ``curve`` fills the
    skipped trials with the family's interval estimate.

    ``failed`` lists the scenario's quarantined cells (supervised
    executor, ``on_cell_error != "abort"``): per-cell dicts of
    ``rate_index``/``trial``/``reason``/``attempts``/``error`` (the
    scenario-level slice of
    :data:`~repro.core.executor.FAILED_CELL_FIELDS` — the owning task is
    this spec).  Failed cells stay NaN in the curve and are surfaced in
    the JSON payloads as ``failed_cells``; the key is present only when
    the tuple is non-empty, so fault-free runs keep their historical
    byte-identical files.
    """

    spec: CampaignSpec
    curve: "ResilienceCurve"
    adaptive: "Any | None" = None
    failed: "tuple[dict, ...]" = ()

    @property
    def name(self) -> str:
        return self.spec.name

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "spec": self.spec.to_dict(),
            "clean_accuracy": float(self.curve.clean_accuracy),
            "fault_rates": [float(r) for r in self.curve.fault_rates],
            "accuracies": self.curve.accuracies.tolist(),
            "mean_accuracies": self.curve.mean_accuracies().tolist(),
            "auc": float(self.curve.auc()),
        }
        if self.adaptive is not None:
            payload["adaptive"] = self.adaptive.to_dict()
        if self.failed:
            payload["failed_cells"] = [dict(cell) for cell in self.failed]
        return payload


def run_scenarios(
    scenarios: "ScenarioSuite | Sequence[CampaignSpec]",
    workers: "int | None" = None,
    progress: "Callable | None" = None,
    checkpoint: "str | Path | None" = None,
    out_dir: "str | Path | None" = None,
    context: "ScenarioContext | None" = None,
    supervision: "SupervisionPolicy | None" = None,
    executor: "Any | None" = None,
) -> list[ScenarioResult]:
    """Run a whole scenario matrix through one shared executor pool.

    ``workers=None`` uses the suite's ``workers:`` key (default 1);
    ``checkpoint`` names one JSONL journal covering *every* scenario's cells
    (the multi-campaign fingerprint of
    :class:`~repro.core.executor.CampaignExecutor` guards resume);
    ``out_dir`` writes one ``<scenario>.json`` per result, a
    consolidated ``summary.json`` and the canonical columnar per-cell
    store ``store/cells.rcs`` (``docs/RESULTS.md``), the input to
    ``repro report``.  Results are returned in spec order.

    ``supervision`` is the executor's
    :class:`~repro.core.executor.SupervisionPolicy` (see
    ``docs/FAULT_TOLERANCE.md``); with ``on_cell_error != "abort"``,
    cells that exhaust their retry budget land on each result's
    ``failed`` tuple instead of aborting the suite.

    ``executor`` hands in a caller-owned (usually persistent)
    :class:`~repro.core.executor.CampaignExecutor` instead of building a
    fresh one — the service reuses one warm pool per slot this way.  Its
    worker count and supervision policy are fixed at construction, so
    combining it with ``workers`` or ``supervision`` is an error; its
    per-run hooks are repointed via ``reconfigure`` and the caller keeps
    responsibility for ``close()``.
    """
    from repro.core.executor import CampaignExecutor

    if executor is not None and (workers is not None or supervision is not None):
        raise ValueError(
            "pass either a caller-owned executor or the "
            "workers/supervision settings, not both"
        )
    if isinstance(scenarios, ScenarioSuite):
        specs: Sequence[CampaignSpec] = scenarios.specs
        if workers is None:
            workers = scenarios.workers
        suite_name = scenarios.name
    else:
        specs = list(scenarios)
        suite_name = "scenarios"
    # Both input shapes fail fast on duplicate names: ScenarioSuite
    # normally rejects them at construction, but suites arriving through
    # other channels (unpickling, object.__new__) bypass __post_init__,
    # and dying here beats dying late in write_results.
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique within a run")
    if not specs:
        return []
    workers = 1 if workers is None else workers
    context = context if context is not None else ScenarioContext()
    tasks = [compile_spec(spec, context) for spec in specs]
    if executor is None:
        executor = CampaignExecutor(
            workers=workers, progress=progress, checkpoint=checkpoint,
            supervision=supervision,
        )
    else:
        executor.reconfigure(progress=progress, checkpoint=checkpoint)
    from repro.core.batched import AdaptiveResult

    curves = executor.run_tasks(tasks)
    failed_by_task: dict[int, list[dict]] = {}
    for record in executor.quarantined:
        failed_by_task.setdefault(int(record["task_index"]), []).append(
            {
                key: record[key]
                for key in ("rate_index", "trial", "reason", "attempts", "error")
            }
        )
    for cells in failed_by_task.values():
        cells.sort(key=lambda cell: (cell["rate_index"], cell["trial"]))
    results = [
        ScenarioResult(
            spec=spec,
            curve=value.curve,
            adaptive=value,
            failed=tuple(failed_by_task.get(index, ())),
        )
        if isinstance(value, AdaptiveResult)
        else ScenarioResult(
            spec=spec,
            curve=value,
            failed=tuple(failed_by_task.get(index, ())),
        )
        for index, (spec, value) in enumerate(zip(specs, curves))
    ]
    if out_dir is not None:
        write_results(results, out_dir, suite=suite_name)
    return results




def scenario_file_stems(names: Sequence[str]) -> list[str]:
    """Filesystem-safe, collision-free stems for scenario result files.

    Sanitizing distinct names can collide (``a/b=1`` and ``a-b-1`` both
    sanitize to ``a-b-1``); every member of a colliding group gets a
    deterministic suffix derived from its *original* name, so the stems
    are stable across runs, hosts and shard/merge boundaries.
    """
    base = [re.sub(r"[^A-Za-z0-9._+=-]+", "-", name) for name in names]
    counts: dict[str, int] = {}
    for stem in base:
        counts[stem] = counts.get(stem, 0) + 1
    stems = [
        stem
        if counts[stem] == 1
        else f"{stem}-{hashlib.sha256(name.encode('utf-8')).hexdigest()[:10]}"
        for name, stem in zip(names, base)
    ]
    if len(set(stems)) != len(stems):  # pragma: no cover - defensive
        raise ValueError("scenario names collide after filename sanitizing")
    return stems


def assemble_scenario_result(
    spec: CampaignSpec,
    rates: Any,
    values: Any,
    clean_accuracy: float,
    failed: "Sequence[dict]" = (),
) -> ScenarioResult:
    """Rebuild one scenario's result from its raw value grid.

    The merge-side twin of the executor's ``build_result`` path: given
    the spec, the ``(n_rates, n_trials[, cell_width])`` grid and the
    recorded clean accuracy, produce the same
    :class:`~repro.core.metrics.ResilienceCurve` /
    :class:`~repro.core.batched.AdaptiveResult` a live task would have
    built — without models, bundles or training.  ``failed`` carries the
    quarantined-cell records a sharded run collected (their grid entries
    are NaN in ``values``).
    """
    import numpy as np

    from repro.core.batched import AdaptiveResult
    from repro.core.metrics import ResilienceCurve

    rates = np.asarray(rates, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if spec.mode == "adaptive":
        adaptive = AdaptiveResult.assemble(
            label=spec.name,
            rates=rates,
            values=values,
            max_trials=spec.trials,
            weighted=spec.importance is not None,
            n_images=spec.eval_images,
            tolerance=spec.ci_halfwidth,
            clean_accuracy=clean_accuracy,
        )
        return ScenarioResult(
            spec=spec, curve=adaptive.curve, adaptive=adaptive,
            failed=tuple(dict(cell) for cell in failed),
        )
    curve = ResilienceCurve(
        fault_rates=rates,
        accuracies=values,
        clean_accuracy=float(clean_accuracy),
        label=spec.name,
    )
    return ScenarioResult(
        spec=spec, curve=curve, failed=tuple(dict(cell) for cell in failed)
    )


def write_results(
    results: Sequence[ScenarioResult],
    out_dir: "str | Path",
    suite: str = "scenarios",
) -> Path:
    """Write per-scenario JSON files plus ``summary.json``; returns it.

    Every file lands atomically (:func:`write_json_atomic`), and the
    payload is a pure function of the results — an unsharded run and a
    ``repro merge`` of the same cells produce byte-identical files.  The
    canonical per-cell columnar store (``store/cells.rcs``, see
    ``docs/RESULTS.md``) is written alongside them; being itself a pure
    function of the results, its bytes obey the same shard/merge
    identity.
    """
    from repro.results.store import store_from_results, write_store

    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    write_store(store_from_results(results), target)
    stems = scenario_file_stems([result.name for result in results])
    rows = []
    for result, stem in zip(results, stems):
        path = write_json_atomic(target / f"{stem}.json", result.to_dict())
        row = {
            "name": result.name,
            "file": path.name,
            "model": result.spec.model,
            "campaign": result.spec.campaign,
            "variant": result.spec.variant,
            "fault_model": result.spec.fault_model.to_dict(),
            "clean_accuracy": float(result.curve.clean_accuracy),
            "auc": float(result.curve.auc()),
            "mean_accuracies": result.curve.mean_accuracies().tolist(),
        }
        if result.adaptive is not None:
            row["cells_executed"] = int(result.adaptive.cells_executed)
            row["cells_skipped"] = int(result.adaptive.cells_skipped)
        if result.failed:
            row["failed_cells"] = [dict(cell) for cell in result.failed]
        rows.append(row)
    return write_json_atomic(
        target / "summary.json",
        {"suite": suite, "count": len(rows), "scenarios": rows},
    )
