"""Suffix re-execution throughput: clean forward vs suffix per model.

Not a paper figure — an infrastructure benchmark for the suffix engine
(:mod:`repro.core.suffix`).  For every zoo architecture it measures

* one full forward pass over the evaluation set,
* suffix re-execution from a *deep* cut (the deepest CONV/FC layer) and
  from a *shallow* cut (the first faultable boundary after the input),
* a layerwise-campaign workload scoped to the deepest layer — the
  engine's target case — run once with the engine off and once with it
  on (the on-timing includes the engine's one-time clean pass),
* the eval forward's seconds by layer type (Conv2d, MaxPool2d, Linear,
  BatchNorm2d, activations, other), each the median of
  :data:`LAYER_REPETITIONS` forwards over the same images.

Results land in ``benchmarks/results/BENCH_forward.json``.  Its
``layer_history`` keeps one per-layer row per git SHA (``<sha>-dirty``
for uncommitted ``src/`` changes), so a change to a layer lands with
its before/after row.

The headline acceptance bar: the scoped campaign on the deepest layer
of the deepest zoo model (VGG-16, 13 CONV + 1 FC) must be at least 2x
faster with the engine, with bit-identical accuracies (asserted here;
the registry-wide property tests in tests/test_core_suffix.py guard
bit-identity broadly).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig
from repro.core.executor import WeightFaultCellTask
from repro.core.suffix import SuffixForwardEngine
from repro.data import SyntheticCIFAR10
from repro.hw.memory import WeightMemory
from repro.models.registry import MODEL_BUILDERS, layer_names
from repro.nn.activations import Activation

from .conftest import RESULTS_DIR, git_sha, write_tracked

# Weight training is irrelevant to throughput: freshly-initialised
# networks at the zoo's default width keep the benchmark in CPU-seconds.
WIDTH_MULT = 0.25
EVAL_IMAGES = 128
BATCH_SIZE = 64
CAMPAIGN_CELLS_RATES = (1e-4, 3e-4)
CAMPAIGN_TRIALS = 3
SEED = 2020
DEEPEST_ZOO_MODEL = "vgg16"  # 13 CONV + 1 FC: the deepest architecture
LAYER_REPETITIONS = 5
LAYER_TYPES = ("Conv2d", "MaxPool2d", "Linear", "BatchNorm2d")


def _timed_batches(fn, images):
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for offset in range(0, images.shape[0], BATCH_SIZE):
            fn(images[offset : offset + BATCH_SIZE], offset)
    return time.perf_counter() - start


def _layer_type(layer) -> str:
    if isinstance(layer, Activation):
        return "activations"
    name = type(layer).__name__
    return name if name in LAYER_TYPES else "other"


def _layer_seconds(model, images) -> dict:
    """Eval-forward seconds per layer type, medians of the repetitions."""
    samples: dict[str, list[float]] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(LAYER_REPETITIONS):
            seconds: dict[str, float] = {}
            for offset in range(0, images.shape[0], BATCH_SIZE):
                out = images[offset : offset + BATCH_SIZE]
                for layer in model:
                    start = time.perf_counter()
                    out = layer(out)
                    elapsed = time.perf_counter() - start
                    kind = _layer_type(layer)
                    seconds[kind] = seconds.get(kind, 0.0) + elapsed
            for kind, value in seconds.items():
                samples.setdefault(kind, []).append(value)
    return {
        kind: round(statistics.median(samples[kind]), 5)
        for kind in (*LAYER_TYPES, "activations", "other")
        if kind in samples
    }


def _layer_history(path, entry: dict) -> list:
    """The stored per-SHA layer rows with ``entry`` replacing its SHA's row."""
    history = []
    if path.exists():
        history = json.loads(path.read_text()).get("layer_history", [])
    return [row for row in history if row["sha"] != entry["sha"]] + [entry]


def _campaign_seconds(model, memory, images, labels, suffix):
    config = CampaignConfig(
        fault_rates=CAMPAIGN_CELLS_RATES,
        trials=CAMPAIGN_TRIALS,
        seed=SEED,
        batch_size=BATCH_SIZE,
    )
    task = WeightFaultCellTask(model, memory, images, labels, config=config)
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_NO_SUFFIX", "0" if suffix else "1")
        # The timer covers runner construction: the engine's one-time
        # clean pass is part of the cost being measured, not overhead.
        start = time.perf_counter()
        runner = task.make_runner()
        try:
            values = [
                runner.run_cell(rate_index, trial)
                for rate_index in range(len(CAMPAIGN_CELLS_RATES))
                for trial in range(CAMPAIGN_TRIALS)
            ]
            return time.perf_counter() - start, np.asarray(values)
        finally:
            runner.close()


def test_bench_forward_suffix(record_result):
    images, labels = SyntheticCIFAR10(seed=3).generate(EVAL_IMAGES, "test")
    payload = {
        "benchmark": "forward_suffix",
        "eval_images": EVAL_IMAGES,
        "batch_size": BATCH_SIZE,
        "width_mult": WIDTH_MULT,
        "campaign_cells": len(CAMPAIGN_CELLS_RATES) * CAMPAIGN_TRIALS,
        "models": {},
    }
    lines = [
        "forward vs suffix re-execution "
        f"({EVAL_IMAGES} images, width_mult {WIDTH_MULT}):"
    ]
    for name in sorted(MODEL_BUILDERS):
        model = MODEL_BUILDERS[name](num_classes=10, width_mult=WIDTH_MULT, seed=0)
        model.eval()
        layers = layer_names(model)
        deepest = layers[-1]
        memory = WeightMemory.from_model(model)
        engine = SuffixForwardEngine.build(
            model, images, BATCH_SIZE, scope_layers=memory.layer_names()
        )
        shallow = next(
            (layer for layer in layers if engine.start_index_for([layer])), None
        )

        full_seconds = _timed_batches(lambda batch, _: model(batch), images)
        layer_seconds = _layer_seconds(model, images)
        deep_seconds = _timed_batches(engine.forward_fn([deepest]), images)
        shallow_seconds = (
            _timed_batches(engine.forward_fn([shallow]), images)
            if shallow is not None
            else None
        )
        engine.close()

        scoped = WeightMemory.from_model(model, layers=[deepest])
        campaign_full, full_values = _campaign_seconds(
            model, scoped, images, labels, suffix=False
        )
        campaign_suffix, suffix_values = _campaign_seconds(
            model, scoped, images, labels, suffix=True
        )
        # Parallelism/suffix never change the science.
        np.testing.assert_array_equal(suffix_values, full_values)
        speedup = campaign_full / campaign_suffix

        payload["models"][name] = {
            "layers": len(layers),
            "deep_cut_layer": deepest,
            "shallow_cut_layer": shallow,
            "full_forward_seconds": round(full_seconds, 4),
            "suffix_deep_seconds": round(deep_seconds, 4),
            "suffix_shallow_seconds": (
                round(shallow_seconds, 4) if shallow_seconds is not None else None
            ),
            "campaign_full_seconds": round(campaign_full, 3),
            "campaign_suffix_seconds": round(campaign_suffix, 3),
            "campaign_speedup": round(speedup, 2),
            "bit_identical": True,
            "layer_seconds": layer_seconds,
        }
        lines.append(
            f"  {name:8s} forward {full_seconds:7.4f}s | "
            f"suffix@{deepest} {deep_seconds:7.4f}s | "
            f"campaign {campaign_full:6.3f}s -> {campaign_suffix:6.3f}s "
            f"({speedup:.1f}x)"
        )
        lines.append(
            "           by layer: "
            + ", ".join(f"{kind} {value:.4f}s" for kind, value in layer_seconds.items())
        )

    path = RESULTS_DIR / "BENCH_forward.json"
    layer_row = {
        "sha": git_sha(),
        "models": {
            name: entry["layer_seconds"] for name, entry in payload["models"].items()
        },
    }
    payload["layer_history"] = _layer_history(path, layer_row)
    write_tracked(path, json.dumps(payload, indent=2) + "\n")
    record_result("BENCH_forward", "\n".join(lines))

    # Acceptance bar: >= 2x on the deepest layer of the deepest zoo model.
    deepest_model = payload["models"][DEEPEST_ZOO_MODEL]
    assert deepest_model["campaign_speedup"] >= 2.0, deepest_model
