"""Campaign executor throughput: serial vs 2-worker wall clock, per PR.

Not a paper figure — an infrastructure benchmark.  It runs the *same*
fixed campaigns (float32 weight-fault and int8 quantized — the two
curve-producing executor paths) serially and across two worker
processes, :data:`REPETITIONS` times each with the four timings
interleaved, asserts every curve is bit-identical (the executor's
determinism contract), and appends the wall-clock times to
``benchmarks/results/BENCH_campaign.json``: per timing the median, min
and interquartile range, with the top-level seconds and speedups taken
from the medians.  A single sample is not enough: on a shared 2-CPU
host, two single-sample runs of the same code measured speedups of
0.75x and 1.00x.

The JSON is an **append-only history**: one entry per git SHA (re-runs
on the same SHA replace that SHA's entry), so the speedup trajectory is
tracked *across PRs*, as the ROADMAP asks.  Reporting is honest about
the hardware: every entry records ``cpus`` (this process's CPU affinity
count, which the executor's BLAS thread budget divides) and
``blas_threads`` (the serial process's count and the count a pool
worker actually runs) up front, and on a single-CPU runner — where
process parallelism cannot win anything — the entry reports
``parallel_overhead_pct`` (how much the pool costs) instead of
advertising a meaningless sub-1.0 "speedup"; multi-core runners get
the usual ``speedup`` ratios.  Raw seconds are always recorded either
way.

Each entry also carries a ``zero_copy`` block measuring the tensor
plane (``docs/MEMORY_MODEL.md``): the per-worker cost of attaching the
shared-memory segment and materializing a task as read-only views
versus deserializing a private copy, plus the peak-RSS delta between
the two modes.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.campaign import CampaignConfig, run_campaign
from repro.core.executor import (
    CampaignExecutor,
    WeightFaultCellTask,
    resolve_workers,
)
from repro.core.quantized import run_quantized_campaign
from repro.data import SyntheticCIFAR10
from repro.hw.memory import WeightMemory
from repro.models import LeNet5
from repro.utils.blas import blas_threads
from repro.utils.shm import pack_object, ship_units, shared_memory_available

from .conftest import RESULTS_DIR, git_sha, write_tracked

# Fixed workload: a full-size LeNet-5 on 32x32 images, heavy enough that
# per-cell evaluation dominates pool overhead on a multi-core box, small
# enough to stay in CPU-seconds.  Weight training is irrelevant to
# throughput, so the model keeps its freshly initialised weights.
RATES = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3)
TRIALS = 8
EVAL_IMAGES = 256
SEED = 2020
# Interleaved repetitions of each of the four timings.
REPETITIONS = 5


def _model_and_eval_set():
    model = LeNet5(seed=0)
    model.eval()
    images, labels = SyntheticCIFAR10(seed=3).generate(EVAL_IMAGES, "test")
    return model, images, labels


def _append_history(path, entry: dict) -> dict:
    """Merge ``entry`` into the append-only per-SHA history file.

    Pre-history flat files (a single run's dict) are migrated into a
    one-entry history keyed ``"pre-history"`` so nothing is lost.
    """
    history: list[dict] = []
    if path.exists():
        stored = json.loads(path.read_text())
        if "history" in stored:
            history = list(stored["history"])
        elif "serial_seconds" in stored:  # pre-history flat layout
            stored.pop("benchmark", None)
            stored.setdefault("sha", "pre-history")
            history = [stored]
    history = [item for item in history if item.get("sha") != entry["sha"]]
    history.append(entry)
    return {"benchmark": "campaign_executor", "history": history}


def _summary(samples: "list[float]") -> dict:
    """Median, min and interquartile range ``[q1, q3]`` of one timing."""
    q1, _median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(statistics.median(samples), 3),
        "min": round(min(samples), 3),
        "iqr": [round(q1, 3), round(q3, 3)],
    }


def _worker_blas_threads(workers: int) -> "int | None":
    """The BLAS thread count a worker of a campaign pool actually runs."""
    executor = CampaignExecutor(workers=workers, persistent=True)
    try:
        return executor._acquire_pool(workers).submit(blas_threads).result()
    finally:
        executor.close()


def _rss_kb() -> int:
    """This process's current resident set, in kB (Linux /proc)."""
    import resource

    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _attach_probe(ref, copy: bool) -> dict:
    """Runs in a fresh child: attach the plane and materialize the task.

    ``copy=False`` is the zero-copy path (read-only views over the
    mapped segment); ``copy=True`` is the historical deserializing path
    (private writable copies).  The recorded residency is the child's
    RSS *growth* across attach + touch-every-weight — fork-inherited
    ``ru_maxrss`` floors at the parent's peak and would hide the
    difference — and the checksum proves both modes materialized
    identical bytes.
    """
    rss_before = _rss_kb()
    start = time.perf_counter()
    view = ref.open()
    task = view.load("task/0", copy=copy)
    checksum = float(
        sum(float(np.sum(r.parameter.data)) for r in task.memory.regions)
    )
    seconds = time.perf_counter() - start
    rss_delta = _rss_kb() - rss_before
    del task
    view.close()
    return {"seconds": seconds, "rss_delta_kb": rss_delta, "checksum": checksum}


def _zero_copy_entry(model, memory, images, labels, config) -> "dict | None":
    """Per-worker attach cost and peak RSS, views vs private copies.

    Ships one real campaign task through the tensor plane and measures,
    in one fresh process per mode, the cost of materializing it — the
    ISSUE-4 `BENCH_campaign.json` fields tracking what zero-copy buys
    per worker on this host.
    """
    if not shared_memory_available():  # pragma: no cover - Linux runners
        return None
    task = WeightFaultCellTask(model, memory, images, labels, config=config)
    shipment = ship_units([("task/0", pack_object(task))])
    try:
        probes = {}
        for mode, copy in (("attach", False), ("deserialize", True)):
            with ProcessPoolExecutor(max_workers=1) as pool:
                probes[mode] = pool.submit(
                    _attach_probe, shipment.ref, copy
                ).result()
    finally:
        shipment.release()
    assert probes["attach"]["checksum"] == probes["deserialize"]["checksum"]
    return {
        "attach_seconds": round(probes["attach"]["seconds"], 4),
        "attach_rss_delta_kb": probes["attach"]["rss_delta_kb"],
        "deserialize_seconds": round(probes["deserialize"]["seconds"], 4),
        "deserialize_rss_delta_kb": probes["deserialize"]["rss_delta_kb"],
        "peak_rss_delta_kb": (
            probes["attach"]["rss_delta_kb"]
            - probes["deserialize"]["rss_delta_kb"]
        ),
    }


def test_bench_campaign_serial_vs_two_workers(record_result, bench_workers):
    model, images, labels = _model_and_eval_set()
    memory = WeightMemory.from_model(model)
    config = CampaignConfig(fault_rates=RATES, trials=TRIALS, seed=SEED)
    # Fixed 2-worker comparison by default so the JSON stays comparable
    # across PRs; REPRO_WORKERS>1 swaps in a wider pool to explore.
    workers = bench_workers if bench_workers > 1 else 2

    # The int8 campaign shares the executor substrate, so the speedup
    # trend covers both curve-producing paths.
    runs = {
        "serial": lambda: run_campaign(
            model, memory, images, labels, config, workers=1
        ),
        "parallel": lambda: run_campaign(
            model, memory, images, labels, config, workers=workers
        ),
        "quantized_serial": lambda: run_quantized_campaign(
            model, memory, images, labels, config
        ),
        "quantized_parallel": lambda: run_quantized_campaign(
            model, memory, images, labels, config, workers=workers
        ),
    }
    samples: "dict[str, list[float]]" = {name: [] for name in runs}
    curves: dict = {}
    for _ in range(REPETITIONS):
        for name, run in runs.items():
            start = time.perf_counter()
            curve = run()
            samples[name].append(time.perf_counter() - start)
            curves.setdefault(name, curve)
            # The headline guarantee: parallelism never changes the
            # science, on any repetition.
            reference = curves[name.replace("parallel", "serial")]
            np.testing.assert_array_equal(curve.accuracies, reference.accuracies)
            assert curve.clean_accuracy == reference.clean_accuracy
    serial_seconds = statistics.median(samples["serial"])
    parallel_seconds = statistics.median(samples["parallel"])
    int8_serial_seconds = statistics.median(samples["quantized_serial"])
    int8_parallel_seconds = statistics.median(samples["quantized_parallel"])

    cpus = resolve_workers(0)  # the affinity count the BLAS budget divides
    entry = {
        "sha": git_sha(),
        "cpus": cpus,
        "workers": workers,
        "cells": len(RATES) * TRIALS,
        "eval_images": EVAL_IMAGES,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "quantized_serial_seconds": round(int8_serial_seconds, 3),
        "quantized_parallel_seconds": round(int8_parallel_seconds, 3),
        "bit_identical": True,
        "repetitions": REPETITIONS,
        "timings": {name: _summary(values) for name, values in samples.items()},
        "blas_threads": {
            "serial": blas_threads(),
            "worker": _worker_blas_threads(workers),
        },
    }
    zero_copy = _zero_copy_entry(model, memory, images, labels, config)
    if zero_copy is not None:
        entry["zero_copy"] = zero_copy
    if cpus == 1:
        # A "speedup" below 1.0 on one CPU is just pool overhead wearing
        # a misleading name; report it as what it is.
        entry["parallel_overhead_pct"] = round(
            (parallel_seconds / serial_seconds - 1.0) * 100.0, 1
        )
        entry["quantized_parallel_overhead_pct"] = round(
            (int8_parallel_seconds / int8_serial_seconds - 1.0) * 100.0, 1
        )
        ratios = (
            "parallel overhead {parallel_overhead_pct}% "
            "(quantized {quantized_parallel_overhead_pct}%) — single-CPU "
            "runner, parallelism cannot win".format(**entry)
        )
    else:
        entry["speedup"] = round(serial_seconds / parallel_seconds, 3)
        entry["quantized_speedup"] = round(
            int8_serial_seconds / int8_parallel_seconds, 3
        )
        ratios = "speedup {speedup}x (quantized {quantized_speedup}x)".format(
            **entry
        )

    path = RESULTS_DIR / "BENCH_campaign.json"
    payload = _append_history(path, entry)
    write_tracked(path, json.dumps(payload, indent=2) + "\n")
    zc_note = ""
    if zero_copy is not None:
        zc_note = (
            "; zero-copy attach {attach_seconds}s/+{attach_rss_delta_kb}kB "
            "vs deserialize {deserialize_seconds}s/"
            "+{deserialize_rss_delta_kb}kB (peak-RSS delta "
            "{peak_rss_delta_kb}kB)".format(**zero_copy)
        )
    record_result(
        "BENCH_campaign",
        "campaign executor [{sha}, {cpus} CPUs, BLAS threads {blas}]: "
        "median of {repetitions}: serial {serial_seconds}s "
        "vs {workers}-worker {parallel_seconds}s; quantized serial "
        "{quantized_serial_seconds}s vs {quantized_parallel_seconds}s; "
        .format(
            blas="serial {serial} / worker {worker}".format(**entry["blas_threads"]),
            **entry,
        )
        + ratios
        + zc_note
        + f"; bit-identical curves; history entries: {len(payload['history'])}",
    )
