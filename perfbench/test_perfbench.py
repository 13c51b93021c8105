"""Tests of the benchmark's own arithmetic and generator.

Run with ``python3 -m pytest perfbench -q``.  None of these run a
workload; the tier-1 suite does not collect this directory.
"""

from __future__ import annotations

import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    layer_metrics,
    load_process_files,
    self_times,
    union_ns,
)


def _span(pid, span_id, parent, name, start, end, key=None):
    return (pid, span_id, parent, name, start, end, key)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 1, 0, "executor.run_grids", 0, 100),
        _span(1, 2, 1, "nn.Conv2d", 10, 40),
        _span(1, 3, 1, "hw.inject", 50, 60),
        _span(1, 4, 2, "metrics.measure", 15, 20),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == 100 - 30 - 10
    assert own[(1, 2)] == 30 - 5
    assert own[(1, 3)] == 10
    assert own[(1, 4)] == 5


def test_self_time_keys_spans_by_process():
    # A forked worker restarts its ids: its span 1 is not the parent's.
    spans = [
        _span(1, 1, 0, "executor.run_grids", 0, 100),
        _span(2, 1, 0, "executor.cell", 10, 50),
        _span(2, 2, 1, "nn.Linear", 20, 30),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == 100
    assert own[(2, 1)] == 30
    assert own[(2, 2)] == 10


def _worker(tracer: Tracer) -> None:
    outer = tracer.begin("executor.cell", key="t:0:1")
    inner = tracer.begin("nn.Linear")
    tracer.end(inner)
    tracer.end(outer)


def test_worker_spans_flush_at_exit_and_keep_their_own_ids(tmp_path):
    tracer = Tracer(tmp_path)
    root = tracer.begin("run")
    process = multiprocessing.get_context("fork").Process(
        target=_worker, args=(tracer,)
    )
    process.start()
    process.join(timeout=30)
    assert process.exitcode == 0
    tracer.end(root)
    tracer.flush()

    files = {proc["pid"]: proc for proc in load_process_files(tmp_path)}
    assert set(files) == {tracer.pid, process.pid}
    worker = files[process.pid]["spans"]
    # Nothing inherited from the parent, and the cell key propagates.
    assert [span[3] for span in worker] == ["nn.Linear", "executor.cell"]
    assert {span[6] for span in worker} == {"t:0:1"}
    spans = [tuple(span) for proc in files.values() for span in proc["spans"]]
    own = self_times(spans)
    cell = next(span for span in worker if span[3] == "executor.cell")
    linear = next(span for span in worker if span[3] == "nn.Linear")
    assert own[(process.pid, cell[1])] == (cell[5] - cell[4]) - (linear[5] - linear[4])
    run_span = files[tracer.pid]["spans"][0]
    assert own[(tracer.pid, run_span[1])] == run_span[5] - run_span[4]


def test_union_merges_overlaps():
    assert union_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_ns([]) == 0


def test_layer_metrics_uncovered_share_and_worker_busy():
    processes = [
        {"pid": 1, "counters": {}, "spans": [
            list(_span(1, 1, 0, "run", 0, 1000)),
            list(_span(1, 2, 1, "executor.run_grids", 100, 900)),
            list(_span(1, 3, 2, "executor.wait", 200, 800)),
        ]},
        {"pid": 2, "counters": {"hw.faults_injected": 3}, "spans": [
            list(_span(2, 1, 0, "executor.cell", 250, 450)),
            list(_span(2, 2, 0, "executor.cell", 400, 600)),
        ]},
    ]
    metrics = layer_metrics(processes, 1, (0, 1000), {}, {})
    assert abs(metrics["trace.uncovered_share"] - 0.2) < 1e-12
    assert metrics["executor.worker_busy_s"] == 350 / 1e9
    assert metrics["executor.self_s"] == 200 / 1e9
    assert metrics["executor.wait_s"] == 600 / 1e9
    assert metrics["hw.faults_injected"] == 3


def test_p90_needs_ten_samples_beyond_it():
    assert run.tail_percentile([float(i) for i in range(99)], 0.9) is None
    values = [float(i) for i in range(100)]
    assert run.tail_percentile(values, 0.9) == 89.0
    assert sum(value > 89.0 for value in values) == 10
    assert run.tail_percentile([], 0.9) is None


def test_quartiles_match_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, median, q3 = run.quartiles(values)
    assert (q1, median, q3) == tuple(statistics.quantiles(values, n=4))


def test_generator_is_deterministic_per_seed():
    for name, generate in workloads.GENERATORS.items():
        assert generate(7) == generate(7), name
        assert generate(7) != generate(8), name
    assert workloads.serve_stream(7) == workloads.serve_stream(7)
    assert workloads.serve_stream(7) != workloads.serve_stream(8)


def test_generated_suites_parse_and_keep_their_shape_across_seeds():
    from repro.scenarios import parse_suite

    for name, generate in workloads.GENERATORS.items():
        shapes = set()
        for seed in (1, 2, 3):
            suite = parse_suite(generate(seed))
            shapes.add(tuple(
                (spec.model, spec.campaign, spec.variant, spec.rates,
                 spec.trials, spec.eval_images, spec.mode)
                for spec in suite.specs
            ))
        assert len(shapes) == 1, name


def test_serve_stream_has_exact_hit_and_miss_counts():
    stream = workloads.serve_stream(3)
    assert len(stream) == workloads.SERVE_HITS + workloads.SERVE_MISSES
    assert not stream[0]["hit"]
    seen = set()
    for request in stream:
        if request["hit"]:
            assert request["key"] in seen
        else:
            assert request["key"] not in seen
            seen.add(request["key"])
    assert len(seen) == workloads.SERVE_MISSES
