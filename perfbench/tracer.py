"""Spans and counters recorded from outside the program under test.

The benchmark never edits ``src/``: it wraps public callables of each
layer where their callers look them up (a module attribute, a class
attribute, or a name a module imported into its own namespace) and
records one span per call.  A span is ``(pid, id, parent, name, start,
end, key)`` in monotonic nanoseconds; ``key`` groups the spans of one
campaign cell (from the runner's ``run_cell(rate_index, trial)``) or of
one service request (its run id).  Spans stay in memory and each process
writes its own file once, at exit; forked pool workers flush through a
``multiprocessing`` finalizer, which runs when the worker leaves its
loop.

:func:`install_counting` alone only remembers every
:class:`~repro.core.suffix.SuffixForwardEngine` a process builds, so
its public ``stats`` can be summed at exit: untraced runs use it for
their exact counts.  :func:`install_spans` adds the span wrappers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

# Engine stats summed into the suffix counts.
SUFFIX_STATS = {
    "cells_clean_shortcut": "suffix.clean_shortcuts",
    "batches_suffix": "suffix.batches_suffix",
    "batches_full": "suffix.batches_full",
}


class Tracer:
    """The spans, counters and engines of one process."""

    def __init__(self, out_dir: "str | Path", spans: bool = True):
        self.out_dir = Path(out_dir)
        self.record_spans = spans
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.engines: list[Any] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def start(self, out_dir: "str | Path") -> None:
        """Begin a new repetition whose processes flush into ``out_dir``."""
        self.out_dir = Path(out_dir)
        self.spans = []
        self.counters = defaultdict(float)
        self.engines = []

    def _adopt_fork(self) -> None:
        """Start empty in a forked child and flush when it exits."""
        if os.getpid() == self.pid:
            return
        import multiprocessing.util

        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, key: Any = None) -> list:
        self._adopt_fork()
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None and parent is not None:
            key = parent[3]
        frame = [next(self._ids), parent[0] if parent else 0, name, key,
                 time.perf_counter_ns()]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        self.spans.append(
            (self.pid, frame[0], frame[1], frame[2], frame[4], now, frame[3])
        )

    def count(self, name: str, value: float) -> None:
        self._adopt_fork()
        with self._lock:
            self.counters[name] += value

    def engine_counts(self) -> dict[str, int]:
        totals = {name: 0 for name in SUFFIX_STATS.values()}
        for engine in self.engines:
            for stat, name in SUFFIX_STATS.items():
                totals[name] += int(engine.stats.get(stat, 0))
        return totals

    def flush(self) -> None:
        """Write this process's spans, counters and engine counts."""
        counters = dict(self.counters)
        counters.update(self.engine_counts())
        counters["suffix.engines"] = len(self.engines)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"proc-{self.pid}.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps({
            "pid": self.pid,
            "counters": counters,
            "spans": [list(span) for span in self.spans],
        }))
        os.replace(tmp, path)


def load_process_files(out_dir: "str | Path") -> list[dict]:
    """Every process file a traced run left in ``out_dir``."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(out_dir).glob("proc-*.json"))
    ]


# --------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------- #


def _span_call(tracer: Tracer, name: str, function: Callable,
               key_of: "Callable | None" = None,
               after: "Callable | None" = None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name, key_of(args, kwargs) if key_of else None)
        try:
            result = function(*args, **kwargs)
            if after is not None:
                after(frame, args, kwargs, result)
            return result
        finally:
            tracer.end(frame)

    return wrapper


class _SpanContext:
    """A context manager whose whole ``with`` block is one span."""

    def __init__(self, tracer: Tracer, name: str, inner: Any):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.frame = self.tracer.begin(self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.tracer.end(self.frame)


def _span_context(tracer: Tracer, name: str, method: Callable) -> Callable:
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        return _SpanContext(tracer, name, method(*args, **kwargs))

    return wrapper


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping its kind."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _patch_name(modules: Iterable[Any], attr: str,
                make: Callable[[Callable], Callable]) -> None:
    """Wrap one function everywhere it is looked up by name.

    Every module holding the same function object under ``attr`` gets
    the same wrapper, so a name imported with ``from x import f`` is
    traced in the importer too.
    """
    modules = [module for module in modules if hasattr(module, attr)]
    original = getattr(modules[0], attr)
    wrapper = make(original)
    for module in modules:
        if getattr(module, attr) is original:
            setattr(module, attr, wrapper)


def _layer_work(layer: Any, x: Any, out: Any) -> "tuple[float, float] | None":
    """(flop, bytes moved) of one Conv2d/Linear/MaxPool2d call, by shape."""
    kind = type(layer).__name__
    itemsize = out.dtype.itemsize
    moved = (x.size + out.size) * itemsize
    if kind == "Conv2d":
        weight = layer.weight.data
        cout, cin_per_group, kh, kw = weight.shape
        flop = 2.0 * out.size * cin_per_group * kh * kw
        return flop, moved + weight.size * weight.dtype.itemsize
    if kind == "Linear":
        weight = layer.weight.data
        flop = 2.0 * out.size * x.shape[-1]
        return flop, moved + weight.size * weight.dtype.itemsize
    if kind == "MaxPool2d":
        kh, kw = layer.kernel_size
        return float(out.size * kh * kw), moved
    return None


def _nn_forward(tracer: Tracer, function: Callable) -> Callable:
    @functools.wraps(function)
    def forward(self, x, *args, **kwargs):
        kind = type(self).__name__
        frame = tracer.begin(f"nn.{kind}")
        try:
            out = function(self, x, *args, **kwargs)
        finally:
            tracer.end(frame)
        work = _layer_work(self, x, out)
        if work is not None:
            tracer.count(f"nn.{kind}.flop", work[0])
            tracer.count(f"nn.{kind}.bytes", work[1])
        return out

    return forward


def _nn_layer_classes() -> list[type]:
    """Every layer class defining its own ``forward`` (containers aside)."""
    import repro.core.clipped  # noqa: F401 - registers the clipped layers
    import repro.nn as nn

    found: list[type] = []
    pending = list(nn.Module.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if (cls is not nn.Sequential and "forward" in cls.__dict__
                and cls.__module__.startswith("repro.")):
            found.append(cls)
    return found


def _cell_key(args: tuple, kwargs: dict) -> str:
    runner, rate_index, trial = args[0], args[1], args[2]
    label = getattr(getattr(runner, "task", None), "label", None) or ""
    return f"{label}:{int(rate_index)}:{int(trial)}"


def _run_id(run_dir: "str | Path") -> str:
    """The service run id of a daemon run directory (staged or final)."""
    name = Path(run_dir).name
    return name[len(".tmp-"):] if name.startswith(".tmp-") else name


def install_counting(tracer: Tracer) -> None:
    """Remember every suffix engine built, for the exact counts.

    The hook also times ``SuffixForwardEngine.build`` (the clean pass)
    once :func:`install_spans` has switched span recording on.  Install
    it before any pool forks, so workers inherit it.
    """
    from repro.core.suffix import SuffixForwardEngine

    def remember_engine(build):
        @functools.wraps(build)
        def wrapper(cls, *args, **kwargs):
            if not tracer.record_spans:
                engine = build(cls, *args, **kwargs)
            else:
                frame = tracer.begin("suffix.build")
                try:
                    engine = build(cls, *args, **kwargs)
                finally:
                    tracer.end(frame)
            if engine is not None:
                tracer._adopt_fork()
                tracer.engines.append(engine)
            return engine

        return wrapper

    _patch(SuffixForwardEngine, "build", remember_engine)


def install_spans(tracer: Tracer, service: bool = False) -> None:
    """Wrap every traced layer boundary and switch span recording on.

    Requires :func:`install_counting` first; must run before any pool
    forks.  ``service`` also times ``run_scenarios`` as the daemon's
    execute step; only the daemon entry point sets it.
    """
    tracer.record_spans = True
    import repro.core.batched as batched
    import repro.core.campaign as campaign
    import repro.core.executor as executor
    import repro.core.metrics as metrics
    import repro.core.quantized as quantized
    import repro.experiments as experiments
    import repro.hw.actfaults as actfaults
    import repro.hw.ecc as ecc
    import repro.hw.faultmodels as faultmodels
    import repro.hw.injector as injector
    import repro.hw.quant as quant
    import repro.hw.tmr as tmr
    import repro.results.report as report
    import repro.results.store as store
    import repro.scenarios as scenarios
    import repro.scenarios.compile as compile_
    import repro.scenarios.shard as shard
    import repro.service.daemon as daemon

    def span(name, key_of=None, after=None):
        return lambda function: _span_call(tracer, name, function, key_of, after)

    # scenarios + artifacts
    _patch_name([compile_, shard, scenarios], "compile_spec",
                span("scenarios.compile"))
    _patch_name([shard, scenarios], "merge_run", span("scenarios.merge"))
    _patch(experiments, "experiment_bundle", span("artifacts.bundle"))
    _patch(experiments, "prepare_campaign_variant", span("artifacts.prepare"))

    # hw
    for model in vars(faultmodels).values():
        if (isinstance(model, type) and issubclass(model, faultmodels.FaultModel)
                and model is not faultmodels.FaultModel
                and "sample" in model.__dict__):
            _patch(model, "sample", span("hw.sample"))
    _patch(quant.QuantizedWeightMemory, "sample_bitflips", span("hw.sample"))
    for protection in (ecc.ECCFilter, tmr.TMRFilter, tmr.DMRFilter):
        _patch(protection, "sample_effective", span("hw.sample"))

    def count_faults(frame, args, kwargs, record):
        fault_set = args[1] if len(args) > 1 else kwargs.get("fault_set")
        tracer.count("hw.faults_injected", len(fault_set))

    _patch(injector.FaultInjector, "inject", span("hw.inject", after=count_faults))
    _patch(injector.FaultInjector, "restore", span("hw.inject"))
    _patch(quant.QuantizedWeightMemory, "deployed",
           lambda method: _span_context(tracer, "hw.quant", method))
    _patch(actfaults.ActivationFaultInjector, "session",
           lambda method: _span_context(tracer, "hw.actfault", method))

    # nn
    for layer in _nn_layer_classes():
        _patch(layer, "forward", lambda function: _nn_forward(tracer, function))

    # metrics
    _patch_name([metrics, executor, campaign, quantized],
                "evaluate_accuracy_arrays", span("metrics.measure"))

    # executor + batched
    _patch(executor.CampaignExecutor, "run_grids", span("executor.run_grids"))
    _patch_name([executor], "pack_object", span("executor.pack"))
    _patch_name([executor], "ship_units", span("executor.ship"))
    _patch_name([executor], "wait", span("executor.wait"))
    _patch(batched.BatchedSuffixKernel, "run_family", span("batched.run_family"))
    _patch(batched.AdaptiveCampaignTask, "build_result", span("batched.build_result"))
    for runner in (executor.InjectionCellRunner, quantized._QuantizedCellRunner,
                   actfaults._ActivationCellRunner, batched._AdaptiveFamilyRunner):
        _patch(runner, "run_cell", span("executor.cell", key_of=_cell_key))

    # results
    _patch(store.SegmentRecorder, "cell", span("results.record"))
    _patch_name([compile_, shard, scenarios], "write_results",
                span("results.write"))
    _patch(report, "write_report",
           span("results.report", key_of=lambda a, k: _run_id(a[0])))

    # service (only exercised inside the daemon)
    def submit_key(frame, args, kwargs, result):
        frame[3] = result.get("id")

    _patch(daemon.CampaignService, "submit", span("service.submit", after=submit_key))
    _patch(daemon.CampaignService, "results_payload",
           span("service.fetch", key_of=lambda a, k: a[1]))
    _patch(daemon.CampaignService, "store_bytes",
           span("service.fetch", key_of=lambda a, k: a[1]))
    if service:
        _patch(compile_, "run_scenarios",
               span("service.execute", key_of=lambda a, k: _run_id(k["out_dir"])))


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #

NN_LAYERS = ("Conv2d", "MaxPool2d", "Linear", "ReLU", "ReLU6", "ClippedReLU",
             "Flatten")
WORK_LAYERS = ("Conv2d", "Linear", "MaxPool2d")
ROOT_SPAN = "run"


def self_times(spans: Iterable[tuple]) -> dict[tuple[int, int], int]:
    """Self time (ns) of every span: its duration minus its children's.

    Spans are keyed by ``(pid, id)``: ids restart in every forked worker,
    so a worker's span never counts as the child of a parent-process
    span with the same id.  Children of one span run on its thread and
    so never overlap each other.
    """
    spans = list(spans)
    covered: dict[tuple[int, int], int] = defaultdict(int)
    for pid, _, parent, _, start, end, _ in spans:
        if parent:
            covered[(pid, parent)] += end - start
    return {
        (pid, span_id): (end - start) - covered[(pid, span_id)]
        for pid, span_id, _, _, start, end, _ in spans
    }


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _median(values: list[float]) -> float:
    import statistics

    return statistics.median(values) if values else 0.0


def layer_metrics(processes: list[dict], main_pid: int, window: tuple[int, int],
                  counts: dict, extra: dict) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``main_pid`` is the process that made the timed call (the daemon for
    ``serve-mixed``); ``window`` the traced wall in monotonic ns; every
    other process is a pool worker.  ``counts`` are the exact counts of
    the repetition, ``extra`` the values measured outside the spans
    (``executor.cpu_util``, service counters).
    """
    spans = [tuple(span) for process in processes for span in process["spans"]]
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        pid, span_id, _, name, start, end, _ = span
        self_s[name] += own[(pid, span_id)] / 1e9
        total_s[name] += (end - start) / 1e9
        calls[name] += 1
    counters: dict[str, float] = defaultdict(float)
    for process in processes:
        for name, value in process["counters"].items():
            counters[name] += value

    metrics: dict[str, float] = {}
    for layer in NN_LAYERS:
        metrics[f"nn.{layer}.self_s"] = self_s[f"nn.{layer}"]
        metrics[f"nn.{layer}.calls"] = calls[f"nn.{layer}"]
    for layer in WORK_LAYERS:
        metrics[f"nn.{layer}.gflop"] = counters[f"nn.{layer}.flop"] / 1e9
        metrics[f"nn.{layer}.mb_moved"] = counters[f"nn.{layer}.bytes"] / 1e6
    metrics["suffix.clean_pass_s"] = total_s["suffix.build"]
    for name in ("suffix.batches_suffix", "suffix.batches_full",
                 "suffix.clean_shortcuts"):
        metrics[name] = counters[name]
    metrics["hw.sample_s"] = self_s["hw.sample"]
    metrics["hw.inject_s"] = self_s["hw.inject"]
    metrics["hw.faults_injected"] = counters["hw.faults_injected"]
    metrics["hw.quant_s"] = self_s["hw.quant"]
    metrics["hw.actfault_s"] = self_s["hw.actfault"]
    metrics["executor.self_s"] = self_s["executor.run_grids"]
    metrics["executor.cell_self_s"] = self_s["executor.cell"]
    metrics["executor.checkpoint_bytes"] = counts.get("executor.checkpoint_bytes", 0)
    metrics["executor.pack_s"] = self_s["executor.pack"]
    metrics["executor.ship_s"] = self_s["executor.ship"]
    metrics["executor.wait_s"] = self_s["executor.wait"]
    metrics["executor.worker_busy_s"] = sum(
        union_ns((span[4], span[5]) for span in process["spans"] if not span[2])
        for process in processes if process["pid"] != main_pid
    ) / 1e9
    metrics["executor.cpu_util"] = extra.get("executor.cpu_util", 0.0)
    metrics["executor.quarantined"] = counts.get("cells.quarantined", 0)
    metrics["batched.cells_executed"] = counts.get("batched.cells_executed", 0)
    metrics["batched.cells_skipped"] = counts.get("batched.cells_skipped", 0)
    metrics["batched.run_family_s"] = total_s["batched.run_family"]
    metrics["batched.build_result_s"] = self_s["batched.build_result"]
    metrics["artifacts.bundle_s"] = self_s["artifacts.bundle"]
    metrics["artifacts.prepare_s"] = self_s["artifacts.prepare"]
    metrics["scenarios.compile_s"] = self_s["scenarios.compile"]
    metrics["scenarios.merge_s"] = self_s["scenarios.merge"]
    metrics["results.record_s"] = self_s["results.record"]
    metrics["results.write_s"] = self_s["results.write"]
    metrics["results.segment_bytes"] = counts.get("results.segment_bytes", 0)
    metrics["results.store_bytes"] = counts.get("results.store_bytes", 0)
    metrics["results.report_s"] = self_s["results.report"]
    metrics["metrics.measure_s"] = self_s["metrics.measure"]
    metrics.update(_service_metrics(spans))
    for name in ("service.hits", "service.misses", "service.executions"):
        metrics[name] = extra.get(name, 0)

    begin, end = window
    main_spans = [
        (max(span[4], begin), min(span[5], end))
        for span in spans
        if span[0] == main_pid and span[3] != ROOT_SPAN
        and span[5] > begin and span[4] < end
    ]
    metrics["trace.wall_s"] = (end - begin) / 1e9
    metrics["trace.uncovered_share"] = 1.0 - union_ns(main_spans) / (end - begin)
    return metrics


def _service_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-request medians (ms) of the daemon's request spans."""
    submit_end: dict[str, int] = {}
    submit_ms, execute_ms, queue_ms, fetch_ms = [], [], [], []
    for pid, _, parent, name, start, end, key in sorted(spans, key=lambda s: s[4]):
        if parent:
            continue
        if name == "service.submit":
            submit_ms.append((end - start) / 1e6)
            submit_end.setdefault(key, end)
        elif name == "service.execute":
            execute_ms.append((end - start) / 1e6)
            if key in submit_end:
                queue_ms.append((start - submit_end[key]) / 1e6)
        elif name == "service.fetch":
            fetch_ms.append((end - start) / 1e6)
    # One request fetches its results, then its store.
    per_request = [sum(fetch_ms[i:i + 2]) for i in range(0, len(fetch_ms), 2)]
    return {
        "service.submit_ms": _median(submit_ms),
        "service.fetch_ms": _median(per_request),
        "service.queue_wait_ms": _median(queue_ms),
        "service.execute_ms": _median(execute_ms),
    }
