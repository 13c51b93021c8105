"""One benchmark run, made in a fresh process by ``run.py``.

Usage: ``python3 perfbench/child.py '<json job>'``.  The job names a
``mode`` (``warm``, ``engine`` or ``serve``) and its arguments; the run
writes its measurements as JSON to ``job["out"]``.  Engine repetitions
each run in a fork of this process taken after the imports, so every
repetition starts from the same state and its peak RSS is its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import SUFFIX_STATS, Tracer  # noqa: E402

# Client poll period while a service miss executes; small against the
# ~0.15 s miss latency.  Each poll is an HTTP request the daemon serves
# on a new thread, so polling faster would compete with the campaign.
POLL_S = 0.01
SETUP_LAUNCHES = 5
MIN_REPS = 3
MAX_REPS = 10
# Engine counts that are a pure function of the inputs (how many engines
# a pool builds depends on which worker gets which chunk, so it is not).
SUFFIX_COUNTS = frozenset(SUFFIX_STATS.values())
# Every (model, variant) artifact any workload uses, built untimed.
WARM_ARTIFACTS = (
    ("lenet5", "unprotected"), ("lenet5", "ecc"), ("lenet5", "tmr"),
    ("lenet5", "dmr"), ("lenet5", "relu6"), ("lenet5", "ftclipact"),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def warm(job: dict) -> dict:
    from repro.scenarios import ScenarioContext

    context = ScenarioContext()
    started = time.perf_counter()
    for model, variant in WARM_ARTIFACTS:
        context.prepared(model, variant)
    return {"warm_s": time.perf_counter() - started}


# --------------------------------------------------------------------- #
# engine workloads
# --------------------------------------------------------------------- #


def _file_bytes(root: Path, pattern: str) -> int:
    return sum(path.stat().st_size for path in root.rglob(pattern))


def _checkpointed_cells(root: Path) -> int:
    return sum(
        len(json.loads(path.read_text()).get("cells", {}))
        for path in root.rglob("checkpoint.json")
    )


def _engine_call(workload: str, path: str, suite, run_dir: Path, progress):
    """Run the workload's timed path or its reference path."""
    from repro.scenarios import run_scenarios
    import repro.scenarios.shard as shard

    if path == "timed" and workload == "lenet-shards":
        for index in (1, 2):
            shard.run_scenario_shard(
                suite, f"{index}/2", run_dir, workers=1, progress=progress
            )
        shard.merge_run(run_dir)
        return
    workers = suite.workers
    if path == "reference":
        # Another route the bit-identity contract covers.
        workers = {"lenet-2w": 1, "lenet-shards": 1}[workload]
    run_scenarios(suite, workers=workers, progress=progress, out_dir=run_dir)


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (Linux ``clear_refs`` 5)."""
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb(pid: "int | str" = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _engine_rep(workload: str, path: str, suite, rep_dir: Path,
                tracer: Tracer) -> dict:
    """One repetition in this process: time it, digest it, count it."""
    from repro.results.store import read_store, store_path

    from tracer import load_process_files

    tracer.start(rep_dir / "trace")
    _reset_peak_rss()
    first: list[float] = []

    def progress(cell) -> None:
        if not first:
            first.append(time.perf_counter())

    cpu0 = _cpu_seconds()
    started = time.perf_counter()
    frame = tracer.begin("run") if tracer.record_spans else None
    _engine_call(workload, path, suite, rep_dir, progress)
    if frame is not None:
        tracer.end(frame)
    finished = time.perf_counter()
    cpu = _cpu_seconds() - cpu0
    peak = _peak_rss_mb()
    tracer.flush()

    store = store_path(rep_dir)
    records = list(read_store(rep_dir))
    outcomes = [record.outcome for record in records]
    executed = sum(outcome != "skipped" for outcome in outcomes)
    summary = json.loads((rep_dir / "summary.json").read_text())
    adaptive = [row for row in summary["scenarios"] if "cells_executed" in row]
    counts = {
        "cells.stored": len(records),
        "cells.executed": executed,
        "cells.quarantined": outcomes.count("failed"),
        "batched.cells_executed": sum(row["cells_executed"] for row in adaptive),
        "batched.cells_skipped": sum(row["cells_skipped"] for row in adaptive),
        "executor.checkpoint_bytes": _file_bytes(rep_dir, "checkpoint.json"),
        "executor.checkpointed_cells": _checkpointed_cells(rep_dir),
        "results.segment_bytes": _file_bytes(rep_dir, "*.jsonl"),
        "results.store_bytes": store.stat().st_size,
    }
    processes = load_process_files(rep_dir / "trace")
    for process in processes:
        for name, value in process["counters"].items():
            if name in SUFFIX_COUNTS:
                counts[name] = counts.get(name, 0) + int(value)
    wall = finished - started
    setup = first[0] - started
    # Pool workers are this process's only children; serial runs execute
    # every cell in-process.
    workers_peak = (_max_rss_mb(resource.RUSAGE_CHILDREN) if suite.workers > 1
                    else peak)
    result = {
        "sha256": _sha256(store),
        "counts": counts,
        "started_ns": int(started * 1e9),
        "pid": os.getpid(),
        "metrics": {
            "setup_s": setup,
            "wall_s": wall,
            "cells_per_s": executed / (wall - setup),
            "peak_rss_mb": peak,
            "worker_peak_rss_mb": workers_peak,
            "cpu_util": cpu / wall,
        },
    }
    if tracer.record_spans:
        result["processes"] = processes
    shutil.rmtree(rep_dir)
    return result


def _forked(function, tmp_dir: Path) -> dict:
    """Run ``function()`` in a forked copy of this process.

    Every repetition starts from the same warm state (imports done,
    nothing left on the heap by an earlier repetition), so each one's
    peak RSS and setup are its own.
    """
    import tempfile
    import traceback

    with tempfile.NamedTemporaryFile(dir=tmp_dir, suffix=".json") as out:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                Path(out.name).write_text(json.dumps(function()))
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"repetition process failed ({status})")
        return json.loads(Path(out.name).read_text())


def engine(job: dict) -> dict:
    """The reference repetition, then timed ones until ``seconds`` pass.

    The reference path doubles as the discarded warm-up.  With ``trace``
    set, one untraced repetition is followed by one traced one.  Each
    repetition runs in its own fork of this process.
    """
    import repro.core.executor  # noqa: F401 - warm the imports once
    import repro.scenarios.shard  # noqa: F401
    from repro.scenarios import parse_suite

    from tracer import install_counting, install_spans

    workload = job["workload"]
    base = Path(job["run_dir"])
    base.mkdir(parents=True)
    tracer = Tracer(base, spans=False)
    install_counting(tracer)
    suite = parse_suite(workloads.GENERATORS[workload](job["seed"]))

    def rep(path: str, name: str, spans: bool = False) -> dict:
        def body() -> dict:
            if spans:
                install_spans(tracer)
            return _engine_rep(workload, path, suite, base / name, tracer)

        return _forked(body, base)

    reference = rep("reference", "reference")
    reps: list[dict] = []
    traced = None
    if job["trace"]:
        reps.append(rep("timed", "rep-0"))
        traced = rep("timed", "traced", spans=True)
    else:
        measured = 0.0
        while len(reps) < MAX_REPS and (len(reps) < MIN_REPS
                                        or measured < job["seconds"]):
            reps.append(rep("timed", f"rep-{len(reps)}"))
            measured += reps[-1]["metrics"]["wall_s"]
    return {"reference_sha256": reference["sha256"], "reps": reps,
            "traced": traced}


# --------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------- #


def serve_reference(stream: list[dict], root: Path) -> dict[int, str]:
    """Store digests of every distinct suite, through run_scenarios."""
    from repro.results.store import store_path
    from repro.scenarios import ScenarioContext, parse_suite, run_scenarios

    context = ScenarioContext()
    digests: dict[int, str] = {}
    for request in stream:
        if request["hit"]:
            continue
        out = root / f"ref-{request['key']:03d}"
        payload = request["suite"]
        run_scenarios(parse_suite(payload, name=payload["name"]),
                      out_dir=out, context=context)
        digests[request["key"]] = _sha256(store_path(out))
        shutil.rmtree(out)
    return digests


def _launch(root: Path, trace_dir: "Path | None") -> "tuple[subprocess.Popen, str, float]":
    """Start ``repro serve`` and wait for its first answered request."""
    from repro.service import ServiceClient

    here = Path(__file__).resolve().parent
    command = [sys.executable, "-m", "repro"]
    if trace_dir:
        command = [sys.executable, str(here / "traced_serve.py"), str(trace_dir)]
    command += ["serve", "--root", str(root), "--port", "0",
                "--workers", "1", "--slots", "1"]
    started = time.perf_counter()
    daemon = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    line = daemon.stdout.readline().strip()
    if not line.startswith("serving on "):
        daemon.kill()
        daemon.wait()
        raise RuntimeError(f"daemon did not start: {line!r}")
    url = line[len("serving on "):]
    try:
        ServiceClient(url).stats()
    except BaseException:
        _stop(daemon)
        raise
    return daemon, url, time.perf_counter() - started


def _stop(daemon: subprocess.Popen) -> None:
    daemon.send_signal(signal.SIGTERM)
    try:
        daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()
    if daemon.stdout is not None:
        daemon.stdout.close()


def serve_stream(stream: list[dict], digests: dict[int, str], base: Path,
                 trace_dir: "Path | None") -> dict:
    """Launch the daemon ``SETUP_LAUNCHES`` times; drive the stream once."""
    from repro.service import ServiceClient, ServiceClientError

    setups = []
    for index in range(SETUP_LAUNCHES - 1):
        daemon, _, setup = _launch(base / f"probe-{index}", None)
        _stop(daemon)
        setups.append(setup)
    daemon, url, setup = _launch(base / "root", trace_dir)
    setups.append(setup)
    try:
        client = ServiceClient(url)
        latencies: dict[str, list[float]] = {"hit": [], "miss": []}
        failed = 0
        store_bytes = 0
        started = time.perf_counter()
        for request in stream:
            sent = time.perf_counter()
            try:
                answer = client.submit(request["suite"])
                run_id = answer["id"]
                state = answer["state"]
                while state not in ("complete", "failed"):
                    time.sleep(POLL_S)
                    state = client.status(run_id)["state"]
                if state != "complete":
                    failed += 1
                    continue
                client.results(run_id)
                store = client.store(run_id)
            except ServiceClientError:
                failed += 1
                continue
            done = time.perf_counter()
            store_bytes += len(store)
            if hashlib.sha256(store).hexdigest() != digests[request["key"]]:
                failed += 1
                continue
            latencies["hit" if answer["cached"] else "miss"].append(done - sent)
        wall = time.perf_counter() - started
        stats = client.stats()
        rss = _peak_rss_mb(daemon.pid)
    finally:
        _stop(daemon)
    misses = latencies["miss"]
    cells = [
        sum(len(spec["rates"]) * spec["trials"]
            for spec in request["suite"]["scenarios"])
        for request in stream if not request["hit"]
    ]
    result = {
        "requests": len(stream),
        "failed": failed,
        "latencies": latencies,
        "service": {key: stats[key] for key in ("hits", "misses", "executions")},
        "store_bytes": store_bytes,
        "poll_s": POLL_S,
        "stream_started_ns": int(started * 1e9),
        "stream_s": wall,
        # Every sample behind each end-to-end metric; run.py takes medians.
        "samples": {
            "setup_s": setups,
            "wall_s": misses,
            "cells_per_s": [n / latency for n, latency in zip(cells, misses)],
            "peak_rss_mb": [rss],
            "worker_peak_rss_mb": [rss],
        },
    }
    if trace_dir is not None:
        from tracer import load_process_files

        result["processes"] = load_process_files(trace_dir)
    return result


def serve(job: dict) -> dict:
    """Reference digests (the warm-up), then the measured stream(s).

    ``wall_s`` samples are miss latencies: submit until the results are
    fetched, for a request the daemon has to execute; ``cells_per_s``
    samples are each miss's cells per second of its latency.
    With ``trace`` set, an untraced stream is followed by a traced one.
    """
    base = Path(job["run_dir"])
    stream = workloads.serve_stream(job["seed"])
    digests = serve_reference(stream, base / "reference")
    reps = [serve_stream(stream, digests, base / "rep-0", None)]
    traced = None
    if job["trace"]:
        traced = serve_stream(stream, digests, base / "traced", base / "trace")
    return {"reference_digests": {str(k): v for k, v in digests.items()},
            "reps": reps, "traced": traced}


MODES = {"warm": warm, "engine": engine, "serve": serve}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    result = MODES[job["mode"]](job)
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
