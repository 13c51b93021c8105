"""Campaign benchmark: three seeded workloads, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (``perfbench/workloads.py`` generates their inputs from the
seed): ``lenet-2w``, ``lenet-shards`` and ``serve-mixed``.  All state
lives in ``.perfbench/`` of the checkout: the artifact cache
(``REPRO_CACHE_DIR``, filled once by an untimed warm phase that trains
and hardens every model the workloads use), the session file of
reference digests and exact counts, and per-repetition run directories
that are deleted after use.

Every run makes its repetitions in one fresh child process
(``perfbench/child.py``).  An engine run first makes a discarded warm-up
repetition through a reference path the bit-identity contract covers
(1 worker for ``lenet-2w``, unsharded for ``lenet-shards``); its store
digest is the reference every timed repetition must match.  Timed
repetitions follow, each with a fresh context and run directory and its
own peak-RSS mark, until ``--seconds`` have been measured (at least
``child.MIN_REPS``).  ``serve-mixed`` builds its reference with a direct
``run_scenarios`` of every distinct suite, then launches ``repro serve``
``child.SETUP_LAUNCHES`` times and drives one closed-loop stream
through the last launch; the stream's length is fixed by the generator
(120 misses and 120 hits, about twenty seconds), so ``--seconds`` does
not change it.

With ``--trace 0`` the result line carries the end-to-end metrics,
each the median of its samples:

* ``setup_s``: call into the program until the first cell result
  reaches the progress callback (``serve-mixed``: daemon launch until
  it answers its first request);
* ``wall_s``: call until results, summary and store are written, both
  shards and ``merge_run`` included (``serve-mixed``: a miss's submit
  until its results are fetched);
* ``cells_per_s``: executed cells, counted from the store, per second
  of wall after setup (``serve-mixed``: a miss's cells per second of
  its latency);
* ``peak_rss_mb``: peak RSS of the process running the program (the
  daemon for ``serve-mixed``);
* ``worker_peak_rss_mb``: peak RSS of the largest pool worker, or of
  the process itself where cells run in-process.

Failures ride on the result line's ``attempted``/``failed`` (cells, or
requests for ``serve-mixed``).  With ``--trace 1`` the line carries the
per-layer metrics of one traced repetition, made after one untraced
repetition whose wall gives the tracing overhead.

The last line of standard output is the JSON result; the lines above it
are the human-readable tables.  The exit code is 0 only when every step
ran; output checks land in ``correct``/``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 900
STATE_DIRNAME = ".perfbench"

# End-to-end metrics and their units; BENCHMARK.json fixes their bounds.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}


# Which end-to-end metric each per-layer metric should move, and on
# which workload its layer does the most / the least work.  The first
# matching prefix wins.
LAYER_TARGETS = (
    ("nn.", "cells_per_s, wall_s", "lenet-2w, serve-mixed", "lenet-shards"),
    ("suffix.clean_pass_s", "setup_s", "lenet-2w, serve-mixed", "lenet-shards"),
    ("suffix.", "cells_per_s", "lenet-shards, lenet-2w", "serve-mixed"),
    ("hw.", "cells_per_s", "lenet-shards, lenet-2w", "serve-mixed"),
    ("executor.self_s", "wall_s, cells_per_s", "lenet-shards", "serve-mixed"),
    ("executor.cell_self_s", "cells_per_s", "lenet-shards", "serve-mixed"),
    ("executor.checkpoint_bytes", "wall_s", "lenet-shards", "all others"),
    ("executor.", "cells_per_s, setup_s, worker_peak_rss_mb", "lenet-2w",
     "serial workloads"),
    ("batched.", "wall_s", "lenet-2w", "exact workloads"),
    ("artifacts.", "setup_s", "engine workloads", "serve-mixed"),
    ("scenarios.compile_s", "setup_s", "engine workloads", "serve-mixed"),
    ("scenarios.merge_s", "wall_s", "lenet-shards", "all others"),
    ("results.report_s", "wall_s (serve-mixed miss latency)", "serve-mixed",
     "engine workloads"),
    ("results.", "wall_s", "lenet-shards", "lenet-2w"),
    ("service.submit_ms", "hit_p50_ms, hit_p90_ms", "serve-mixed", "none"),
    ("service.fetch_ms", "hit_p50_ms, hit_p90_ms", "serve-mixed", "none"),
    ("service.", "miss_p50_ms, miss_p90_ms, wall_s", "serve-mixed", "none"),
    ("metrics.", "cells_per_s", "lenet-shards", "serve-mixed"),
    ("trace.", "(tracing itself)", "-", "-"),
)


def layer_target(name: str) -> tuple[str, str, str]:
    return next(target[1:] for target in LAYER_TARGETS if name.startswith(target[0]))


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #


def tail_percentile(values: list[float], q: float) -> "float | None":
    """Nearest-rank ``q`` percentile, or ``None`` when the run is short.

    A percentile is reported only with at least ten samples beyond it,
    so a p90 needs 100 samples.
    """
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------- #
# plumbing
# --------------------------------------------------------------------- #


class Bench:
    """Paths, environment and session state of one checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.state = root / STATE_DIRNAME
        self.session_path = self.state / "session.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["REPRO_CACHE_DIR"] = str(self.state / "cache")

    def child(self, job: dict) -> dict:
        """Run one step in a fresh process; return what it wrote."""
        out = self.state / "jobs" / f"{uuid.uuid4().hex}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        job = dict(job, out=str(out))
        # Its own process group, so a step that hangs is stopped together
        # with any daemon or pool worker it started.
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=self.root, env=self.env, stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            returncode = process.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        if returncode != 0:
            raise RuntimeError(f"{job['mode']} step exited {returncode}")
        result = json.loads(out.read_text())
        out.unlink()
        return result

    def run_dir(self) -> Path:
        path = self.state / "runs" / uuid.uuid4().hex
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def warm(self) -> None:
        marker = self.state / "warm.json"
        if marker.exists():
            return
        result = self.child({"mode": "warm"})
        marker.write_text(json.dumps(result))

    def session(self) -> dict:
        if self.session_path.exists():
            return json.loads(self.session_path.read_text())
        return {}

    def save_session(self, session: dict) -> None:
        tmp = self.session_path.with_name("session.json.tmp")
        tmp.write_text(json.dumps(session, indent=1, sort_keys=True))
        os.replace(tmp, self.session_path)


class Checks:
    """Output checks of one run: every failure is kept with its reason."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


def _record(session: dict, key: str, name: str, value, checks: Checks) -> bool:
    """Store ``value`` the first time, then insist later runs match it."""
    entry = session.setdefault(key, {})
    if name not in entry:
        entry[name] = value
        return True
    return checks.expect(entry[name] == value,
                         f"{key} {name} differs from the session's first run")


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #


def _run_child(bench: Bench, job: dict) -> dict:
    run_dir = bench.run_dir()
    try:
        return bench.child(dict(job, run_dir=str(run_dir)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_engine(bench: Bench, workload: str, seed: int, seconds: float,
               trace: bool, checks: Checks) -> dict:
    result = _run_child(bench, {"mode": "engine", "workload": workload,
                                "seed": seed, "seconds": seconds,
                                "trace": trace})
    session = bench.session()
    key = f"{workload}:{seed}"
    _record(session, key, "reference_sha256", result["reference_sha256"], checks)
    expected = session[key]["reference_sha256"]
    reps, traced = result["reps"], result["traced"]
    attempted = failed = 0
    for index, rep in enumerate(reps + ([traced] if traced else [])):
        counts = rep["counts"]
        ok = checks.expect(rep["sha256"] == expected,
                           f"repetition {index} store digest differs from reference")
        ok &= _record(session, key, "counts", counts, checks)
        attempted += counts["cells.executed"]
        failed += counts["cells.quarantined"] + (0 if ok else counts["cells.executed"])
    bench.save_session(session)
    return {"reps": reps, "traced": traced, "attempted": attempted,
            "failed": failed, "counts": reps[0]["counts"]}


def run_serve(bench: Bench, seed: int, trace: bool, checks: Checks) -> dict:
    result = _run_child(bench, {"mode": "serve", "seed": seed, "trace": trace})
    session = bench.session()
    key = f"serve-mixed:{seed}"
    _record(session, key, "reference_digests", result["reference_digests"], checks)
    reps, traced = result["reps"], result["traced"]
    expected = {"hits": workloads.SERVE_HITS, "misses": workloads.SERVE_MISSES,
                "executions": workloads.SERVE_MISSES}
    attempted = failed = 0
    for rep in reps + ([traced] if traced else []):
        counts = {f"service.{name}": value for name, value in rep["service"].items()}
        counts["results.store_bytes"] = rep["store_bytes"]
        rep["counts"] = counts
        mismatch = sum(abs(rep["service"][name] - expected[name]) for name in expected)
        checks.expect(mismatch == 0, f"/stats {rep['service']} != {expected}")
        checks.expect(rep["failed"] == 0,
                      f"{rep['failed']} requests failed or mismatched")
        _record(session, key, "counts", counts, checks)
        attempted += rep["requests"]
        failed += rep["failed"] + mismatch
    bench.save_session(session)
    return {"reps": reps, "traced": traced, "attempted": attempted,
            "failed": failed, "counts": reps[0]["counts"]}


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #


def end_to_end(workload: str, outcome: dict) -> tuple[dict, list[str]]:
    """Medians of the end-to-end metrics, and the table that shows them."""
    reps = outcome["reps"]
    lines = [f"{'metric':<22}{'unit':>9}{'median':>12}{'q1':>12}{'q3':>12}{'n':>6}"]
    metrics = {}
    for name, unit in END_TO_END.items():
        if workload == "serve-mixed":
            values = reps[0]["samples"][name]
        else:
            values = [rep["metrics"][name] for rep in reps]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        lines.append(f"{name:<22}{unit:>9}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                     f"{len(values):>6}")
    if workload == "serve-mixed":
        lines.append("(serve-mixed samples: wall_s per miss latency, "
                     "cells_per_s per miss, setup_s per daemon launch)")
    attempted = max(outcome["attempted"], 1)
    lines.append(f"{'failed_ratio':<22}{'ratio':>9}{outcome['failed'] / attempted:>12.4f}"
                 f"{'':>24}{outcome['attempted']:>6}")
    if workload == "serve-mixed":
        for cls in ("hit", "miss"):
            samples = [s * 1e3 for rep in reps for s in rep["latencies"][cls]]
            for q in (0.5, 0.9):
                value = (statistics.median(samples) if q == 0.5 and samples
                         else tail_percentile(samples, q))
                shown = "short" if value is None else f"{value:.4f}"
                lines.append(f"{cls}_p{int(q * 100)}_ms".ljust(22)
                             + f"{'ms':>9}{shown:>12}{'':>24}{len(samples):>6}")
        lines.append(f"(client poll period {reps[0]['poll_s'] * 1e3:g} ms "
                     "while a miss executes)")
    return metrics, lines


def count_lines(outcome: dict) -> list[str]:
    counts = outcome["counts"]
    lines = ["exact counts per repetition (identical across the session):"]
    lines += [f"  {name:<32}{value:>14}" for name, value in sorted(counts.items())]
    executed = counts.get("cells.executed")
    if executed:
        lines.append(f"  {'share.empty_fault_set':<32}"
                     f"{counts.get('suffix.clean_shortcuts', 0) / executed:>14.4f}")
        lines.append(f"  {'share.checkpointed':<32}"
                     f"{counts.get('executor.checkpointed_cells', 0) / executed:>14.4f}")
    if "service.hits" in counts:
        hits = counts["service.hits"]
        lines.append(f"  {'share.memo_hits':<32}"
                     f"{hits / (hits + counts['service.misses']):>14.4f}")
    return lines


def per_layer(workload: str, outcome: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics of the traced repetition, and their table."""
    from tracer import layer_metrics

    traced, untraced = outcome["traced"], outcome["reps"][0]
    processes = traced["processes"]
    if workload == "serve-mixed":
        # The daemon is the process that served the submissions; the
        # traced wall is the whole stream, compared across the two streams.
        main_pid = next((p["pid"] for p in processes
                         if any(s[3] == "service.submit" for s in p["spans"])), 0)
        begin = traced["stream_started_ns"]
        wall, untraced_wall = traced["stream_s"], untraced["stream_s"]
        extra = {f"service.{name}": value for name, value in traced["service"].items()}
    else:
        main_pid = traced["pid"]
        begin = traced["started_ns"]
        wall, untraced_wall = traced["metrics"]["wall_s"], untraced["metrics"]["wall_s"]
        extra = {"executor.cpu_util": traced["metrics"]["cpu_util"]}
    window = (begin, begin + int(wall * 1e9))
    metrics = layer_metrics(processes, main_pid, window, traced["counts"], extra)
    metrics["trace.overhead"] = wall / untraced_wall - 1.0
    lines = ["per-layer metrics (n=1 traced repetition; should move / "
             "most work in / little work in):"]
    for name, value in metrics.items():
        moves, most, little = layer_target(name)
        lines.append(f"  {name:<30}{value:>16.6f} {layer_unit(name):<6} "
                     f"{moves} / {most} / {little}")
    return metrics, lines


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_mb") or name.endswith(".mb_moved"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("cpu_util", "_share", "overhead")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------- #


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    bench = Bench(root)
    bench.state.mkdir(exist_ok=True)
    bench.warm()
    checks = Checks()
    started = time.perf_counter()
    if args.workload == "serve-mixed":
        outcome = run_serve(bench, args.seed, bool(args.trace), checks)
    else:
        outcome = run_engine(bench, args.workload, args.seed, args.seconds,
                             bool(args.trace), checks)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(outcome['reps'])} repetition(s), "
          f"{time.perf_counter() - started:.1f} s")
    metrics, lines = end_to_end(args.workload, outcome)
    print("\n".join(lines + count_lines(outcome)))
    if args.trace:
        layer, lines = per_layer(args.workload, outcome)
        print("\n".join(lines))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
