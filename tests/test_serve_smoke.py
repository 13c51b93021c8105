"""`make serve-smoke`: the daemon end-to-end through the real CLI.

The deployment-shaped acceptance test for campaign-as-a-service
(docs/SERVICE.md): `repro serve --smoke` runs as a **real subprocess**,
a shrunk bundled suite is submitted twice through `repro submit`, and
the test asserts the memoization counters (first submission a miss that
executes, second a cache hit that doesn't), byte-equality of the
`repro fetch`ed run directory against the direct in-process run, and a
clean SIGTERM shutdown that leaves no orphaned shared-memory segments
behind (the leak-regression check for the worker pools' tensor plane).

The daemon inherits the test's ``REPRO_CACHE_DIR``, so the tiny smoke
bundle trained by the in-process reference is shared — exactly how a
deployed daemon shares a training artifact store with its fleet.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.helpers import shrunk

SUITE = "stuck_at_memory"


def _smoke_suite():
    from repro.scenarios import ScenarioSuite, load_bundled

    base = load_bundled(SUITE)
    return ScenarioSuite(
        name=f"{SUITE}-serve-smoke", specs=tuple(shrunk(s) for s in base.specs)
    )


def _child_env() -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(src)
    )
    return env


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line from a subprocess, or fail loudly on silence."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        remaining = max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            return proc.stdout.readline()
        if proc.poll() is not None:
            break
    raise AssertionError(
        f"daemon produced no output (exit code {proc.poll()})"
    )


def _cli(env, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"repro {args[0]} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


def _json_docs(text: str) -> list:
    """Every concatenated JSON document in a CLI's stdout."""
    decoder = json.JSONDecoder()
    docs, index = [], 0
    while index < len(text):
        while index < len(text) and text[index].isspace():
            index += 1
        if index >= len(text):
            break
        doc, index = decoder.raw_decode(text, index)
        docs.append(doc)
    return docs


def _shm_entries() -> "set[str] | None":
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return None
    return {entry.name for entry in shm.iterdir()}


def test_daemon_memoizes_and_shuts_down_clean(tmp_path):
    from repro.results.report import write_report
    from repro.scenarios import run_scenarios, smoke_context

    suite = _smoke_suite()
    spec_file = tmp_path / "suite.json"
    spec_file.write_text(
        json.dumps(
            {
                "name": suite.name,
                "scenarios": [spec.to_dict() for spec in suite.specs],
            }
        )
    )

    # Direct in-process reference (also warms the shared training cache).
    direct = tmp_path / "direct"
    results = run_scenarios(suite, workers=1, out_dir=direct, context=smoke_context())
    assert results
    write_report(direct)

    env = _child_env()
    before = _shm_entries()
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--smoke", "--port", "0", "--root", str(tmp_path / "svc"),
            "--workers", "2", "--queue-limit", "4",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = _read_line(daemon, timeout=120)
        match = re.search(r"serving on (http://\S+)", banner)
        assert match, f"unexpected startup banner: {banner!r}"
        url = match.group(1)

        # First submission: a miss that actually executes.
        first = _json_docs(_cli(env, "submit", str(spec_file), "--url", url, "--wait"))
        assert first[0]["cached"] is False
        assert first[-1]["state"] == "complete"
        run_id = first[0]["id"]

        # Second submission: a cache hit, no new execution.
        second = _json_docs(_cli(env, "submit", str(spec_file), "--url", url))
        assert second[0] == {"cached": True, "id": run_id, "state": "complete"}

        (stats,) = _json_docs(_cli(env, "status", "--url", url))
        assert stats["submissions"] == 2
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["executions"] == 1

        (status,) = _json_docs(_cli(env, "status", run_id, "--url", url))
        assert status["state"] == "complete"
        assert status["completed"] == status["total"] > 0

        # The fetched run directory is byte-identical to the direct run.
        fetched = tmp_path / "fetched"
        _cli(env, "fetch", run_id, "--url", url, "--out", str(fetched))
        reference = {p.name: p.read_bytes() for p in direct.glob("*.json")}
        assert "summary.json" in reference
        produced = {p.name: p.read_bytes() for p in fetched.glob("*.json")}
        assert produced == reference
        assert (
            (fetched / "store" / "cells.rcs").read_bytes()
            == (direct / "store" / "cells.rcs").read_bytes()
        )
        assert (
            (fetched / "report.html").read_bytes()
            == (direct / "report.html").read_bytes()
        )

        # Clean SIGTERM shutdown: exit 0, goodbye line, worker pools gone.
        daemon.send_signal(signal.SIGTERM)
        stdout, stderr = daemon.communicate(timeout=120)
        assert daemon.returncode == 0, f"unclean shutdown:\n{stdout}\n{stderr}"
        assert "shutting down" in stdout
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()

    # No orphaned shared-memory segments (tensor plane, pool semaphores).
    after = _shm_entries()
    if before is None or after is None:
        pytest.skip("/dev/shm not available on this platform")
    leaked = after - before
    assert not leaked, f"daemon leaked shm segments: {sorted(leaked)}"


@pytest.mark.parametrize(
    "flags",
    [("--max-retries", "-1"), ("--workers", "-1"), ("--cell-timeout", "0")],
)
def test_invalid_executor_setting_exits_before_serving(tmp_path, flags):
    """A bad setting is refused before the port binds, not inside a slot
    thread after ``serving on …`` (where it would accept work it never
    runs).  The timeout turns a daemon that keeps running into a failure."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--root", str(tmp_path / "svc"), *flags,
        ],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "serving on" not in proc.stdout
    assert proc.stderr.startswith("error: "), proc.stderr
