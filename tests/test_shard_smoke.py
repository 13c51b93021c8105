"""`make shard-smoke`: a bundled suite sharded across processes and merged
through the real CLI.

The closest thing to the fleet deployment that fits in the fast tier: a
bundled scenario suite (shrunk to smoke size) is split three ways, each
shard executed by a **separate Python process**, in reverse order (any
completion order must do).  The driver below calls
:func:`run_scenario_shard` directly, as ``repro scenarios --shard i/N``
would, so failures surface as tracebacks.  ``python -m repro merge``
reassembles the run.  Asserted:

* the run directory holds exactly the documented ``RUN_LAYOUT``;
* the merged ``store/cells.rcs`` and every JSON match the unsharded
  single-process run's bytes.

``tests/test_report_smoke.py`` renders the same kind of merged run
through ``python -m repro report``.  The shard processes share the
parent's ``REPRO_CACHE_DIR``, so the tiny smoke bundle trains once and
every process loads the same artifact — exactly how independent hosts
would share a training artifact store.  The conformance matrix
(``tests/test_conformance.py``) proves the same identity in process,
across workers, chaos and the daemon; this smoke covers the process
boundary and the CLI wiring.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

SUITE = "stuck_at_memory"
SHARDS = 3

_DRIVER = """
import sys

from repro.scenarios import (
    ScenarioSuite, load_bundled, run_scenario_shard, smoke_context,
)
from tests.helpers import shrunk

name, shard, run_dir = sys.argv[1:4]
base = load_bundled(name)
suite = ScenarioSuite(
    name=f"{name}-smoke", specs=tuple(shrunk(s) for s in base.specs)
)
run_scenario_shard(suite, shard, run_dir, context=smoke_context())
"""


def _layout_regex(pattern: str) -> "re.Pattern":
    """A ``RUN_LAYOUT`` path pattern as a regex: ``<i>`` and ``<N>`` are
    numbers, any other ``<placeholder>`` is one path component."""
    return re.compile("".join(
        r"\d+" if part in ("<i>", "<N>")
        else r"[^/]+" if part.startswith("<")
        else re.escape(part)
        for part in re.split(r"(<\w+>)", pattern)
    ))


def _smoke_suite():
    from repro.scenarios import ScenarioSuite, load_bundled
    from tests.helpers import shrunk

    base = load_bundled(SUITE)
    return ScenarioSuite(
        name=f"{SUITE}-smoke", specs=tuple(shrunk(s) for s in base.specs)
    )


def _python(args, env) -> None:
    proc = subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    shown = " ".join(arg for arg in args if arg != _DRIVER)
    assert proc.returncode == 0, (
        f"python {shown} failed:\n{proc.stdout}\n{proc.stderr}"
    )


def _digests(run_dir: Path) -> "dict[str, str]":
    """sha256 of the store and every JSON."""
    paths = [run_dir / "store" / "cells.rcs", *sorted(run_dir.glob("*.json"))]
    return {
        path.relative_to(run_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
    }


def _three_process_run(tmp_path: Path) -> "tuple[Path, Path, dict]":
    """Run the smoke suite unsharded in process, then as three shard
    processes in reverse order merged by ``repro merge``.

    Returns the unsharded run directory, the merged one and the
    environment the CLI runs in.
    """
    from repro.scenarios import run_scenarios, smoke_context

    # The unsharded single-process reference (training lands in the
    # shared cache, so the shard processes below just load it).
    unsharded = tmp_path / "unsharded"
    run_scenarios(
        _smoke_suite(), workers=1, out_dir=unsharded, context=smoke_context()
    )

    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), str(src.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    run_dir = tmp_path / "run"
    for index in reversed(range(1, SHARDS + 1)):  # any completion order
        _python(["-c", _DRIVER, SUITE, f"{index}/{SHARDS}", str(run_dir)], env)
        assert (run_dir / "shards" / f"{index}-of-{SHARDS}").is_dir()
    _python(["-m", "repro", "merge", str(run_dir)], env)
    return unsharded, run_dir, env


def test_three_process_shard_run_merges_byte_identical(tmp_path):
    from repro.scenarios.shard import RUN_LAYOUT

    unsharded, run_dir, _ = _three_process_run(tmp_path)

    # The documented layout is what a run writes: every file matches a
    # RUN_LAYOUT pattern, and every pattern is written.
    written = [
        p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file()
    ]
    layout = {pattern: _layout_regex(pattern) for pattern in RUN_LAYOUT}
    assert (
        [path for path in written if not any(r.fullmatch(path) for r in layout.values())],
        [pattern for pattern, r in layout.items() if not any(map(r.fullmatch, written))],
    ) == ([], [])

    assert _digests(run_dir) == _digests(unsharded)
