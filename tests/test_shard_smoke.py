"""`make shard-smoke`: real multi-process sharding of a bundled suite.

The closest thing to the fleet deployment that fits in the fast tier: a
bundled scenario suite (shrunk to smoke size) is split three ways, each
shard executed by a **separate Python process** (`repro scenarios
--shard i/N` would do the same; the driver below calls
:func:`run_scenario_shard` directly so failures surface as tracebacks),
the segmented run directory is merged in-process, and every merged JSON
file must be byte-identical to the unsharded single-process run.

The shard processes share the parent's ``REPRO_CACHE_DIR``, so the tiny
smoke bundle trains once and every process loads the same artifact —
exactly how independent hosts would share a training artifact store.
"""

from __future__ import annotations

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


def test_three_process_shard_run_merges_byte_identical(tmp_path):
    from repro.scenarios import merge_run, run_scenarios, smoke_context
    from repro.scenarios.shard import RUN_LAYOUT

    # The unsharded single-process reference (training lands in the
    # shared cache, so the shard processes below just load it).
    unsharded = tmp_path / "unsharded"
    results = run_scenarios(
        _smoke_suite(), workers=1, out_dir=unsharded, context=smoke_context()
    )
    assert results

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{src.parent}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else f"{src}{os.pathsep}{src.parent}"
    )

    run_dir = tmp_path / "run"
    for index in reversed(range(1, SHARDS + 1)):  # any completion order
        proc = subprocess.run(
            [
                sys.executable, "-c", _DRIVER,
                SUITE, f"{index}/{SHARDS}", str(run_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, (
            f"shard {index}/{SHARDS} failed:\n{proc.stdout}\n{proc.stderr}"
        )
        assert (run_dir / "shards" / f"{index}-of-{SHARDS}").is_dir()

    merged = merge_run(run_dir)
    assert [r.name for r in merged] == [r.name for r in results]

    reference = {p.name: p.read_bytes() for p in unsharded.glob("*.json")}
    assert "summary.json" in reference
    produced = {p.name: p.read_bytes() for p in run_dir.glob("*.json")}
    assert produced == reference

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
