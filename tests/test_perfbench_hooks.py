"""The benchmark's tracer hooks keep binding to the program.

``perfbench/tracer.py`` wraps names inside ``src/`` where their callers
look them up — ``BatchedSuffixKernel.run_family`` (an alias of the
adaptive family runner; its span times one adaptive chunk), the executor's
``wait``/``pack_object``/``ship_units``, ``CampaignExecutor.run_grids``,
``SuffixForwardEngine.build`` and every runner's ``run_cell`` among
them — and ``perfbench/child.py`` parses every file named
``checkpoint.json`` under a run directory as one JSON document.  A
refactor that drops a bound name, or writes a ``checkpoint.json`` of
another shape, would otherwise surface only in the benchmark's traced
run; this fast-tier test fails first.  The traced shard includes one
adaptive scenario, so the ``batched.run_family`` span is shown to fire,
not just to bind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import dataclasses
import sys

import tracer
from repro.scenarios import (
    ScenarioSuite, load_bundled, run_scenario_shard, smoke_context,
)

trace_dir, run_dir = sys.argv[1:3]
spans = tracer.Tracer(trace_dir)
tracer.install_counting(spans)
tracer.install_spans(spans, service=True)
base = load_bundled("stuck_at_memory")
specs = tuple(spec.shrunk() for spec in base.specs)
adaptive = dataclasses.replace(
    specs[0], name=specs[0].name + "-adaptive", mode="adaptive",
    ci_halfwidth=0.2,
)
suite = ScenarioSuite(name="hooks", specs=specs + (adaptive,))
run_scenario_shard(suite, "1/2", run_dir, workers=2, context=smoke_context())
spans.flush()
"""


def test_tracer_hooks_install_and_trace_a_shard(tmp_path):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    trace_dir, run_dir = tmp_path / "trace", tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(trace_dir), str(run_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr

    names = {
        span[3]
        for path in trace_dir.glob("proc-*.json")
        for span in json.loads(path.read_text())["spans"]
    }
    for name in ("executor.run_grids", "executor.pack", "executor.ship",
                 "executor.wait", "executor.cell", "batched.run_family"):
        assert name in names, f"the traced shard recorded no {name!r} span"

    assert list(run_dir.rglob("checkpoint.jsonl"))
    assert not list(run_dir.rglob("checkpoint.json"))
