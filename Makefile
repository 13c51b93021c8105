# Test-suite entry points (see pytest.ini for the slow-marker tiering).
#
#   make fast   - the inner loop (1,218 tests, 58-69 s on a
#                 2-CPU host): unit + property tests only,
#                 including the suffix-engine timing smoke (a perf
#                 regression in the hot path fails here, not in CI-hours)
#   make test   - the full tier-1 gate, including figure benchmarks
#   make bench  - just the figure/infrastructure benchmarks
#                 (BENCH_campaign.json history + BENCH_forward.json)
#   make docs-check - documentation consistency only (README/DESIGN
#                 references, the REPRO_* env-var table in
#                 docs/MEMORY_MODEL.md vs src/, the scenario-spec
#                 schema/fault-model/cookbook tables in
#                 docs/SCENARIOS.md vs repro.scenarios); also runs
#                 inside fast
#   make scenarios-smoke - run every bundled scenario spec end-to-end
#                 on tiny synthetic data (part of the fast tier)
#   make shard-smoke - split a bundled smoke suite 3 ways, run each
#                 shard in a separate process, merge and render the
#                 report through the real CLI, and assert the store,
#                 every JSON and the report are byte-identical to the
#                 unsharded run (tests/test_shard_smoke.py and its
#                 report half, tests/test_report_smoke.py; part of the
#                 fast tier; see docs/SCENARIOS.md "Sharded & segmented
#                 runs" and docs/RESULTS.md)
#   make chaos-smoke - the conformance matrix's chaos cases: a bundled
#                 smoke suite under seeded worker kills and injected
#                 exceptions (see docs/FAULT_TOLERANCE.md), unsharded,
#                 sharded and through the daemon, must write the
#                 chaos-free bytes; plus the guards that the chaos spec
#                 disturbs the suite and the cells a daemon queues for
#                 it (part of the fast tier)
#   make serve-smoke - start the `repro serve` daemon as a real
#                 subprocess, submit a bundled smoke suite twice via
#                 `repro submit`, and assert the hit/miss counters, the
#                 byte-equality of the fetched run against the direct
#                 CLI run, and a clean SIGTERM shutdown with no leaked
#                 shm segments (part of the fast tier; see
#                 docs/SERVICE.md)
#   make stats  - just the statistical-correctness simulations for the
#                 adaptive stopping rule (interval coverage, sequential
#                 stopping, importance-sampling unbiasedness); these are
#                 pure-numpy, fixed-seed, and also run inside fast
#
# REPRO_WORKERS=N fans every campaign in the suite across N worker
# processes (0 = one per core); REPRO_NO_SUFFIX=1 disables suffix
# re-execution; results are bit-identical either way (see
# docs/MEMORY_MODEL.md).

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: fast test bench docs-check scenarios-smoke shard-smoke chaos-smoke serve-smoke stats

fast: docs-check
	$(PYTEST) -q -m "not slow"

test:
	$(PYTEST) -x -q

bench:
	$(PYTEST) -q benchmarks

docs-check:
	$(PYTEST) -q tests/test_docs_consistency.py

scenarios-smoke:
	$(PYTEST) -q tests/test_scenarios_smoke.py

shard-smoke:
	$(PYTEST) -q tests/test_shard_smoke.py tests/test_report_smoke.py

chaos-smoke:
	$(PYTEST) -q tests/test_chaos_smoke.py tests/test_service.py tests/test_conformance.py -m chaos

serve-smoke:
	$(PYTEST) -q tests/test_serve_smoke.py

stats:
	$(PYTEST) -q -m stats
