"""Campaign-as-a-service harness: concurrency, memoization, errors.

The acceptance tests for ``repro serve`` (docs/SERVICE.md):

* **single-flight** — N clients submitting the identical smoke suite
  simultaneously coalesce onto exactly one execution and share one run
  id and one set of store bytes; distinct specs run independently;
  queue-full and malformed submissions are clean JSON errors;
* **memoization** — a second submission after a daemon restart is a
  disk cache hit serving the same bytes without re-executing, and the
  run id is content-addressed;
* **progress** — a queued run's cell total is the one it completes;
* **chaos** — the seeded chaos spec disturbs the cells a daemon queues
  for the conformance matrix's suite.

That the daemon's bytes equal a direct run's, at one and two workers
and under chaos, is a case of the conformance matrix
(``tests/test_conformance.py``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from tests.helpers import shrunk

SUITE = "stuck_at_memory"


def _smoke_suite(name: str = SUITE):
    from repro.scenarios import ScenarioSuite, load_bundled

    base = load_bundled(SUITE)
    return ScenarioSuite(
        name=name, specs=tuple(shrunk(spec) for spec in base.specs)
    )


def _payload(suite) -> dict:
    """The wire shape ``repro submit`` posts (parse_suite round-trips it)."""
    return {
        "name": suite.name,
        "scenarios": [spec.to_dict() for spec in suite.specs],
    }


def _run_bytes(run_dir) -> dict:
    """Every byte-compared artifact of a run directory, keyed by name."""
    from repro.service import MARKER_FILENAME

    files = {
        path.name: path.read_bytes()
        for path in run_dir.glob("*.json")
        if path.name != MARKER_FILENAME
    }
    files["store/cells.rcs"] = (run_dir / "store" / "cells.rcs").read_bytes()
    files["report.html"] = (run_dir / "report.html").read_bytes()
    return files


@pytest.fixture(scope="module")
def ctx():
    """One shared context: the tiny bundles train once for the module."""
    from repro.scenarios import smoke_context

    return smoke_context()


def _service(root, ctx, **kwargs):
    from repro.service import CampaignService

    kwargs.setdefault("workers", 1)
    return CampaignService(root, context=ctx, **kwargs)


def _wait(service, run_id, timeout: float = 300.0):
    entry = service.entry(run_id)
    assert entry.done.wait(timeout), f"campaign {run_id} still {entry.state}"
    assert entry.state == "complete", entry.error
    return entry


class TestSingleFlight:
    def test_concurrent_identical_submissions_execute_once(self, ctx, tmp_path):
        clients = 6
        payload = _payload(_smoke_suite())
        barrier = threading.Barrier(clients)
        responses: list = [None] * clients

        with _service(tmp_path / "svc", ctx, slots=2) as service:

            def client(index: int) -> None:
                barrier.wait()
                responses[index] = service.submit(payload)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            ids = {response["id"] for response in responses}
            assert len(ids) == 1, "all clients must share one run id"
            run_id = ids.pop()
            _wait(service, run_id)

            # Exactly one execution: one miss scheduled it, every other
            # submission attached to it as a hit.
            assert service.counters["executions"] == 1
            assert service.counters["misses"] == 1
            assert service.counters["hits"] == clients - 1
            assert service.counters["submissions"] == clients

            # Every client reads the same store bytes back.
            stores = {service.store_bytes(run_id) for _ in range(clients)}
            assert len(stores) == 1

    def test_distinct_specs_run_independently(self, ctx, tmp_path):
        first = _smoke_suite()
        second = _smoke_suite(name=f"{SUITE}-variant")
        with _service(tmp_path / "svc", ctx, slots=2) as service:
            id_first = service.submit(_payload(first))["id"]
            id_second = service.submit(_payload(second))["id"]
            assert id_first != id_second
            _wait(service, id_first)
            _wait(service, id_second)
            assert service.counters["executions"] == 2
            assert service.counters["hits"] == 0
            # Same specs, different suite names: equal scenario payloads,
            # distinct summaries (the summary records the suite name).
            first_files = service.results_payload(id_first)["files"]
            second_files = service.results_payload(id_second)["files"]
            assert set(first_files) == set(second_files)
            assert first_files["summary.json"] != second_files["summary.json"]


class TestProgress:
    def test_queued_total_counts_an_adaptive_family_once(self, ctx, tmp_path):
        """A queued run's total is the executor's cell count: an adaptive
        spec runs one cell per rate, not one per trial."""
        import dataclasses

        from repro.scenarios import ScenarioSuite

        spec = _smoke_suite().specs[0]
        adaptive = dataclasses.replace(
            spec, name=f"{spec.name}-adaptive", mode="adaptive",
            ci_halfwidth=0.2, trials=4,
        )
        suite = ScenarioSuite(name=f"{SUITE}-adaptive", specs=(spec, adaptive))
        service = _service(tmp_path / "svc", ctx)
        try:
            run_id = service.submit(_payload(suite))["id"]
            queued = service.entry(run_id).total
            service.start()
            entry = _wait(service, run_id)
        finally:
            service.close()
        assert queued == entry.total == entry.completed


class TestChaos:
    @pytest.mark.chaos
    def test_chaos_spec_disturbs_this_suite(self, ctx, tmp_path):
        """Non-vacuity guard for the matrix's daemon chaos case: the seeded
        spec schedules a kill and a raise among the cells a daemon queues
        for the matrix suite, read from the suite as the daemon parses it
        off the wire, and as many cells as the daemon counts."""
        from repro.core.chaos import ChaosPolicy
        from tests.test_conformance import CHAOS, _suite

        payload = _payload(_suite())
        service = _service(tmp_path / "svc", ctx)
        try:
            queued = service.parse_submission(payload)
            total = service.entry(service.submit(payload)["id"]).total
        finally:
            service.close()
        policy = ChaosPolicy.parse(CHAOS)
        decisions = [
            policy.decide(task_index, rate_index, trial, 0)
            for task_index, spec in enumerate(queued.specs)
            for rate_index, trial in np.ndindex(*spec.grid_shape)
        ]
        assert len(decisions) == total
        assert {"kill", "raise"} <= set(decisions)


class TestErrors:
    def test_invalid_workers_refused_at_construction(self, ctx, tmp_path):
        """A slot thread never meets a setting construction did not check."""
        with pytest.raises(ValueError, match="workers"):
            _service(tmp_path / "svc", ctx, workers=-1)

    def test_malformed_submissions_are_400(self, ctx, tmp_path):
        from repro.service import ServiceClient, ServiceClientError, serve

        service = _service(tmp_path / "svc", ctx, slots=1, queue_limit=1)
        server = serve(service, port=0, start=False)
        pump = threading.Thread(target=server.serve_forever, daemon=True)
        pump.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            with pytest.raises(ServiceClientError) as not_json:
                client._request("/campaigns", body=b"{nope")
            assert not_json.value.status == 400

            with pytest.raises(ServiceClientError) as not_suite:
                client.submit({"scenarios": [{"model": "not-a-model"}]})
            assert not_suite.value.status == 400
            assert "invalid campaign suite" in str(not_suite.value)

            with pytest.raises(ServiceClientError) as wrong_shape:
                client.submit(["not", "an", "object"])
            assert wrong_shape.value.status == 400

            with pytest.raises(ServiceClientError) as missing:
                client.status("0" * 64)
            assert missing.value.status == 404

            # Queue bound (slots unstarted, so nothing drains): the first
            # distinct submission occupies the queue, the second gets 503.
            first = client.submit(_payload(_smoke_suite()))
            assert first["state"] == "queued"
            with pytest.raises(ServiceClientError) as full:
                client.submit(_payload(_smoke_suite(name=f"{SUITE}-overflow")))
            assert full.value.status == 503
            assert "queue is full" in str(full.value)

            # A queued (never executed) run has no results yet: 409.
            with pytest.raises(ServiceClientError) as pending:
                client.results(first["id"])
            assert pending.value.status == 409

            # Errors above must not have broken the counters' books.
            stats = client.stats()
            assert stats["submissions"] == 2
            assert stats["misses"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestEquivalence:
    def test_restart_is_a_cache_hit_serving_identical_bytes(self, ctx, tmp_path):
        root = tmp_path / "svc"
        payload = _payload(_smoke_suite())
        with _service(root, ctx) as service:
            run_id = service.submit(payload)["id"]
            _wait(service, run_id)
            first_bytes = _run_bytes(service.run_dir(run_id))

        # A fresh service over the same root: the submission must hit the
        # on-disk cache without executing anything.
        with _service(root, ctx) as restarted:
            response = restarted.submit(payload)
            assert response == {"id": run_id, "state": "complete", "cached": True}
            assert restarted.counters["executions"] == 0
            assert restarted.counters["hits"] == 1
            assert restarted.counters["misses"] == 0
            entry = restarted.entry(run_id)
            assert entry.state == "complete"
            assert _run_bytes(restarted.run_dir(run_id)) == first_bytes

    def test_key_is_content_addressed(self, ctx, tmp_path):
        """Same suite → same id; any spec change → a different id."""
        import dataclasses

        from repro.service import campaign_key

        suite = _smoke_suite()
        assert campaign_key(suite, ctx) == campaign_key(_smoke_suite(), ctx)
        reseeded = dataclasses.replace(suite.specs[0], seed=suite.specs[0].seed + 1)
        changed = dataclasses.replace(suite, specs=(reseeded,) + suite.specs[1:])
        assert campaign_key(changed, ctx) != campaign_key(suite, ctx)

