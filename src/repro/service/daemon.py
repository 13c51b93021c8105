"""The ``repro serve`` daemon: campaigns as a memoized service.

One long-lived :class:`CampaignService` owns the expensive shared
artifacts — the :class:`~repro.scenarios.compile.ScenarioContext` bundle
cache and one persistent :class:`~repro.core.executor.CampaignExecutor`
per worker slot — and schedules submissions through a bounded queue.
Submissions are memoized by the content-addressed key of
:mod:`repro.service.keys`:

* identical **concurrent** submissions coalesce onto one in-flight
  execution (single-flight: the first submission enqueues, the rest
  attach to its entry and share the run id);
* identical **later** submissions (including after a daemon restart)
  hit the on-disk result cache — ordinary run directories under
  ``<root>/runs/<id>/``, exactly what ``repro scenarios --out`` writes,
  published atomically with a ``service.json`` completion marker.

The HTTP layer (:func:`serve`) is a stdlib
:class:`~http.server.ThreadingHTTPServer`; ``ROUTES`` is the
authoritative endpoint table, mirrored by ``docs/SERVICE.md`` and
enforced both directions by ``tests/test_docs_consistency.py``.
"""

from __future__ import annotations

import json
import math
import queue
import shutil
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.service.keys import SERVICE_FORMAT, campaign_key, key_components

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import SupervisionPolicy
    from repro.scenarios.compile import ScenarioContext
    from repro.scenarios.spec import ScenarioSuite

__all__ = [
    "MARKER_FILENAME",
    "ROUTES",
    "RUNS_DIRNAME",
    "CampaignService",
    "ServiceError",
    "serve",
]

RUNS_DIRNAME = "runs"
MARKER_FILENAME = "service.json"

# method+path -> what it serves.  docs/SERVICE.md mirrors this table and
# docs-check keeps the two in sync.
ROUTES: dict[str, str] = {
    "POST /campaigns": "submit a CampaignSpec suite JSON; returns the run id",
    "GET /campaigns/<id>": "status + per-cell progress counts",
    "GET /campaigns/<id>/results": "summary.json + per-scenario payloads, verbatim",
    "GET /campaigns/<id>/store": "the canonical store/cells.rcs bytes",
    "GET /campaigns/<id>/report": "the rendered static HTML report",
    "GET /stats": "hit/miss/execution counters and queue depth",
}

STATES = ("queued", "running", "complete", "failed")


class ServiceError(Exception):
    """An error with an HTTP status, rendered as a JSON error payload."""

    status = 500

    def __init__(self, message: str, status: "int | None" = None):
        super().__init__(message)
        if status is not None:
            self.status = status


class BadRequest(ServiceError):
    status = 400


class NotFound(ServiceError):
    status = 404


class NotReady(ServiceError):
    status = 409


class QueueFull(ServiceError):
    status = 503


@dataclass
class RunEntry:
    """In-memory state of one memoized campaign."""

    id: str
    suite: str
    state: str = "queued"
    completed: int = 0
    total: int = 0
    by_scenario: dict[str, int] = field(default_factory=dict)
    error: "str | None" = None
    done: threading.Event = field(default_factory=threading.Event)

    def status_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "suite": self.suite,
            "state": self.state,
            "completed": self.completed,
            "total": self.total,
            "by_scenario": dict(sorted(self.by_scenario.items())),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


class _SlotContext:
    """A per-slot view of the service's shared ScenarioContext.

    Trained bundles are safe to share across slots: their models are
    cloned before every campaign, and each data split is generated on
    first read and memoized once, under the bundle's own lock.  So
    ``bundle`` delegates to the one service-wide memo under the
    service's artifact lock — warm traffic trains each model exactly
    once per daemon.  Prepared mitigation clones are *live* models that
    serial execution runs in-thread, so each slot memoizes its own
    clones instead of sharing mutable state.
    """

    def __init__(self, shared: "ScenarioContext", lock: threading.RLock):
        self._shared = shared
        self._lock = lock
        self._prepared: dict[tuple[str, str], tuple[Any, Any]] = {}
        self.cache = shared.cache
        self.bundle_overrides = shared.bundle_overrides
        self.harden_config = shared.harden_config
        self.harden_workers = shared.harden_workers

    def bundle(self, model: str):
        with self._lock:
            return self._shared.bundle(model)

    def prepared(self, model: str, variant: str) -> tuple[Any, Any]:
        from repro.scenarios.compile import memoized_variant

        # Hardening itself is cached on disk (hardened_clone), so the
        # lock serializes only the first, cache-filling call.
        return memoized_variant(self, self._prepared, model, variant, self._lock)


class CampaignService:
    """Memoizing scheduler in front of the scenario engine.

    ``workers`` is each slot executor's process count, ``slots`` the
    number of campaigns executing concurrently, ``queue_limit`` the
    backlog bound beyond the running campaigns (full → 503).  The
    ``supervision`` policy goes to every slot executor exactly as it
    does in ``repro scenarios`` (``docs/FAULT_TOLERANCE.md``), so the
    daemon inherits retry/timeout/quarantine and the ``REPRO_CHAOS``
    harness.  Every setting is validated here, before a slot starts.

    Construction is passive; :meth:`start` spawns the slot threads (the
    split keeps queue-bound behaviour deterministic under test).
    """

    def __init__(
        self,
        root: "str | Path",
        context: "ScenarioContext | None" = None,
        workers: int = 1,
        slots: int = 1,
        queue_limit: int = 8,
        supervision: "SupervisionPolicy | None" = None,
    ):
        from repro.core.executor import resolve_workers
        from repro.scenarios.compile import ScenarioContext

        resolve_workers(workers)
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.root = Path(root)
        self.context = context if context is not None else ScenarioContext()
        self.workers = workers
        self.slots = slots
        self.supervision = supervision
        self._lock = threading.RLock()
        self._artifact_lock = threading.RLock()
        self._entries: dict[str, RunEntry] = {}
        self._queue: "queue.Queue[tuple[RunEntry, ScenarioSuite] | None]" = (
            queue.Queue(maxsize=queue_limit)
        )
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self.counters = {
            "submissions": 0,
            "hits": 0,
            "misses": 0,
            "executions": 0,
        }

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "CampaignService":
        """Spawn the slot worker threads (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            for index in range(self.slots):
                thread = threading.Thread(
                    target=self._slot_loop, name=f"repro-slot-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        return self

    def close(self) -> None:
        """Drain the slots and shut their executors down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ submission

    def run_dir(self, run_id: str) -> Path:
        return self.root / RUNS_DIRNAME / run_id

    def parse_submission(self, payload: Any) -> "ScenarioSuite":
        """Validate a POST body into a fully expanded suite (400 on junk)."""
        from repro.scenarios.spec import parse_suite

        if not isinstance(payload, Mapping):
            raise BadRequest("submission body must be a JSON object")
        try:
            return parse_suite(payload, name=str(payload.get("name", "scenarios")))
        except (KeyError, TypeError, ValueError) as error:
            raise BadRequest(f"invalid campaign suite: {error}") from error

    def submit(self, payload: Any) -> dict[str, Any]:
        """Memoized submission; returns ``{"id", "state", "cached"}``."""
        suite = self.parse_submission(payload)
        run_id = campaign_key(suite, self.context)
        with self._lock:
            self.counters["submissions"] += 1
            entry = self._entries.get(run_id)
            if entry is not None:
                # Single-flight: attach to the in-flight (or finished)
                # execution instead of scheduling another.
                self.counters["hits"] += 1
                return {"id": run_id, "state": entry.state, "cached": True}
            entry = self._disk_entry(run_id)
            if entry is not None:
                self.counters["hits"] += 1
                self._entries[run_id] = entry
                return {"id": run_id, "state": entry.state, "cached": True}
            self.counters["misses"] += 1
            entry = RunEntry(
                id=run_id,
                suite=suite.name,
                total=sum(math.prod(spec.grid_shape) for spec in suite.specs),
            )
            try:
                self._queue.put_nowait((entry, suite))
            except queue.Full:
                self.counters["misses"] -= 1
                raise QueueFull(
                    f"campaign queue is full ({self._queue.maxsize} pending); retry later"
                ) from None
            self._entries[run_id] = entry
            return {"id": run_id, "state": entry.state, "cached": False}

    def _disk_entry(self, run_id: str) -> "RunEntry | None":
        """Rehydrate a completed run from its on-disk marker, if any."""
        marker = self.run_dir(run_id) / MARKER_FILENAME
        try:
            payload = json.loads(marker.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if payload.get("format") != SERVICE_FORMAT:
            return None
        entry = RunEntry(
            id=run_id,
            suite=str(payload.get("suite", "scenarios")),
            state="complete",
            completed=int(payload.get("completed", 0)),
            total=int(payload.get("total", 0)),
            by_scenario=dict(payload.get("by_scenario", {})),
        )
        entry.done.set()
        return entry

    # --------------------------------------------------------------- queries

    def entry(self, run_id: str) -> RunEntry:
        with self._lock:
            found = self._entries.get(run_id)
            if found is None:
                found = self._disk_entry(run_id)
                if found is None:
                    raise NotFound(f"no campaign with id {run_id!r}")
                self._entries[run_id] = found
        return found

    def _complete_dir(self, run_id: str) -> Path:
        entry = self.entry(run_id)
        if entry.state == "failed":
            raise ServiceError(f"campaign {run_id} failed: {entry.error}")
        if entry.state != "complete":
            raise NotReady(f"campaign {run_id} is {entry.state}; poll status first")
        return self.run_dir(run_id)

    def results_payload(self, run_id: str) -> dict[str, Any]:
        """Every result JSON of a finished run, file-verbatim.

        Payloads are shipped as raw text keyed by filename — not
        re-parsed — so a client writing them back to disk reproduces the
        direct ``repro scenarios`` run byte for byte.
        """
        run_dir = self._complete_dir(run_id)
        files = {
            path.name: path.read_text()
            for path in sorted(run_dir.glob("*.json"))
            if path.name != MARKER_FILENAME
        }
        return {"id": run_id, "files": files}

    def store_bytes(self, run_id: str) -> bytes:
        from repro.results.store import store_path

        return store_path(self._complete_dir(run_id)).read_bytes()

    def report_bytes(self, run_id: str) -> bytes:
        return (self._complete_dir(run_id) / "report.html").read_bytes()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            payload = dict(self.counters)
            states = [entry.state for entry in self._entries.values()]
        payload["queue_depth"] = self._queue.qsize()
        payload["slots"] = self.slots
        payload["workers"] = self.workers
        payload["runs"] = {state: states.count(state) for state in STATES}
        return payload

    # ------------------------------------------------------------- execution

    def _slot_loop(self) -> None:
        from repro.core.executor import CampaignExecutor

        executor = CampaignExecutor(
            workers=self.workers, persistent=True, supervision=self.supervision
        )
        slot_context = _SlotContext(self.context, self._artifact_lock)
        try:
            while True:
                item = self._queue.get()
                if item is None:
                    return
                entry, suite = item
                self._execute(entry, suite, executor, slot_context)
        finally:
            executor.close()

    def _execute(
        self,
        entry: RunEntry,
        suite: "ScenarioSuite",
        executor: "Any",
        slot_context: "Any",
    ) -> None:
        from repro.results.report import write_report
        from repro.scenarios.compile import run_scenarios
        from repro.utils.serialization import write_json_atomic
        import os

        final = self.run_dir(entry.id)
        staging = final.with_name(f".tmp-{entry.id}")

        def progress(cell: "Any") -> None:
            with self._lock:
                entry.completed = cell.completed
                label = cell.campaign_label or entry.suite
                entry.by_scenario[label] = entry.by_scenario.get(label, 0) + 1

        with self._lock:
            self.counters["executions"] += 1
            entry.state = "running"
        try:
            if staging.exists():
                shutil.rmtree(staging)
            staging.mkdir(parents=True)
            run_scenarios(
                suite,
                progress=progress,
                out_dir=staging,
                context=slot_context,
                executor=executor,
            )
            write_report(staging)
            with self._lock:
                marker = {
                    "format": SERVICE_FORMAT,
                    "id": entry.id,
                    "suite": entry.suite,
                    "key": key_components(suite, self.context),
                    "completed": entry.completed,
                    "total": entry.total,
                    "by_scenario": dict(sorted(entry.by_scenario.items())),
                }
            write_json_atomic(staging / MARKER_FILENAME, marker)
            final.parent.mkdir(parents=True, exist_ok=True)
            if final.exists():  # pragma: no cover - only after manual surgery
                shutil.rmtree(final)
            os.replace(staging, final)
            with self._lock:
                entry.state = "complete"
        except Exception as error:  # noqa: BLE001 - a slot must survive any run
            shutil.rmtree(staging, ignore_errors=True)
            with self._lock:
                entry.state = "failed"
                entry.error = f"{type(error).__name__}: {error}"
        finally:
            entry.done.set()


# ------------------------------------------------------------------ HTTP


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes ``ROUTES`` onto a :class:`CampaignService` instance."""

    service: CampaignService  # assigned by serve()
    protocol_version = "HTTP/1.1"

    # The daemon logs via its own channel; per-request stderr chatter
    # would interleave across ThreadingHTTPServer threads.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _dispatch(self, handler: "Any") -> None:
        try:
            handler()
        except ServiceError as error:
            self._send_json(error.status, {"error": str(error)})
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:  # noqa: BLE001 - never kill the server thread
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch(self._post)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch(self._get)

    def _post(self) -> None:
        if self.path.rstrip("/") != "/campaigns":
            raise NotFound(f"no such endpoint: POST {self.path}")
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"body is not valid JSON: {error}") from error
        self._send_json(200, self.service.submit(payload))

    def _get(self) -> None:
        parts = [part for part in self.path.split("/") if part]
        if parts == ["stats"]:
            self._send_json(200, self.service.stats())
            return
        if not parts or parts[0] != "campaigns" or len(parts) > 3:
            raise NotFound(f"no such endpoint: GET {self.path}")
        if len(parts) == 2:
            self._send_json(200, self.service.entry(parts[1]).status_payload())
            return
        run_id, leaf = parts[1], parts[2]
        if leaf == "results":
            self._send_json(200, self.service.results_payload(run_id))
        elif leaf == "store":
            self._send(200, self.service.store_bytes(run_id), "application/octet-stream")
        elif leaf == "report":
            self._send(200, self.service.report_bytes(run_id), "text/html; charset=utf-8")
        else:
            raise NotFound(f"no such endpoint: GET {self.path}")


def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    start: bool = True,
) -> ThreadingHTTPServer:
    """Bind an HTTP server onto ``service`` (not yet serving requests).

    Returns the bound :class:`~http.server.ThreadingHTTPServer`; the
    caller owns ``serve_forever``/``shutdown`` (the CLI runs it behind
    signal handlers; tests drive it from a thread).  ``port=0`` binds an
    ephemeral port — read it back from ``server.server_address``.
    ``start=False`` leaves the slot threads unspawned so tests can
    exercise queue-bound behaviour deterministically.
    """
    handler = type("BoundServiceHandler", (_ServiceHandler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    if start:
        service.start()
    return server
