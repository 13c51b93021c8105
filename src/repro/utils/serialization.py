"""Model and experiment serialization.

Models are persisted as ``.npz`` archives holding one array per named
parameter/buffer plus a small JSON metadata blob (architecture name and
constructor kwargs).  The zoo (:mod:`repro.models.zoo`) uses this to cache
trained models so experiments never retrain unnecessarily.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = [
    "atomic_write",
    "write_json_atomic",
    "trim_torn_tail",
    "save_state_dict",
    "load_state_dict",
]

_META_KEY = "__repro_meta__"


@contextlib.contextmanager
def atomic_write(path: "str | Path") -> Iterator[Path]:
    """Yield a temporary path that replaces ``path`` on clean exit.

    The tmp name embeds the writer's pid so concurrent processes racing
    on the same target never share (and interleave within) one tmp file;
    whichever ``os.replace`` lands last wins, and readers always see
    either a previous complete file or a new complete file — never a
    torn write.  On error the tmp file is removed and nothing is
    published.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    try:
        yield tmp
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()


def write_json_atomic(path: "str | Path", payload: Any) -> Path:
    """Serialize ``payload`` and atomically replace ``path``.

    The tmp-file + :func:`os.replace` pattern: a reader (or a later
    ``repro merge``) either sees the previous complete file or the new
    one, never a truncated write from a killed run.
    """
    target = Path(path)
    with atomic_write(target) as tmp:
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return target


def trim_torn_tail(path: "str | Path") -> bytes:
    """Cut an append-only log back to its last complete line.

    A writer killed mid-flush leaves a partial last line; a record
    appended after it would be glued onto the fragment.  Returns the
    intact prefix, which is what stays on disk.
    """
    data = Path(path).read_bytes()
    intact = data[: data.rfind(b"\n") + 1]
    if len(intact) < len(data):
        os.truncate(path, len(intact))
    return intact


def save_state_dict(
    path: "str | Path",
    state: Mapping[str, np.ndarray],
    metadata: "Mapping[str, Any] | None" = None,
) -> Path:
    """Write a name→array mapping (plus optional JSON metadata) to ``path``.

    Parent directories are created as needed.  Returns the resolved path.
    The archive is published atomically (:func:`atomic_write`), so a
    crash mid-write — or a concurrent writer caching the same
    fingerprint — can never leave a torn ``.npz`` behind.
    """
    target = Path(path)
    arrays: dict[str, np.ndarray] = {}
    for name, array in state.items():
        if name == _META_KEY:
            raise ValueError(f"state key {name!r} is reserved")
        arrays[name] = np.asarray(array)
    meta_json = json.dumps(dict(metadata or {}), sort_keys=True)
    arrays[_META_KEY] = np.frombuffer(meta_json.encode("utf-8"), dtype=np.uint8)
    # savez appends ".npz" when handed a bare path; an open handle keeps
    # the pid-suffixed tmp name intact.
    with atomic_write(target) as tmp:
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
    return target


def load_state_dict(path: "str | Path") -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Read back a ``(state, metadata)`` pair written by :func:`save_state_dict`."""
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"no such model file: {source}")
    with np.load(source) as archive:
        metadata: dict[str, Any] = {}
        state: dict[str, np.ndarray] = {}
        for name in archive.files:
            if name == _META_KEY:
                metadata = json.loads(bytes(archive[name]).decode("utf-8"))
            else:
                state[name] = archive[name]
    return state, metadata
