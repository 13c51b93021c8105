"""A tiny on-disk cache for expensive artifacts (trained models, campaigns).

The cache is keyed by a human-readable name plus a deterministic fingerprint
of the configuration that produced the artifact, so a change to any
hyper-parameter transparently invalidates stale entries.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

__all__ = ["default_cache_dir", "config_fingerprint", "ArtifactCache"]

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Resolve the cache directory.

    Honours the ``REPRO_CACHE_DIR`` environment variable; otherwise uses
    ``~/.cache/repro-ftclipact``.
    """
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-ftclipact"


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """A short stable hash of a JSON-serialisable configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, default=_jsonify)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _jsonify(value: Any) -> Any:
    """Fallback encoder: tuples and numpy scalars appear in configs."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


class ArtifactCache:
    """Maps ``(name, config)`` keys to file paths under a cache directory."""

    def __init__(self, directory: "str | Path | None" = None):
        self._directory = Path(directory) if directory else default_cache_dir()

    @property
    def directory(self) -> Path:
        """Root directory of this cache."""
        return self._directory

    def path_for(self, name: str, config: Mapping[str, Any], suffix: str = ".npz") -> Path:
        """Return the (possibly not yet existing) cache path for this key."""
        if not name:
            raise ValueError("artifact name must be non-empty")
        fingerprint = config_fingerprint(config)
        return self._directory / f"{name}-{fingerprint}{suffix}"

    def write_json(
        self,
        name: str,
        config: Mapping[str, Any],
        payload: Any,
        suffix: str = ".json",
    ) -> Path:
        """Atomically publish a JSON artifact for this key.

        Uses the pid-unique tmp + ``os.replace`` pattern of
        :func:`repro.utils.serialization.write_json_atomic`, so two
        processes caching the same fingerprint race benignly: readers
        see one writer's complete payload, never a torn entry.
        """
        from repro.utils.serialization import write_json_atomic

        return write_json_atomic(self.path_for(name, config, suffix), payload)

    def remove(self, name: str, config: Mapping[str, Any], suffix: str = ".npz") -> bool:
        """Delete the cached artifact if present; returns whether it existed."""
        path = self.path_for(name, config, suffix)
        if path.exists():
            path.unlink()
            return True
        return False
