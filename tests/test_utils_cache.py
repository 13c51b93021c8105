"""Tests for the artifact cache."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.utils.cache import ArtifactCache, config_fingerprint, default_cache_dir


class TestFingerprint:
    def test_deterministic(self):
        config = {"a": 1, "b": [1, 2]}
        assert config_fingerprint(config) == config_fingerprint(dict(config))

    def test_key_order_irrelevant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_value_change_changes_fingerprint(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_numpy_scalars_supported(self):
        assert config_fingerprint({"a": np.float64(1.5)}) == config_fingerprint({"a": 1.5})

    def test_sets_normalised(self):
        assert config_fingerprint({"a": {3, 1}}) == config_fingerprint({"a": [1, 3]})

    def test_unfingerprintable_type_raises(self):
        with pytest.raises(TypeError):
            config_fingerprint({"a": object()})


class TestArtifactCache:
    def test_env_var_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ArtifactCache().directory == tmp_path / "custom"

    def test_path_for_stable(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        a = cache.path_for("model", {"x": 1})
        b = cache.path_for("model", {"x": 1})
        assert a == b
        assert a.parent == tmp_path

    def test_distinct_configs_distinct_paths(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.path_for("m", {"x": 1}) != cache.path_for("m", {"x": 2})

    def test_has_and_remove(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        config = {"x": 1}
        path = cache.path_for("m", config)
        assert not path.exists()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"data")
        assert cache.remove("m", config)
        assert not path.exists()
        assert not cache.remove("m", config)

    def test_empty_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path).path_for("", {})

    def test_write_json_publishes_atomically(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        config = {"x": 1}
        path = cache.write_json("thresholds", config, {"a": [1, 2, 3]})
        assert path == cache.path_for("thresholds", config, suffix=".json")
        assert json.loads(path.read_text()) == {"a": [1, 2, 3]}
        # No tmp litter left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


# One writer process: hammers the same cache key with its own marker
# payload.  The payload is internally consistent (every element equals
# the writer id), so a reader can detect any torn/interleaved write.
_WRITER = """
import sys
from repro.utils.cache import ArtifactCache

cache_dir, writer, iterations = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
cache = ArtifactCache(cache_dir)
for _ in range(iterations):
    cache.write_json("race", {"shared": True}, {"who": writer, "data": [writer] * 4096})
"""


class TestCrossProcessRace:
    def test_double_write_never_leaves_a_torn_entry(self, tmp_path):
        """Two processes caching the same fingerprint race benignly.

        The service depends on this: concurrent slot threads (and
        concurrent daemons sharing one REPRO_CACHE_DIR) may harden the
        same model at once.  Every read during the race must parse and
        be exactly one writer's complete payload — the pre-fix fixed-name
        ``.tmp`` scheme let two writers interleave within one tmp file.
        """
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("race", {"shared": True}, suffix=".json")
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path), str(who), "150"],
                env=_child_env(),
            )
            for who in (1, 2)
        ]
        observed: set[int] = set()
        torn: list[str] = []
        try:
            while any(writer.poll() is None for writer in writers):
                if not path.exists():
                    continue
                try:
                    payload = json.loads(path.read_text())
                except json.JSONDecodeError as error:
                    torn.append(f"unparseable entry: {error}")
                    break
                if payload["data"] != [payload["who"]] * 4096:
                    torn.append(f"interleaved entry from writer {payload['who']}")
                    break
        finally:
            for writer in writers:
                writer.wait(timeout=60)
        assert not torn, torn
        assert all(writer.returncode == 0 for writer in writers)
        final = json.loads(path.read_text())
        observed.add(final["who"])
        assert final["data"] == [final["who"]] * 4096
        assert observed <= {1, 2}
        # Neither writer left its pid-unique tmp file behind.
        assert [p.name for p in tmp_path.glob("*.tmp-*")] == []

    def test_state_dict_double_write_never_torn(self, tmp_path):
        """The zoo's .npz writes obey the same atomicity contract."""
        from repro.utils.serialization import load_state_dict, save_state_dict

        path = tmp_path / "weights.npz"
        script = """
import sys
import numpy as np
from repro.utils.serialization import save_state_dict

path, writer, iterations = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
for _ in range(iterations):
    save_state_dict(path, {"w": np.full(4096, writer)}, {"who": writer})
"""
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), str(who), "60"],
                env=_child_env(),
            )
            for who in (1, 2)
        ]
        torn: list[str] = []
        try:
            while any(writer.poll() is None for writer in writers):
                if not path.exists():
                    continue
                try:
                    state, metadata = load_state_dict(path)
                except Exception as error:  # noqa: BLE001 - any failure = torn
                    torn.append(f"unreadable archive: {error}")
                    break
                if not (state["w"] == metadata["who"]).all():
                    torn.append("archive mixes two writers")
                    break
        finally:
            for writer in writers:
                writer.wait(timeout=60)
        assert not torn, torn
        assert all(writer.returncode == 0 for writer in writers)
        state, metadata = load_state_dict(path)
        assert (state["w"] == metadata["who"]).all()


def _child_env() -> dict:
    import os
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env
