"""Tests for the OpenBLAS thread helper (repro.utils.blas).

The helper talks to whatever OpenBLAS copies are mapped into this
process; every test that changes a count restores it.
"""

import _ctypes

import numpy as np
import pytest

import repro.utils.blas as blas_module
from repro.utils.blas import blas_threads, set_blas_threads


@pytest.fixture
def numpy_threads():
    """numpy's BLAS thread count, restored after the test."""
    threads = blas_threads()
    if threads is None:  # pragma: no cover - numpy without OpenBLAS
        pytest.skip("no controllable OpenBLAS mapped")
    yield threads
    set_blas_threads(threads)


class TestMappedOpenBLAS:
    def test_finds_numpy_openblas(self, numpy_threads):
        assert numpy_threads >= 1
        paths = blas_module._mapped_openblas()
        assert any("openblas" in path.lower() for path in paths)

    def test_set_returns_previous_and_applies(self, numpy_threads):
        assert set_blas_threads(1) == numpy_threads
        assert blas_threads() == 1
        assert set_blas_threads(numpy_threads) == 1
        assert blas_threads() == numpy_threads

    def test_matmul_bytes_do_not_depend_on_thread_count(self, numpy_threads):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 384), dtype=np.float32)
        b = rng.standard_normal((384, 192), dtype=np.float32)
        reference = (a @ b).tobytes()
        set_blas_threads(1)
        assert (a @ b).tobytes() == reference

    def test_every_copy_is_set_and_numpy_copy_is_reported(self, numpy_threads):
        """With scipy's separate LP64 copy mapped too, the setter reaches
        both copies and the getter still reads numpy's."""
        pytest.importorskip("scipy.stats")
        controls = blas_module._controls()
        set_blas_threads(1)
        assert [getter() for _rank, getter, _setter in controls] == [1] * len(controls)
        if len(controls) < 2:
            pytest.skip("numpy and scipy share one OpenBLAS here")
        # Move only the lowest-ranked (not numpy's) copy.
        controls[-1][2](2)
        assert blas_threads() == 1


class TestNothingToControl:
    @pytest.mark.parametrize(
        "paths",
        [
            [],
            [_ctypes.__file__],  # mapped, but exports no BLAS symbol
            ["/nonexistent/libopenblas.so"],  # never loaded
        ],
        ids=["no-library", "no-known-setter", "not-mapped"],
    )
    def test_unknown_count_and_no_op(self, monkeypatch, paths):
        before = [getter() for _rank, getter, _setter in blas_module._controls()]
        monkeypatch.setattr(blas_module, "_mapped_openblas", lambda: list(paths))
        assert blas_threads() is None
        assert set_blas_threads(1) is None
        monkeypatch.undo()
        after = [getter() for _rank, getter, _setter in blas_module._controls()]
        assert after == before
