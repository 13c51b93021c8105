"""OpenBLAS thread control through :mod:`ctypes`, stdlib only.

NumPy's wheels bundle scipy-openblas, which starts one BLAS thread per
CPU in every process that imports numpy — so each worker of a process
pool runs as many BLAS threads as the parent, and two workers on two
CPUs run four.  This module is the one place that knows the OpenBLAS
symbol names.  It finds every OpenBLAS already mapped into this process
(``/proc/self/maps``; it never loads a library) and talks to each
through whichever known symbol pair that library exports:

* ``scipy_openblas_*_num_threads64_`` — numpy's ILP64 copy
  (``numpy.libs/libscipy_openblas64_*.so``), the library ``@`` calls;
* ``openblas_*_num_threads64_`` — the ILP64 copy of numpy 1.x wheels;
* ``openblas_*_num_threads`` — a distribution's shared OpenBLAS;
* ``scipy_openblas_*_num_threads`` — scipy's separate LP64 copy
  (``scipy.libs/libscipy_openblas-*.so``).  The runtime never imports
  scipy, so this copy is mapped only when the caller imports scipy
  itself.

On any other BLAS (MKL, Accelerate, a reference build), or where
``/proc`` is missing, every function here is a no-op that returns
``None``; none of them raises.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["blas_threads", "set_blas_threads"]

# (getter, setter) pairs, numpy's own builds first: the first library in
# this order is the one whose count blas_threads() reports.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _mapped_openblas() -> "list[str]":
    """Paths of every OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps", "rb") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return []
    paths: "list[str]" = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = os.fsdecode(fields[5])
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


def _controls() -> "list[tuple[int, ctypes._CFuncPtr, ctypes._CFuncPtr]]":
    """``(rank, getter, setter)`` per mapped library exporting a known pair.

    ``rank`` is the pair's position in :data:`_SYMBOLS`; the result is
    sorted by it, so numpy's library comes first.
    """
    controls = []
    for path in _mapped_openblas():
        try:
            # RTLD_NOLOAD: a handle to the already-mapped copy, never a load.
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for rank, (get_name, set_name) in enumerate(_SYMBOLS):
            getter = getattr(library, get_name, None)
            setter = getattr(library, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            controls.append((rank, getter, setter))
            break
    controls.sort(key=lambda control: control[0])
    return controls


def blas_threads() -> "int | None":
    """NumPy's current BLAS thread count (``None`` when unknown)."""
    controls = _controls()
    return int(controls[0][1]()) if controls else None


def set_blas_threads(threads: int) -> "int | None":
    """Run every mapped OpenBLAS on ``threads`` threads.

    Returns numpy's previous count (``None`` when unknown), so a caller
    can restore it.
    """
    controls = _controls()
    previous = int(controls[0][1]()) if controls else None
    for _rank, _getter, setter in controls:
        setter(int(threads))
    return previous
