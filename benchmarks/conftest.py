"""Shared fixtures for the figure-reproduction benchmarks.

Expensive artifacts (trained AlexNet/VGG-16, fine-tuned thresholds) are
produced once and cached on disk under the user cache directory
(`REPRO_CACHE_DIR` overrides), so the first benchmark run trains models
and later runs start immediately.

Every benchmark prints the paper-style table it reproduces and also writes
it to ``benchmarks/results/<name>.txt`` so results survive pytest's output
capture.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from repro.experiments import (
    campaign_workers,
    clone_model,
    default_harden_config,
    experiment_bundle,
    hardened_clone,
    paper_fault_rates,
)

RESULTS_DIR = Path(__file__).parent / "results"

# Trials per fault rate.  The paper uses 50; 15 keeps the whole suite in
# CPU-minutes while leaving the mean/box statistics stable (common random
# numbers across variants do the rest).
TRIALS = 15


BENCHMARKS_DIR = Path(__file__).parent


def git_sha() -> str:
    """Short SHA keying a benchmark history entry ('unknown' outside git).

    A tree with uncommitted changes under ``src/`` measures code the SHA
    does not name, so its entries are keyed ``<sha>-dirty``.
    """

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10,
            cwd=BENCHMARKS_DIR.parent,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not sha:
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def pytest_collection_modifyitems(items):
    """Every figure benchmark is end-to-end and slow by construction.

    Marking them here (rather than per file) keeps ``-m "not slow"`` as
    the fast inner loop without touching each benchmark module.  The
    hook fires for the whole collection, so filter to this directory.
    """
    for item in items:
        if BENCHMARKS_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def bench_workers():
    """Campaign worker processes for benchmarks (``REPRO_WORKERS`` env).

    Every campaign is bit-deterministic at any worker count (see
    :mod:`repro.core.executor`), so the recorded tables are identical
    whether a benchmark runs serially or fanned across cores.
    """
    return campaign_workers(default=1)


@pytest.fixture(scope="session")
def fault_rates():
    return paper_fault_rates()


@pytest.fixture(scope="session")
def alexnet_bundle():
    return experiment_bundle("alexnet")


@pytest.fixture(scope="session")
def vgg16_bundle():
    return experiment_bundle("vgg16")


@pytest.fixture(scope="session")
def alexnet_eval(alexnet_bundle):
    images, labels = alexnet_bundle.test_set.arrays()
    return images[:200], labels[:200]


@pytest.fixture(scope="session")
def vgg16_eval(vgg16_bundle):
    images, labels = vgg16_bundle.test_set.arrays()
    return images[:200], labels[:200]


@pytest.fixture(scope="session")
def alexnet_hardened(alexnet_bundle):
    """(model, thresholds, act_max) for the hardened AlexNet (cached)."""
    return hardened_clone(alexnet_bundle, default_harden_config())


@pytest.fixture(scope="session")
def vgg16_hardened(vgg16_bundle):
    """(model, thresholds, act_max) for the hardened VGG-16 (cached)."""
    return hardened_clone(vgg16_bundle, default_harden_config())


def write_tracked(path: Path, text: str) -> bool:
    """Write a timing result file, but only from a clean commit.

    ``BENCH_*`` files are tracked history: numbers measured on a dirty
    tree (or outside git) time code that no SHA names, so they are
    printed and the file is left alone.  Returns whether it was written.
    """
    sha = git_sha()
    if sha == "unknown" or sha.endswith("-dirty"):
        print(f"\n[{sha}] not writing {path.name}: commit first to record")
        return False
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    return True


def record(name: str, text: str) -> None:
    """Print a report and persist it to benchmarks/results/<name>.txt.

    Deterministic figure tables are always written; ``BENCH_*`` timing
    reports go through :func:`write_tracked`.
    """
    print(f"\n{text}\n")
    path = RESULTS_DIR / f"{name}.txt"
    if name.startswith("BENCH_"):
        write_tracked(path, text + "\n")
    else:
        RESULTS_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")


@pytest.fixture(scope="session")
def record_result():
    """The :func:`record` sink for benchmark reports."""
    return record


def run_once(benchmark, fn):
    """Time exactly one execution of an experiment under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
