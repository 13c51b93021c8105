"""Deterministic random-number management for experiments.

Every stochastic component in this library (data generation, weight
initialization, fault injection, campaign trials) receives an explicit seed.
This module provides a small tree-structured seed facility built on
:class:`numpy.random.SeedSequence` so that:

* the same top-level seed always reproduces the same experiment end to end;
* independent components (e.g. two fault-injection trials) get
  statistically independent streams;
* *common random numbers* are easy to express: two campaigns that should
  share randomness (e.g. the same fault locations evaluated under two
  different clipping thresholds) simply reuse the same child seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SeedTree", "as_generator"]


def as_generator(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an ``int`` seed, an existing generator (returned unchanged so
    callers can share streams), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class SeedTree:
    """A named, hierarchical seed dispenser.

    A :class:`SeedTree` maps string paths to deterministic seeds.  The same
    ``(root_seed, path)`` pair always yields the same seed, regardless of
    the order in which paths are requested — so adding a new consumer of
    randomness to an experiment does not perturb existing consumers.

    Example::

        tree = SeedTree(1234)
        data_rng = tree.generator("data")
        trial_seeds = [tree.seed(f"trial/{i}") for i in range(50)]
    """

    def __init__(self, root_seed: int):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The seed this tree was constructed with."""
        return self._root_seed

    def seed(self, path: str) -> int:
        """Return the deterministic 63-bit seed for ``path``."""
        if not path:
            raise ValueError("path must be a non-empty string")
        # Hash the path into spawn keys so ordering of requests is irrelevant.
        key = tuple(_stable_hash(part) for part in path.split("/"))
        seq = np.random.SeedSequence(self._root_seed, spawn_key=key)
        return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)

    def generator(self, path: str) -> np.random.Generator:
        """Return a fresh generator seeded for ``path``."""
        return np.random.default_rng(self.seed(path))

    def child(self, path: str) -> "SeedTree":
        """Return a sub-tree rooted at ``path``."""
        return SeedTree(self.seed(path))

    def __repr__(self) -> str:
        return f"SeedTree(root_seed={self._root_seed})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedTree):
            return NotImplemented
        return self._root_seed == other._root_seed

    def __hash__(self) -> int:
        return hash(("SeedTree", self._root_seed))


def _stable_hash(text: str) -> int:
    """A process-independent 32-bit FNV-1a hash of ``text``.

    Python's builtin ``hash`` is salted per process, so it cannot be used to
    derive reproducible seeds.
    """
    value = 2166136261
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value
