"""Tests for the seeding infrastructure."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import SeedTree, as_generator


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSeedTree:
    def test_same_path_same_seed(self):
        tree = SeedTree(123)
        assert tree.seed("a/b") == tree.seed("a/b")

    def test_different_paths_differ(self):
        tree = SeedTree(123)
        assert tree.seed("a") != tree.seed("b")

    def test_order_independent(self):
        first = SeedTree(9)
        _ = first.seed("x")
        value = first.seed("y")
        second = SeedTree(9)
        assert second.seed("y") == value

    def test_child_consistency(self):
        tree = SeedTree(5)
        child = tree.child("sub")
        assert child.root_seed == tree.seed("sub")

    def test_generator_streams_independent(self):
        tree = SeedTree(11)
        a = tree.generator("one").random(100)
        b = tree.generator("two").random(100)
        assert not np.allclose(a, b)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            SeedTree(0).seed("")

    def test_non_int_root_rejected(self):
        with pytest.raises(TypeError):
            SeedTree("abc")  # type: ignore[arg-type]

    def test_equality_and_hash(self):
        assert SeedTree(4) == SeedTree(4)
        assert SeedTree(4) != SeedTree(5)
        assert hash(SeedTree(4)) == hash(SeedTree(4))

    def test_repr(self):
        assert "42" in repr(SeedTree(42))

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_seed_in_63bit_range(self, root, path):
        seed = SeedTree(root).seed(path)
        assert 0 <= seed < 2**63

    @given(st.integers(min_value=0, max_value=2**31))
    def test_distinct_roots_decorrelate(self, root):
        a = SeedTree(root).seed("p")
        b = SeedTree(root + 1).seed("p")
        assert a != b
