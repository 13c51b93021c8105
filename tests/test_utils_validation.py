"""Tests for argument-validation helpers."""

import pytest

from repro.utils.validation import (
    as_pair,
    check_in_choices,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3) == 3

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckInChoices:
    def test_accepts_member(self):
        assert check_in_choices("mode", "a", ("a", "b")) == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            check_in_choices("mode", "c", ("a", "b"))


class TestAsPair:
    def test_int_duplicated(self):
        assert as_pair("k", 3) == (3, 3)

    def test_pair_passthrough(self):
        assert as_pair("k", (2, 4)) == (2, 4)

    def test_list_accepted(self):
        assert as_pair("k", [1, 2]) == (1, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            as_pair("k", (1, 2, 3))
