"""Unit tests for the shared utility helpers."""

from __future__ import annotations

import math

import pytest

from repro.utils.maths import geometric_mean, harmonic_mean, human_bytes, human_count
from repro.utils.reporting import Table, format_table
from repro.utils.validation import (
    check_nonnegative_int,
    check_positive_finite,
    check_positive_int,
    check_power_of_two,
    require,
)


class TestMaths:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
        assert geometric_mean([4.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_harmonic_mean(self):
        assert harmonic_mean([1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_mean([2.0, 6.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([-1.0])

    def test_human_bytes(self):
        assert human_bytes(0) == "0.00 B"
        assert human_bytes(1536) == "1.50 KiB"
        assert human_bytes(3 * 2**20) == "3.00 MiB"
        assert "TiB" in human_bytes(2**50)
        with pytest.raises(ValueError):
            human_bytes(-1)

    def test_human_count(self):
        assert human_count(999) == "999"
        assert human_count(1200) == "1.20K"
        assert human_count(3.5e6) == "3.50M"
        assert human_count(2e9) == "2.00G"
        with pytest.raises(ValueError):
            human_count(-5)


class TestReporting:
    def test_table_rendering(self):
        table = Table(title="demo", columns=["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("beta", 123456.0)
        text = table.render()
        assert "demo" in text
        assert "alpha" in text
        assert "1.5" in text
        assert text == format_table("demo", ["name", "value"], table.rows)

    def test_row_length_checked(self):
        table = Table(title="demo", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_cell_formatting_handles_extremes(self):
        table = Table(title="demo", columns=["x"])
        table.add_row(0.0)
        table.add_row(1e-9)
        table.add_row(1e9)
        rendered = table.render()
        assert "e-09" in rendered and "e+09" in rendered


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_check_nonnegative_int(self):
        assert check_nonnegative_int(0, "x") == 0
        with pytest.raises(ValueError):
            check_nonnegative_int(-1, "x")

    def test_check_positive_finite(self):
        assert check_positive_finite(2.5, "x") == 2.5
        assert check_positive_finite(3, "x") == 3
        for bad in (0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x"):
                check_positive_finite(bad, "x")
        for bad in (True, "1.0", None):
            with pytest.raises(TypeError, match="x"):
                check_positive_finite(bad, "x")

    def test_check_power_of_two(self):
        assert check_power_of_two(64, "x") == 64
        with pytest.raises(ValueError):
            check_power_of_two(48, "x")


def test_math_is_consistent_with_stdlib():
    values = [3.0, 7.0, 11.0]
    expected = math.exp(sum(math.log(v) for v in values) / 3)
    assert geometric_mean(values) == pytest.approx(expected)
