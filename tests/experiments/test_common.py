"""Tests for the figure-data containers."""

import pytest

from repro.experiments.common import FigureData, geometric_mean


def make_figure():
    data = FigureData(
        figure="figX", title="Test", columns=["a", "b"],
    )
    data.add_row("w1", a=1.0, b=2.0)
    data.add_row("w2", a=3.0, b=4.0)
    return data


class TestFigureData:
    def test_add_row_requires_all_columns(self):
        data = FigureData(figure="f", title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            data.add_row("w", a=1.0)

    def test_column_extraction(self):
        data = make_figure()
        assert data.column("a") == [1.0, 3.0]

    def test_mean_and_max(self):
        data = make_figure()
        assert data.mean("a") == 2.0
        assert data.maximum("b") == 4.0

    def test_mean_empty_rejected(self):
        data = FigureData(figure="f", title="t", columns=["a"])
        with pytest.raises(ValueError):
            data.mean("a")

    def test_row_lookup(self):
        data = make_figure()
        assert data.row("w2").get("b") == 4.0
        with pytest.raises(KeyError):
            data.row("missing")
        with pytest.raises(KeyError):
            data.row("w1").get("zzz")

    def test_format_table_contains_everything(self):
        table = make_figure().format_table()
        for token in ("workload", "a", "b", "w1", "w2", "3.000"):
            assert token in table

    def test_format_table_aligned(self):
        lines = make_figure().format_table().splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows padded to equal width


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single(self):
        assert geometric_mean([3.0]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
