"""Tests for the analysis helpers (report rendering)."""

import pytest

from repro.analysis.report import render_bar_chart, render_series, render_table


def test_render_table_alignment_and_content():
    text = render_table(
        ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(set(len(line) for line in lines[2:])) <= 2  # aligned rows


def test_render_table_validates_row_width():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [["only-one"]])


def test_render_series():
    text = render_series(
        "n", [1, 2], [("tc", [10.0, 20.0]), ("fc", [30.0, 40.0])]
    )
    assert "tc" in text and "fc" in text
    assert "10.0" in text and "40.0" in text


def test_render_bar_chart_scales_to_width():
    text = render_bar_chart(["a", "b"], [1.0, 2.0], width=10)
    lines = text.splitlines()
    assert lines[1].count("#") == 10  # the max bar fills the width
    assert lines[0].count("#") == 5


def test_render_bar_chart_validates():
    with pytest.raises(ValueError):
        render_bar_chart(["a"], [1.0, 2.0])


def test_render_bar_chart_handles_zeros():
    text = render_bar_chart(["z"], [0.0])
    assert "0" in text
