"""Result summarization helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import histogram, summarize
from repro.analysis.tables import format_table


class TestSummarize:
    def test_five_number_summary(self):
        box = summarize([1, 2, 3, 4, 5])
        assert box.minimum == 1 and box.maximum == 5
        assert box.median == 3
        assert box.mean == 3
        assert box.count == 5

    def test_quartiles(self):
        box = summarize(range(101))
        assert (box.q1, box.q3) == pytest.approx((25.0, 75.0))

    def test_accepts_a_generator(self):
        assert summarize(x * x for x in range(4)).maximum == 9

    def test_even_count_median_interpolates(self):
        assert summarize([1, 2, 3, 10]).median == pytest.approx(2.5)

    def test_constant_dataset_collapses(self):
        box = summarize([4.2] * 3)
        assert box.minimum == box.q1 == box.median == box.q3 == box.maximum == 4.2
        assert box.mean == 4.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_row_rendering(self):
        row = summarize([1.0, 2.0]).row("label")
        assert row[0] == "label"
        assert len(row) == 7


class TestHistogram:
    def test_fractions_sum_to_one(self):
        bins = histogram([1, 2, 2, 3, 3, 3], bins=3)
        assert sum(frac for __, __, frac in bins) == pytest.approx(1.0)

    def test_explicit_range(self):
        bins = histogram([5], bins=2, lo=0, hi=10)
        assert bins[0][0] == 0 and bins[-1][1] == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([])


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_nonstring_cells(self):
        text = format_table(["x"], [[1.5], [None]])
        assert "1.5" in text and "None" in text


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_summary_invariants(values):
    box = summarize(values)
    assert box.minimum <= box.q1 <= box.median <= box.q3 <= box.maximum
    assert box.minimum <= box.mean <= box.maximum
