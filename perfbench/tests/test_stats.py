"""The percentile rule: the highest percentile with >= 10 samples beyond it."""

import pytest

from e2ebench.stats import MIN_BEYOND, TAIL_LADDER, median, nearest_rank, summarize, tail_percentile


@pytest.mark.parametrize(
    ("count", "expected"),
    [
        (10_000, 99.0),
        (2_000, 99.0),
        (1_000, 99.0),
        (999, 98.0),
        (500, 98.0),
        (300, 95.0),
        (200, 95.0),
        (100, 90.0),
        (50, 80.0),
        (40, 75.0),
        (20, 50.0),
        (19, None),
        (1, None),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


@pytest.mark.parametrize("count", [20, 21, 57, 99, 100, 101, 300, 999, 1000, 1001, 5000])
def test_chosen_percentile_is_the_highest_admissible(count):
    values = sorted(float(i) for i in range(count))
    percentile = tail_percentile(count)
    cut = nearest_rank(values, percentile)
    assert sum(1 for v in values if v > cut) >= MIN_BEYOND
    higher = [p for p in TAIL_LADDER if p > percentile]
    for candidate in higher:
        assert sum(1 for v in values if v > nearest_rank(values, candidate)) < MIN_BEYOND


def test_summary_reports_percentile_and_count():
    values = [float(i) for i in range(1, 1001)]
    summary = summarize(values)
    assert summary == {"n": 1000, "p50": 500.5, "tail_pct": 99.0, "tail": 990.0}


def test_small_samples_fall_back_to_the_maximum():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["tail_pct"] is None
    assert summary["tail"] == 3.0
    assert summary["p50"] == 2.0


def test_median_and_empty_inputs():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert summarize([])["n"] == 0
    with pytest.raises(ValueError):
        median([])
