import statistics

import pytest

import stats


def test_median_and_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert stats.median(values) == statistics.median(values) == q2


def test_single_sample_quartiles_collapse():
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_empty_samples_are_refused():
    for fn in (stats.median, stats.quartiles, stats.summarize):
        with pytest.raises(ValueError):
            fn([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile([7, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        stats.percentile(values, 101)


@pytest.mark.parametrize("count, want", [(0, None), (1, None), (19, None), (20, 50), (100, 90), (1000, 99)])
def test_highest_supported_percentile_leaves_ten_samples_beyond(count, want):
    p = stats.highest_supported_percentile(count)
    assert p == want
    if p is not None:
        values = list(range(count))
        beyond = sum(1 for v in values if v > stats.percentile(values, p))
        assert beyond >= 10


def test_summarize_reports_the_count_and_a_supported_tail():
    small = stats.summarize([1.0, 2.0, 3.0])
    assert small["count"] == 3 and small["median"] == 2.0
    assert not any(k.startswith("p") for k in small)
    large = stats.summarize([float(v) for v in range(100)])
    assert large["p90"] == 89.0
