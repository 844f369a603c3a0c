"""Median/quartiles, bound comparison and canonical digests."""

import statistics

import pytest

from benchmarks.e2e import stats


def test_quartiles_are_statistics_quantiles():
    values = [1.31, 1.42, 1.29, 1.37, 1.55, 1.33, 1.30, 1.48, 1.36, 1.40]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)
    assert stats.median(values) == statistics.median(values)
    assert stats.summarize(values)["n"] == 10


def test_single_sample_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5)


@pytest.mark.parametrize("better, base, new, expected", [
    ("lower", 10.0, 11.0, 0.10),     # slower: worse
    ("lower", 10.0, 9.0, -0.10),     # faster: better
    ("higher", 100.0, 90.0, 0.10),   # less throughput: worse
    ("higher", 100.0, 120.0, -0.20),
])
def test_worsening_direction(better, base, new, expected):
    assert stats.worsening(better, base, new) == pytest.approx(expected)


def test_bound_comparison():
    bound = 0.10
    assert stats.worsening("lower", 10.0, 10.9) <= bound
    assert not stats.worsening("lower", 10.0, 11.1) <= bound
    assert stats.worsening("higher", 100.0, 91.0) <= bound
    assert not stats.worsening("higher", 100.0, 89.0) <= bound
    # Any improvement is within any bound.
    assert stats.worsening("lower", 10.0, 1.0) <= 0.0
    with pytest.raises(ValueError):
        stats.worsening("sideways", 1.0, 1.0)


def test_digest_ignores_key_order_but_not_values():
    a = {"completed": 3408, "latency": {"p50_ms": 440.1, "p99_ms": 500.0},
         "series": [1, 2, 3]}
    b = {"series": [1, 2, 3], "latency": {"p99_ms": 500.0, "p50_ms": 440.1},
         "completed": 3408}
    assert list(a) != list(b)
    assert stats.canonical_json(a) == stats.canonical_json(b)
    assert stats.digest(a) == stats.digest(b)
    b["series"] = [1, 3, 2]  # list order is data, not presentation
    assert stats.digest(a) != stats.digest(b)
