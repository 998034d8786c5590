"""Tests for latency records and histograms."""

import pytest

from repro.sim.latency import LatencyHistogram, LatencyRecord, makespan


class TestLatencyRecord:
    def test_latency(self):
        record = LatencyRecord(issue_cycle=10.0, complete_cycle=35.0)
        assert record.latency == 25.0

    def test_completion_before_issue_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecord(issue_cycle=10.0, complete_cycle=5.0)

    def test_zero_latency_allowed(self):
        assert LatencyRecord(1.0, 1.0).latency == 0.0


class TestLatencyHistogram:
    def test_mean_and_max(self):
        hist = LatencyHistogram("lat")
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        assert hist.mean == pytest.approx(4.0)
        assert hist.max_latency == 6.0
        assert hist.count == 3

    def test_empty_mean(self):
        assert LatencyHistogram("lat").mean == 0.0

    def test_bucketing_powers_of_two(self):
        hist = LatencyHistogram("lat")
        hist.observe(0.5)   # bucket 0 (< 1)
        hist.observe(1.5)   # >= 1, < 2 -> bucket 1
        hist.observe(3.0)   # >= 2, < 4 -> bucket 2
        assert hist.buckets[0] == 1
        assert hist.buckets[1] == 1
        assert hist.buckets[2] == 1

    def test_huge_latency_lands_in_last_bucket(self):
        hist = LatencyHistogram("lat", num_buckets=4)
        hist.observe(1e12)
        assert hist.buckets[-1] == 1

    def test_negative_latency_rejected(self):
        hist = LatencyHistogram("lat")
        with pytest.raises(ValueError):
            hist.observe(-1.0)

    def test_percentile_bound(self):
        hist = LatencyHistogram("lat")
        for _ in range(99):
            hist.observe(1.0)
        hist.observe(1000.0)
        median_bound = hist.percentile_bucket_upper_bound(0.5)
        tail_bound = hist.percentile_bucket_upper_bound(1.0)
        assert median_bound <= 2.0
        assert tail_bound >= 1000.0

    def test_percentile_validation(self):
        hist = LatencyHistogram("lat")
        with pytest.raises(ValueError):
            hist.percentile_bucket_upper_bound(0.0)
        assert hist.percentile_bucket_upper_bound(0.5) == 0.0  # empty


class TestMakespan:
    def test_latest_completion(self):
        records = [LatencyRecord(0.0, 5.0), LatencyRecord(2.0, 9.0)]
        assert makespan(records) == 9.0

    def test_empty(self):
        assert makespan([]) == 0.0
