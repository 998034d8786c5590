"""Tests for latency histograms."""

import pytest

from repro.sim.latency import LatencyHistogram


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
