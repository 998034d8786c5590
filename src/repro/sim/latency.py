"""Latency histogram utilities.

All quantities here are GPU cycles (:data:`repro.units.Cycles`); the
histogram buckets are powers of two of a cycle.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.units import Cycles


def bucket_index(latency: Cycles, num_buckets: int) -> int:
    """The power-of-two bucket holding ``latency``, in O(1).

    Bucket 0 holds ``[0, 1)``, bucket ``k`` holds ``[2**(k-1), 2**k)``,
    and the last bucket absorbs everything beyond the range.  For a
    non-negative float, ``int(latency).bit_length()`` is exactly the
    index the old linear threshold scan produced: truncation maps
    ``[2**k, 2**(k+1))`` onto integers with bit length ``k + 1``, and
    sub-cycle latencies truncate to 0 with bit length 0.
    """
    return min(int(latency).bit_length(), num_buckets - 1)


class LatencyHistogram:
    """Power-of-two bucketed latency histogram with exact aggregates."""

    total: Cycles
    max_latency: Cycles

    def __init__(self, name: str, num_buckets: int = 24) -> None:
        self.name = name
        self.buckets: List[int] = [0] * num_buckets
        self.count = 0
        self.total = Cycles(0.0)
        self.max_latency = Cycles(0.0)

    def observe(self, latency: Cycles) -> None:
        if latency < 0:
            raise ValueError("negative latency")
        self.count += 1
        self.total += latency
        if latency > self.max_latency:
            self.max_latency = latency
        self.buckets[bucket_index(latency, len(self.buckets))] += 1

    def observe_batch(self, latencies: np.ndarray) -> None:
        """Record a batch of latencies, bit-identical to observing each.

        The aggregates replicate :meth:`observe`'s sequential updates
        exactly:

        * ``total``: ``np.cumsum`` is a strict left fold (unlike
          ``np.add.reduce``, which sums pairwise), so the cumulative sum
          of ``[total, l0, l1, ...]`` ends on exactly the value the
          sequential ``total += l`` loop produces.
        * ``max``: float max is order-independent.
        * buckets: for an integer-valued non-negative float ``x``,
          ``np.frexp(x)[1]`` equals ``int(x).bit_length()`` exactly
          (both count the position of the leading bit), so the batched
          bucketing reproduces :func:`bucket_index` lane for lane.
        """
        latencies = np.asarray(latencies, dtype=np.float64)
        if latencies.size == 0:
            return
        if bool(np.any(latencies < 0)):
            raise ValueError("negative latency")
        self.count += int(latencies.size)
        self.total = Cycles(
            float(np.cumsum(np.concatenate(([self.total], latencies)))[-1])
        )
        batch_max = float(np.max(latencies))
        if batch_max > self.max_latency:
            self.max_latency = Cycles(batch_max)
        truncated = latencies.astype(np.int64)
        exponents = np.where(
            truncated > 0, np.frexp(truncated.astype(np.float64))[1], 0
        )
        indices = np.minimum(exponents, len(self.buckets) - 1)
        counts = np.bincount(indices, minlength=len(self.buckets))
        for index, population in enumerate(counts):
            if population:
                self.buckets[index] += int(population)

    @property
    def mean(self) -> Cycles:
        if self.count == 0:
            return Cycles(0.0)
        return Cycles(self.total / self.count)
