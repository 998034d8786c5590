"""Counters, accumulators and hierarchical statistic groups."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple


@dataclass
class Counter:
    """A named monotonically increasing event counter."""

    name: str
    value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        # Non-finite amounts must be rejected explicitly: ``nan < 0`` is
        # False, so the sign guard alone would let NaN poison ``value``
        # for every later report.
        if not math.isfinite(amount):
            raise ValueError(f"{self.name}: non-finite amount {amount!r}")
        if amount < 0:
            raise ValueError(f"{self.name}: counters only increase")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


@dataclass
class Accumulator:
    """Running sum / count / min / max over observed samples."""

    name: str
    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, sample: float) -> None:
        # NaN slips through ordered comparisons (every one is False): it
        # would leave ``minimum``/``maximum`` at their +/-inf identities
        # while ``count > 0``, so ``flatten()`` would leak ``inf`` into
        # reports; +/-inf samples would put inf in ``total``/``mean``.
        if not math.isfinite(sample):
            raise ValueError(f"{self.name}: non-finite sample {sample!r}")
        self.count += 1
        self.total += sample
        if sample < self.minimum:
            self.minimum = sample
        if sample > self.maximum:
            self.maximum = sample

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def minimum_or_none(self) -> Optional[float]:
        """The observed minimum, or ``None`` before any sample.

        The raw ``minimum`` field is the +inf identity element until the
        first observation; reports must use this accessor so that empty
        accumulators serialize as ``null`` instead of leaking ``inf``
        into JSON (which json.dumps renders as the non-standard
        ``Infinity``).
        """
        return self.minimum if self.count else None

    @property
    def maximum_or_none(self) -> Optional[float]:
        """The observed maximum, or ``None`` before any sample."""
        return self.maximum if self.count else None

    def as_dict(self) -> Dict[str, Optional[float]]:
        """JSON-safe summary; empty accumulators report null bounds."""
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum_or_none,
            "max": self.maximum_or_none,
        }

    def merge(self, other: "Accumulator") -> None:
        """Fold another accumulator's samples into this one.

        Merging an empty accumulator (in either direction) is a no-op on
        the bounds: the +/-inf identity fields never contaminate the
        merged minimum/maximum.
        """
        self.count += other.count
        self.total += other.total
        if other.count:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")


class StatGroup:
    """A named tree of counters and accumulators.

    Components register their statistics into a group; groups nest, and
    the whole tree can be flattened into dotted-path / value pairs for
    reporting (mirroring how ATTILA-sim dumps its per-box statistics).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._accumulators: Dict[str, Accumulator] = {}
        self._children: Dict[str, "StatGroup"] = {}

    def counter(self, name: str) -> Counter:
        """Get or create a counter local to this group."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def accumulator(self, name: str) -> Accumulator:
        """Get or create an accumulator local to this group."""
        if name not in self._accumulators:
            self._accumulators[name] = Accumulator(name)
        return self._accumulators[name]

    def child(self, name: str) -> "StatGroup":
        """Get or create a nested group."""
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    def adopt(self, group: "StatGroup") -> "StatGroup":
        """Attach an existing group as a child under its own name.

        Snapshot builders (:mod:`repro.obs.snapshot`) assemble trees
        from groups produced by different components; ``adopt`` grafts
        them without copying, replacing any same-named child.
        """
        self._children[group.name] = group
        return group

    def flatten(self, prefix: str = "") -> Iterator[Tuple[str, float]]:
        """Yield ``(dotted.path, value)`` pairs for the whole subtree.

        Accumulators contribute their mean under ``<name>.mean`` plus the
        sample count under ``<name>.count``; non-empty accumulators also
        contribute ``<name>.min`` / ``<name>.max`` (empty ones omit them
        rather than emitting the +/-inf identity values).
        """
        base = f"{prefix}{self.name}"
        for counter in self._counters.values():
            yield f"{base}.{counter.name}", counter.value
        for acc in self._accumulators.values():
            yield f"{base}.{acc.name}.mean", acc.mean
            yield f"{base}.{acc.name}.count", float(acc.count)
            if acc.count:
                yield f"{base}.{acc.name}.min", acc.minimum
                yield f"{base}.{acc.name}.max", acc.maximum
        for child in self._children.values():
            yield from child.flatten(prefix=f"{base}.")

    def as_dict(self) -> Dict[str, float]:
        return dict(self.flatten())

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for acc in self._accumulators.values():
            acc.reset()
        for child in self._children.values():
            child.reset()
