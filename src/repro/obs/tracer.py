"""Context-manager tracing spans over the reproduction's host-side phases.

A :class:`Span` records one named interval of *host* wall-clock work --
trace generation, a design-point simulation, a cache load -- with a
monotonic-clock duration, a wall-clock start for cross-process alignment,
nested parent/child structure, free-form attributes, and an optional
flattened :class:`~repro.sim.stats.StatGroup` snapshot attached at drain
time.  Simulated time (cycles) never flows through here; spans measure
the reproduction itself, which is why this module is exempt from the
REP102 wall-clock lint rule.

Tracing is **off by default** and must cost nothing when off: every
entry point checks one module-level flag and returns a preallocated
no-op context manager, so instrumented hot paths pay a single boolean
test per call.  Enable with the ``REPRO_TRACE=1`` environment variable
or :func:`set_tracing` (which also exports the variable so spawned
``ProcessPoolExecutor`` workers inherit the setting).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, TypeVar, Union

ENV_FLAG = "REPRO_TRACE"
"""Environment variable that switches tracing on (any value but ``0``)."""

_enabled: bool = os.environ.get(ENV_FLAG, "").strip() not in ("", "0")


def tracing_enabled() -> bool:
    """Whether spans are being recorded in this process."""
    return _enabled


def set_tracing(on: bool, propagate_env: bool = True) -> None:
    """Flip the module flag at runtime.

    With ``propagate_env`` (the default) the ``REPRO_TRACE`` variable is
    exported/cleared too, so pool workers started after the call trace
    (or don't) consistently with their parent.
    """
    global _enabled
    _enabled = bool(on)
    if propagate_env:
        if on:
            os.environ[ENV_FLAG] = "1"
        else:
            os.environ.pop(ENV_FLAG, None)


@dataclass
class Span:
    """One named, timed, possibly-nested interval of host work."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_wall: float
    """Wall-clock start (unix seconds) -- aligns spans across processes."""
    start: float
    """Monotonic-clock start (seconds); durations come from this clock."""
    duration: Optional[float] = None
    """Monotonic seconds from enter to exit; ``None`` while open."""
    attributes: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Optional[float]] = field(default_factory=dict)
    """Flattened StatGroup snapshot attached while the span was current."""
    children: List["Span"] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe recursive form (the manifest's span-tree schema)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "stats": dict(self.stats),
            "children": [child.as_dict() for child in self.children],
        }


class _NullSpan:
    """The shared do-nothing context manager handed out when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens/closes one span on its tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._begin(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type: object, exc: object, _tb: object) -> bool:
        span = self._span
        if span is not None:
            if exc is not None:
                span.attributes.setdefault("error", repr(exc))
            self._tracer._end(span)
        return False


class Tracer:
    """Records a forest of spans for one process.

    One module-level instance (:func:`get_tracer`) serves the whole
    process; pool workers reset their inherited copy and ship their
    span dictionaries back to the parent (see
    :meth:`~repro.experiments.runner.ExperimentRunner.run_many`).
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> Union[_SpanHandle, _NullSpan]:
        """A context manager recording ``name`` as a child of the current
        span; yields the :class:`Span` (or ``None`` when disabled)."""
        if not _enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, attributes)

    def _begin(self, name: str, attributes: Dict[str, Any]) -> Span:
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_wall=time.time(),
            start=time.monotonic(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.duration = time.monotonic() - span.start
        # Unwind to (and including) the span; tolerates a child left
        # open by an exception that skipped its __exit__.
        while self._stack:
            if self._stack.pop() is span:
                break

    def event(self, name: str, **attributes: Any) -> Optional[Span]:
        """Record an instantaneous (zero-duration) span.

        Point-in-time markers -- a retry scheduled, a pool rebuilt, a
        task degraded -- share the span tree's structure (they nest
        under the current span) without needing enter/exit pairing.
        """
        if not _enabled:
            return None
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_wall=time.time(),
            start=time.monotonic(),
            duration=0.0,
            attributes=dict(attributes),
        )
        self._next_id += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the current span (no-op when disabled)."""
        span = self.current()
        if span is not None:
            span.attributes.update(attributes)

    def attach_stats(self, stats: Union[Mapping[str, Any],
                                        Iterable[Tuple[str, float]], Any],
                     prefix: str = "") -> None:
        """Attach a flattened statistics snapshot to the current span.

        Accepts a :class:`~repro.sim.stats.StatGroup` (anything with a
        ``flatten()`` method), a mapping, or an iterable of ``(path,
        value)`` pairs.  No-op when disabled or outside any span.
        """
        span = self.current()
        if span is None:
            return
        if hasattr(stats, "flatten"):
            items: Iterable[Tuple[str, float]] = stats.flatten()
        elif isinstance(stats, Mapping):
            items = stats.items()
        else:
            items = stats
        for key, value in items:
            span.stats[f"{prefix}{key}"] = None if value is None else float(value)

    # -- draining -------------------------------------------------------

    def as_dicts(self) -> List[Dict[str, Any]]:
        """The recorded span forest as JSON-safe dictionaries."""
        return [span.as_dict() for span in self.roots]

    def reset(self) -> None:
        """Drop all recorded spans and any open stack."""
        self.roots = []
        self._stack = []
        self._next_id = 1


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _TRACER


def span(name: str, **attributes: Any) -> Union[_SpanHandle, _NullSpan]:
    """Module-level shorthand for ``get_tracer().span(...)``.

    Zero-overhead when disabled: one flag test, one preallocated no-op
    object returned.
    """
    if not _enabled:
        return _NULL_SPAN
    return _TRACER.span(name, **attributes)


def annotate(**attributes: Any) -> None:
    """Attach attributes to the current span, if tracing and in a span."""
    if _enabled:
        _TRACER.annotate(**attributes)


def event(name: str, **attributes: Any) -> Optional[Span]:
    """Record an instantaneous marker span (no-op when disabled)."""
    if not _enabled:
        return None
    return _TRACER.event(name, **attributes)


def attach_stats(stats: Any, prefix: str = "") -> None:
    """Attach a StatGroup/mapping snapshot to the current span."""
    if _enabled:
        _TRACER.attach_stats(stats, prefix=prefix)


def reset_tracer() -> None:
    """Clear the process-wide tracer (pool workers call this before each
    task: a worker runs several tasks, and each task returns only its
    own span forest)."""
    _TRACER.reset()


_F = TypeVar("_F", bound=Callable[..., Any])


def timed_stage(name_or_fn: Union[str, None, _F] = None) -> Any:
    """Decorator giving a function a span for free.

    Usable bare or with an explicit span name::

        @timed_stage
        def drain(...): ...

        @timed_stage("report.figures")
        def assemble_figures(...): ...

    When tracing is disabled the wrapper is a single boolean test and a
    direct call -- instrumented code need not guard itself.
    """

    def decorate(fn: _F, span_name: str) -> _F:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return fn(*args, **kwargs)
            with _TRACER.span(span_name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    if callable(name_or_fn):
        fn = name_or_fn
        return decorate(fn, f"{fn.__module__}.{fn.__qualname__}")

    explicit = name_or_fn

    def outer(fn: _F) -> _F:
        return decorate(fn, explicit or f"{fn.__module__}.{fn.__qualname__}")

    return outer
