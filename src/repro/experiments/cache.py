"""Content-addressed on-disk cache for experiment artefacts.

Traces and :class:`~repro.core.frontend.DesignRun` results are pure
functions of (workload, design point, simulator source), so they can be
persisted across processes and sessions.  Keys are SHA-256 digests over a
canonical JSON payload that always includes :func:`source_version` -- a
digest of every ``.py`` file in the ``repro`` package -- so editing the
simulator silently invalidates every stale entry instead of serving wrong
results.

The cache root resolves, in order: the explicit ``root`` argument, the
``REPRO_CACHE_DIR`` environment variable, then ``.repro-cache`` under the
current working directory.  Entries are pickle files sharded by the first
two hex digits of the key; stores are atomic (temp file + ``os.replace``)
so parallel workers never observe torn writes, and each entry embeds a
CRC32 checksum over its pickle payload so a corrupt or truncated file is
detected on load and counted as a miss (the value is recomputed and the
entry overwritten).

The cache is an accelerator, never a point of failure: a value that was
already computed must reach the caller even when persisting it fails.
:meth:`DiskCache.store_safe` (used by every runner call site) downgrades
store errors to a warning plus a ``stats.errors`` bump.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import struct
import tempfile
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

from repro.obs.tracer import span as _trace_span

_SOURCE_VERSION: Optional[str] = None

_MAGIC = b"RPC1"
"""Entry-format marker: magic + little-endian CRC32 + pickle payload."""
_HEADER = struct.Struct("<4sI")


def _frame(payload: bytes) -> bytes:
    """Wrap a pickle payload in the checksummed entry format."""
    return _HEADER.pack(_MAGIC, zlib.crc32(payload)) + payload


def _unframe(data: bytes) -> bytes:
    """Return the verified payload, raising ``ValueError`` on corruption.

    Entries from before the checksummed format (no magic) pass through
    unverified; their pickling layer still catches gross corruption.
    """
    if len(data) < _HEADER.size or not data.startswith(_MAGIC):
        return data
    _magic, checksum = _HEADER.unpack_from(data)
    payload = data[_HEADER.size:]
    if zlib.crc32(payload) != checksum:
        raise ValueError("cache entry failed its CRC32 check")
    return payload


def source_version() -> str:
    """Digest of the repro package's source tree (first 16 hex chars).

    Computed once per process over every ``*.py`` file (sorted by
    relative path, hashing path + contents) so any code change yields a
    new namespace of cache keys.
    """
    global _SOURCE_VERSION
    if _SOURCE_VERSION is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        # A per-process memo of a digest every process derives identically.
        _SOURCE_VERSION = digest.hexdigest()[:16]
    return _SOURCE_VERSION


@dataclass
class CacheStats:
    """Counters for one :class:`DiskCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of loads served from disk (0.0 when never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _canonical_payload(value: Any, path: str) -> Any:
    """Validate one cache-key payload value into canonical JSON form.

    Only process-independent values may reach the key digest: JSON
    scalars, finite floats, lists/tuples, and string-keyed mappings,
    recursively.  ``path`` names the offending location in the raised
    ``TypeError`` (e.g. ``payload.workload[2]``).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise TypeError(
                f"cache key payload at {path} is a non-finite float "
                f"({value!r}); keys must be reproducible across runs"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [
            _canonical_payload(item, f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cache key payload at {path} has a non-string "
                    f"mapping key {key!r}; canonical JSON requires "
                    "string keys"
                )
            out[key] = _canonical_payload(item, f"{path}.{key}")
        return out
    raise TypeError(
        f"cache key payload at {path} is {value!r} "
        f"(type {type(value).__name__}), which has no canonical JSON "
        "form; stringifying it would embed a per-process repr and "
        "silently miss the cache -- pass a scalar/list/dict instead"
    )


@dataclass
class DiskCache:
    """Pickle-backed content-addressed store under a root directory."""

    root: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.root is None:
            # Selects the store's location, never the content of any entry.
            env = os.environ.get("REPRO_CACHE_DIR")
            self.root = Path(env) if env else Path.cwd() / ".repro-cache"
        else:
            self.root = Path(self.root)

    def key(self, category: str, **payload: Any) -> str:
        """Content key: SHA-256 over category + source version + payload.

        Payload values must canonicalize to JSON -- scalars, lists/
        tuples, and string-keyed dicts, recursively.  Anything else is
        rejected with :class:`TypeError` rather than stringified: a
        ``default=str`` fallback would embed ``repr`` ids for plain
        objects, yielding a different key per process and a silent
        cache-miss storm under fan-out.
        """
        body = dict(payload)
        body["category"] = category
        body["source"] = source_version()
        canonical = json.dumps(
            _canonical_payload(body, "payload"),
            sort_keys=True,
            allow_nan=False,
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; corrupt entries count as misses.

        Corruption is detected twice over: the CRC32 embedded by
        :meth:`store` rejects truncated or bit-flipped payloads, and the
        unpickler rejects whatever a checksum-less legacy entry managed
        to hide.  Either way the entry reads as a miss (it will be
        recomputed and overwritten) and ``stats.errors`` records it.
        """
        path = self._path(key)
        with _trace_span("cache.load", key=key[:12]) as current:
            try:
                data = path.read_bytes()
                value = pickle.loads(_unframe(data))
            except FileNotFoundError:
                self.stats.misses += 1
                if current is not None:
                    current.attributes["outcome"] = "miss"
                return False, None
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ValueError, OSError):
                self.stats.errors += 1
                self.stats.misses += 1
                if current is not None:
                    current.attributes["outcome"] = "error"
                return False, None
            self.stats.hits += 1
            if current is not None:
                current.attributes["outcome"] = "hit"
            return True, value

    def store(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` (temp file + rename), checksummed.

        Raises on failure -- callers that must survive a failed store
        (any caller holding an already-computed value) go through
        :meth:`store_safe` instead.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with _trace_span("cache.store", key=key[:12]):
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            handle = tempfile.NamedTemporaryFile(
                mode="wb", dir=path.parent, suffix=".tmp", delete=False
            )
            try:
                with handle:
                    handle.write(_frame(payload))
                os.replace(handle.name, path)
            except BaseException:
                # The temp file may already be gone (``os.replace`` can
                # consume it and still fail, e.g. on a full or vanishing
                # filesystem); an unguarded unlink would then raise
                # FileNotFoundError and mask the original exception.
                with contextlib.suppress(OSError):
                    os.unlink(handle.name)
                raise
        self.stats.stores += 1

    def store_safe(self, key: str, value: Any) -> bool:
        """Persist ``value`` if possible; never raise.

        The graceful-degradation contract: a store failure costs future
        reuse, not the present result.  Returns whether the store
        succeeded; failures warn and bump ``stats.errors``.
        """
        try:
            self.store(key, value)
        except (OSError, pickle.PicklingError) as error:
            self.stats.errors += 1
            warnings.warn(
                f"cache store failed for key {key[:12]} ({error!r}); "
                "continuing with the computed value",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True

    # Introspection -----------------------------------------------------
    #
    # Parallel ``run_many`` workers replace entries (and other processes
    # may delete them) while the parent process reports cache
    # statistics, so every path listed here may vanish before (or while)
    # it is inspected; both methods treat a vanished file or shard
    # directory as simply absent.

    def _entry_paths(self) -> Iterator[Path]:
        """This cache's entries on disk now, tolerating concurrent deletion."""
        yield from _scan_suffix(self.root, ".pkl", depth=1)

    def entries(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self._entry_paths())

    def total_bytes(self) -> int:
        """Bytes occupied by all entries on disk."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except FileNotFoundError:
                continue
        return total


def _scan_suffix(base: Path, suffix: str, depth: int) -> Iterator[Path]:
    """Files under ``base`` (at most ``depth`` directory levels down)
    with ``suffix``, tolerating directories vanishing mid-scan.

    ``depth=1`` walks the shard layout (``root/ab/<key>.pkl``).
    """
    try:
        children = sorted(base.iterdir())
    except (FileNotFoundError, NotADirectoryError, OSError):
        return
    for child in children:
        if child.name.endswith(suffix):
            yield child
        elif depth > 0 and child.is_dir():
            yield from _scan_suffix(child, suffix, depth - 1)
