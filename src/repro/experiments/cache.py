"""Digest of the simulator's source tree.

Run manifests and ``bench/`` record :func:`source_version` next to
their numbers, so a result names the source it was computed from.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

_SOURCE_VERSION: Optional[str] = None


def source_version() -> str:
    """Digest of the repro package's source tree (first 16 hex chars).

    Computed once per process over every ``*.py`` file (sorted by
    relative path, hashing path + contents) so any code change yields a
    new version.
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
