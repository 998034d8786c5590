"""Canonical transcendental kernels shared by scalar and batched paths.

The SoA/bit-identical-oracle contract (``texture/batch.py`` and now the
SoA fragment stream in ``render/raster.py``) requires every batched
numpy expression to reproduce the scalar oracle bit for bit.  For the
REP401 ``_MATH_LAST_ULP`` transcendentals -- ``acos``, ``hypot``,
``log2`` -- that is impossible when the oracle calls libm: numpy's SIMD
kernels disagree with libm in the last ulp on a measured fraction of
inputs (~9% for acos, ~0.6% for hypot, ~0.03% for log2 on one
toolchain), and libm itself is not correctly rounded, so no cheap
per-lane recompute can reconcile the two.

The resolution is to *canonicalise on the numpy kernel*: both the
scalar oracle and the batch call the same ufunc, so the only question
left is whether a ufunc evaluated on a single element equals the same
ufunc evaluated inside a batch.  It does -- numpy ufunc results are
invariant to array size, offset, alignment and chunking (the SIMD and
scalar tails of one kernel implement the same polynomial), and
``tests/texture/test_npmath.py`` checks exactly this invariance.

Every function here has a ``*_batch`` twin that is the same ufunc
applied to arrays; calling the scalar form in a loop and the batch form
once are bit-identical by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "acos", "acos_batch",
    "hypot", "hypot_batch",
    "log2", "log2_batch",
]


def acos(x: float) -> float:
    """Arc cosine through ``np.arccos`` (the canonical kernel)."""
    return float(np.arccos(x))


def acos_batch(x: np.ndarray) -> np.ndarray:
    """Batched twin of :func:`acos`; bit-identical lane for lane."""
    return np.arccos(x)


def hypot(x: float, y: float) -> float:
    """Euclidean norm through ``np.hypot`` (the canonical kernel)."""
    return float(np.hypot(x, y))


def hypot_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched twin of :func:`hypot`; bit-identical lane for lane."""
    return np.hypot(x, y)


def log2(x: float) -> float:
    """Base-2 logarithm through ``np.log2`` (the canonical kernel)."""
    return float(np.log2(x))


def log2_batch(x: np.ndarray) -> np.ndarray:
    """Batched twin of :func:`log2`; bit-identical lane for lane."""
    return np.log2(x)
