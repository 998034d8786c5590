"""Batch invariance of the canonical transcendental kernels.

The scalar oracles and the batched paths both call the numpy ufuncs in
:mod:`repro.texture.npmath` (``np.arccos``, ``np.hypot``, ``np.log2``),
never libm.  libm would not do: on one toolchain numpy's kernels differ
from it by one ulp on ~9 % of ``acos`` inputs, ~0.6 % of ``hypot``
inputs and ~0.03 % of ``log2`` inputs.  Sharing the ufunc is sound only
if it gives the same bits for an element evaluated alone as for the same
element inside a batch, at any offset.  These tests check exactly that
on a fixed-seed sample.
"""

import numpy as np
import pytest

from repro.texture import npmath

SEED = 20170204
SAMPLES = 20_000
OFFSETS = (1, 3, 17)

KERNELS = {
    "acos": (np.arccos, npmath.acos, npmath.acos_batch),
    "hypot": (np.hypot, npmath.hypot, npmath.hypot_batch),
    "log2": (np.log2, npmath.log2, npmath.log2_batch),
}


def _columns(name):
    """The kernel's inputs: each draws from the range its call sites see."""
    rng = np.random.default_rng(SEED)
    unit = rng.uniform(-1.0, 1.0, size=SAMPLES)
    gradients = rng.uniform(-64.0, 64.0, size=(2, SAMPLES))
    positive = np.exp(rng.uniform(-12.0, 12.0, size=SAMPLES))
    return {
        "acos": (unit,),
        "hypot": (gradients[0], gradients[1]),
        "log2": (positive,),
    }[name]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBatchInvariance:
    def test_batch_twin_is_the_ufunc(self, name):
        ufunc, _scalar, batch = KERNELS[name]
        columns = _columns(name)
        np.testing.assert_array_equal(
            _bits(batch(*columns)), _bits(ufunc(*columns))
        )

    def test_element_by_element_matches_full_batch(self, name):
        ufunc, scalar, _batch = KERNELS[name]
        columns = _columns(name)
        full = ufunc(*columns)
        one_at_a_time = [
            scalar(*(float(column[index]) for column in columns))
            for index in range(SAMPLES)
        ]
        np.testing.assert_array_equal(_bits(one_at_a_time), _bits(full))

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_offset_sub_batch_matches_full_batch(self, name, offset):
        ufunc, _scalar, _batch = KERNELS[name]
        columns = _columns(name)
        full = ufunc(*columns)
        chunk = ufunc(*(column[offset:] for column in columns))
        np.testing.assert_array_equal(_bits(chunk), _bits(full[offset:]))
