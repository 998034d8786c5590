"""Property tests: the array reuse decision against the per-lookup loop.

:func:`repro.texture.batch.reuse_producers` advances every key's chain
of recalculations in array rounds; :func:`tests.reference.reuse_producers`
walks the lookups one at a time through a dict.  Their producers must be
equal element for element.  The streams cover:

* 1-50 distinct keys, in runs of up to 40 lookups of one key, so a key
  can hit twice in a row (a request's wrapped taps) and a chain can run
  past the kernel's window of lookups per round;
* keys packed near zero and keys spread across the int64 range (too wide
  to pack with the lookup index, so sorted by a stable argsort);
* angles on the 7-bit :func:`~repro.texture.lod.quantize_angles` grid,
  drifting up to three steps per lookup along the stream;
* thresholds of 0, between two grid steps, exactly equal to a
  difference present in the stream, pi, and inf;
* empty and length-1 streams.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.texture.batch import reuse_producers
from repro.texture.lod import quantize_angles
from tests.reference import reuse_producers as reference_producers

ANGLE_STEP = (math.pi / 2.0) / 127
"""One step of the 7-bit camera-angle quantiser."""

key_pools = st.one_of(
    st.lists(st.integers(0, 90_000), min_size=1, max_size=50, unique=True),
    st.lists(st.integers(-32, 32), min_size=1, max_size=50, unique=True).map(
        lambda pool: [key * 2**57 for key in pool]
    ),
)


@st.composite
def streams(draw):
    """Keys and grid angles of a lookup stream, in request order."""
    pool = draw(key_pools)
    runs = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 40)),
        min_size=1, max_size=60,
    ))
    keys = np.array(
        [key for key, length in runs for _ in range(length)], dtype=np.int64
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drift = np.cumsum(rng.integers(-3, 4, size=len(keys)))
    levels = np.clip(draw(st.integers(0, 127)) + drift, 0, 127)
    return keys, quantize_angles(levels * ANGLE_STEP)


@st.composite
def thresholds(draw, angles):
    """A threshold of one of the kinds the module docstring lists."""
    kind = draw(st.sampled_from(
        ["zero", "between", "difference", "pi", "inf"]
    ))
    if kind == "zero":
        return 0.0
    if kind == "between":
        return (draw(st.integers(0, 6)) + 0.5) * ANGLE_STEP
    if kind == "difference":
        first, second = draw(st.lists(
            st.sampled_from(angles.tolist()), min_size=2, max_size=2
        ))
        return abs(first - second)
    return math.pi if kind == "pi" else math.inf


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_producers_equal_the_per_lookup_loop(data):
    keys, angles = data.draw(streams())
    threshold = data.draw(thresholds(angles))
    assert np.array_equal(
        reuse_producers(keys, angles, threshold),
        reference_producers(keys, angles, threshold),
    )


@pytest.mark.parametrize("threshold", [0.0, ANGLE_STEP, math.inf])
def test_empty_and_single_lookup_streams(threshold):
    empty = reuse_producers(
        np.empty(0, dtype=np.int64), np.empty(0), threshold
    )
    assert empty.dtype == np.int64 and empty.shape == (0,)
    single = reuse_producers(np.array([7]), np.array([0.5]), threshold)
    assert single.tolist() == [0]


def test_a_long_chain_runs_past_the_window():
    # One key whose angle climbs a step per lookup: under a threshold
    # between one and two steps, every other lookup recalculates.
    keys = np.zeros(41, dtype=np.int64)
    angles = quantize_angles(np.arange(41) * ANGLE_STEP)
    producers = reuse_producers(keys, angles, 1.5 * ANGLE_STEP)
    assert producers.tolist() == [index - index % 2 for index in range(41)]
    assert np.array_equal(
        producers, reference_producers(keys, angles, 1.5 * ANGLE_STEP)
    )


@pytest.mark.parametrize("threshold", [-0.01, math.nan])
def test_negative_or_nan_threshold_rejected(threshold):
    # NaN fails no "< 0" test, and the loop would recalculate every
    # lookup under it while simulate_frame would reuse every one.
    with pytest.raises(ValueError):
        reuse_producers(np.array([1, 1]), np.array([0.1, 0.1]), threshold)
