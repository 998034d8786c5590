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
* 7-bit tag codes (:func:`~repro.texture.lod.angle_codes`), drifting up
  to three steps per lookup along the stream;
* thresholds of 0 steps, a few steps, exactly a difference present in
  the stream, and the most a threshold can be (127 steps: pi, inf);
* empty and length-1 streams.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.texture.batch import reuse_producers
from repro.texture.lod import (
    ANGLE_LEVELS,
    ANGLE_STEP,
    angle_codes,
    threshold_steps,
)
from tests.reference import reuse_producers as reference_producers

key_pools = st.one_of(
    st.lists(st.integers(0, 90_000), min_size=1, max_size=50, unique=True),
    st.lists(st.integers(-32, 32), min_size=1, max_size=50, unique=True).map(
        lambda pool: [key * 2**57 for key in pool]
    ),
)


@st.composite
def streams(draw):
    """Keys and tag codes of a lookup stream, in request order."""
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
    return keys, angle_codes(levels * ANGLE_STEP)


@st.composite
def thresholds(draw, angles):
    """A step count of one of the kinds the module docstring lists."""
    kind = draw(st.sampled_from(["zero", "few", "difference", "most"]))
    if kind == "zero":
        return 0
    if kind == "few":
        return draw(st.integers(1, 6))
    if kind == "difference":
        first, second = draw(st.lists(
            st.sampled_from(angles.tolist()), min_size=2, max_size=2
        ))
        return abs(first - second)
    return ANGLE_LEVELS


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_producers_equal_the_per_lookup_loop(data):
    keys, angles = data.draw(streams())
    threshold = data.draw(thresholds(angles))
    assert np.array_equal(
        reuse_producers(keys, angles, threshold),
        reference_producers(keys, angles, threshold),
    )


def float_tag_producers(keys, codes, threshold):
    """The per-lookup loop under the rule tags followed before they were
    codes, kept here only: float tags ``q = code * ANGLE_STEP``, reused
    iff ``abs(q_stored - q) <= threshold`` (radians)."""
    producers = list(range(len(keys)))
    stored = {}
    for index, key, code in zip(producers, keys.tolist(), codes.tolist()):
        angle = code * ANGLE_STEP
        entry = stored.get(key)
        if entry is not None and abs(entry[1] - angle) <= threshold:
            producers[index] = entry[0]
        else:
            stored[key] = (index, angle)
    return np.array(producers, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_away_from_whole_steps_codes_decide_as_float_tags(data):
    """At least 0.2 steps from every whole step count -- as every
    threshold the report runs is -- the kernel's codes and step count
    decide every lookup as the float rule does."""
    keys, codes = data.draw(streams())
    whole = data.draw(st.one_of(st.integers(0, 8), st.integers(0, 2100)))
    threshold = (whole + data.draw(st.floats(0.2, 0.8))) * ANGLE_STEP
    assert np.array_equal(
        reuse_producers(keys, codes, threshold_steps(threshold)),
        float_tag_producers(keys, codes, threshold),
    )


@pytest.mark.parametrize("threshold", [0.0, ANGLE_STEP, math.inf])
def test_empty_and_single_lookup_streams(threshold):
    steps = threshold_steps(threshold)
    empty = reuse_producers(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int16), steps
    )
    assert empty.dtype == np.int64 and empty.shape == (0,)
    single = reuse_producers(np.array([7]), angle_codes([0.5]), steps)
    assert single.tolist() == [0]


def test_a_long_chain_runs_past_the_window():
    # One key whose code climbs a step per lookup: under a threshold
    # of one step, every other lookup recalculates.
    keys = np.zeros(41, dtype=np.int64)
    angles = np.arange(41, dtype=np.int16)
    producers = reuse_producers(keys, angles, 1)
    assert producers.tolist() == [index - index % 2 for index in range(41)]
    assert np.array_equal(producers, reference_producers(keys, angles, 1))


@pytest.mark.parametrize("threshold", [-0.01, math.nan])
def test_negative_or_nan_threshold_rejected(threshold):
    # The kernel reads a step count, and the step count of a negative or
    # NaN threshold is refused (NaN would fail no "< 0" test); a
    # negative step count is refused too.
    codes = angle_codes([0.1, 0.1])
    with pytest.raises(ValueError):
        reuse_producers(np.array([1, 1]), codes, threshold_steps(threshold))
    with pytest.raises(ValueError):
        reuse_producers(np.array([1, 1]), codes, -1)
