"""Tests for the camera-angle threshold definitions."""

import math

import numpy as np
import pytest

from repro.core.angle import (
    DEFAULT_THRESHOLD,
    THRESHOLD_001PI,
    THRESHOLD_005PI,
    THRESHOLD_0005PI,
    THRESHOLD_NO_RECALC,
    THRESHOLD_SWEEP,
    AngleThreshold,
)
from repro.texture.batch import reuse_producers
from repro.texture.lod import ANGLE_STEP, angle_codes, threshold_steps


class TestAngleThreshold:
    def test_default_is_001pi(self):
        assert DEFAULT_THRESHOLD is THRESHOLD_001PI
        assert DEFAULT_THRESHOLD.radians == pytest.approx(0.01 * math.pi)
        # The paper calls this 1.8 degrees.
        assert DEFAULT_THRESHOLD.degrees == pytest.approx(1.8)

    def test_0005pi_is_09_degrees(self):
        assert THRESHOLD_0005PI.degrees == pytest.approx(0.9)

    def test_005pi_is_9_degrees(self):
        assert THRESHOLD_005PI.degrees == pytest.approx(9.0)

    def test_no_recalc_has_no_finite_threshold(self):
        assert THRESHOLD_NO_RECALC.radians is None
        assert THRESHOLD_NO_RECALC.degrees is None
        assert THRESHOLD_NO_RECALC.effective_radians == math.pi

    def test_sweep_ordered_strictest_first(self):
        values = [threshold.effective_radians for threshold in THRESHOLD_SWEEP]
        assert values == sorted(values)
        assert len(THRESHOLD_SWEEP) == 5

    def test_labels_match_paper(self):
        labels = [threshold.label for threshold in THRESHOLD_SWEEP]
        assert labels == [
            "A-TFIM-0005pi",
            "A-TFIM-001pi",
            "A-TFIM-005pi",
            "A-TFIM-01pi",
            "A-TFIM-no",
        ]

    def test_str(self):
        assert str(THRESHOLD_001PI) == "A-TFIM-001pi"


class TestDegreeRadianRoundTrips:
    def test_every_finite_threshold_round_trips(self):
        for threshold in THRESHOLD_SWEEP:
            if threshold.radians is None:
                continue
            assert math.radians(threshold.degrees) == pytest.approx(
                threshold.radians
            )
            assert math.degrees(threshold.radians) == pytest.approx(
                threshold.degrees
            )

    def test_zero_degrees_is_zero_radians(self):
        zero = AngleThreshold(label="zero", radians=0.0)
        assert zero.degrees == pytest.approx(0.0)
        assert zero.effective_radians == 0.0

    def test_ninety_degrees_is_half_pi(self):
        right = AngleThreshold(label="right", radians=math.pi / 2)
        assert right.degrees == pytest.approx(90.0)
        assert math.radians(right.degrees) == pytest.approx(math.pi / 2)


def reuse_allowed(threshold, stored, angle):
    """Whether a parent filtered at camera angle ``stored`` is reused for
    a pixel at ``angle`` (radians): the production reuse kernel's rule,
    on the two angles' tag codes and the threshold's step count."""
    codes = angle_codes(np.array([stored, angle]))
    steps = threshold_steps(threshold.effective_radians)
    return reuse_producers(np.zeros(2, dtype=np.int64), codes, steps)[1] == 0


BASE = 0.3
"""A camera angle (radians) the differences below start from."""


class TestReusePredicate:
    """Section V-C's reuse test: the stored and requesting angles' codes
    may differ by at most the threshold's step count."""

    def test_difference_within_threshold_reuses(self):
        assert reuse_allowed(DEFAULT_THRESHOLD, BASE, BASE + 0.005 * math.pi)

    def test_difference_beyond_threshold_recalculates(self):
        assert not reuse_allowed(DEFAULT_THRESHOLD, BASE,
                                 BASE + 0.02 * math.pi)

    def test_boundary_difference_reuses(self):
        # Exactly the threshold's step count apart: reuse (the check is
        # <=).  0.01pi is 2.54 steps, so codes 2 apart reuse, 3 do not.
        assert threshold_steps(DEFAULT_THRESHOLD.radians) == 2
        assert reuse_allowed(DEFAULT_THRESHOLD, 24 * ANGLE_STEP,
                             26 * ANGLE_STEP)
        assert not reuse_allowed(DEFAULT_THRESHOLD, 24 * ANGLE_STEP,
                                 27 * ANGLE_STEP)

    def test_zero_difference_always_reuses(self):
        for threshold in THRESHOLD_SWEEP:
            assert reuse_allowed(threshold, BASE, BASE)

    def test_sign_of_difference_does_not_matter(self):
        assert reuse_allowed(DEFAULT_THRESHOLD, BASE + 0.005 * math.pi, BASE)
        assert not reuse_allowed(DEFAULT_THRESHOLD, BASE + 0.02 * math.pi,
                                 BASE)

    def test_zero_threshold_only_reuses_identical_angles(self):
        # Identical codes: angles within one quantisation step's rounding.
        zero = AngleThreshold(label="zero", radians=0.0)
        assert reuse_allowed(zero, BASE, BASE)
        assert reuse_allowed(zero, BASE, BASE + 1e-9)
        assert not reuse_allowed(zero, 24 * ANGLE_STEP, 25 * ANGLE_STEP)

    def test_no_recalculation_reuses_everything(self):
        for stored, angle in ((0.0, math.pi / 2), (math.pi / 2, 0.0),
                              (BASE, 1.2), (0.0, 0.0)):
            assert reuse_allowed(THRESHOLD_NO_RECALC, stored, angle)

    def test_strictness_ordering(self):
        # A difference of 2 degrees (codes 3 apart here): rejected by the
        # two strictest settings (1 and 2 steps), accepted by the looser
        # ones.
        difference = math.radians(2.0)
        decisions = [
            reuse_allowed(threshold, BASE, BASE + difference)
            for threshold in THRESHOLD_SWEEP
        ]
        assert decisions == [False, False, True, True, True]
