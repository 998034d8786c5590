"""Tests for LOD / anisotropy footprint computation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.texture.lod import (
    ANGLE_LEVELS,
    ANGLE_STEP,
    NO_ANGLE,
    angle_codes,
    camera_angle_from_normal,
    compute_footprint,
    threshold_steps,
)


class TestComputeFootprint:
    def test_isotropic_unit_footprint(self):
        fp = compute_footprint(1.0, 0.0, 0.0, 1.0)
        assert fp.anisotropy == pytest.approx(1.0)
        assert fp.probes == 1
        assert fp.lod == pytest.approx(0.0)

    def test_minification_raises_lod(self):
        fp = compute_footprint(4.0, 0.0, 0.0, 4.0)
        assert fp.lod == pytest.approx(2.0)

    def test_anisotropic_ratio(self):
        fp = compute_footprint(8.0, 0.0, 0.0, 1.0)
        assert fp.anisotropy == pytest.approx(8.0)
        assert fp.probes == 8

    def test_probe_count_rounds_up_to_power_of_two(self):
        fp = compute_footprint(3.0, 0.0, 0.0, 1.0)
        assert fp.probes == 4

    def test_max_anisotropy_clamps(self):
        fp = compute_footprint(64.0, 0.0, 0.0, 1.0, max_anisotropy=4)
        assert fp.anisotropy == 4.0
        assert fp.probes == 4

    def test_lod_uses_minor_axis(self):
        # Major 8, minor 1: anisotropic filtering samples the fine mip.
        fp = compute_footprint(8.0, 0.0, 0.0, 1.0)
        assert fp.lod == pytest.approx(0.0)

    def test_major_axis_direction(self):
        fp = compute_footprint(0.0, 8.0, 1.0, 0.0)
        # x-derivative is (0, 8): major axis along v.
        assert abs(fp.major_dv) == pytest.approx(1.0)
        assert abs(fp.major_du) == pytest.approx(0.0)

    def test_major_length(self):
        fp = compute_footprint(6.0, 0.0, 0.0, 2.0)
        assert fp.major_length == pytest.approx(6.0)

    def test_lod_bias_shifts_lod(self):
        plain = compute_footprint(4.0, 0.0, 0.0, 4.0)
        biased = compute_footprint(4.0, 0.0, 0.0, 4.0, lod_bias=-1.0)
        assert biased.lod == pytest.approx(plain.lod - 1.0)

    def test_lod_never_negative(self):
        fp = compute_footprint(0.25, 0.0, 0.0, 0.25)
        assert fp.lod == 0.0

    def test_degenerate_footprint(self):
        fp = compute_footprint(0.0, 0.0, 0.0, 0.0)
        assert fp.probes == 1
        assert fp.anisotropy == 1.0

    def test_invalid_max_anisotropy(self):
        with pytest.raises(ValueError):
            compute_footprint(1.0, 0.0, 0.0, 1.0, max_anisotropy=0)

    @given(
        dudx=st.floats(-32, 32),
        dvdx=st.floats(-32, 32),
        dudy=st.floats(-32, 32),
        dvdy=st.floats(-32, 32),
    )
    def test_invariants_hold_for_any_derivatives(self, dudx, dvdx, dudy, dvdy):
        fp = compute_footprint(dudx, dvdx, dudy, dvdy)
        assert 1.0 <= fp.anisotropy <= 16.0
        assert fp.probes in (1, 2, 4, 8, 16)
        assert fp.probes >= fp.anisotropy or fp.probes == 16
        assert fp.lod >= 0.0
        assert fp.major_length >= 0.0

    @given(scale=st.floats(0.1, 16.0))
    def test_anisotropy_is_scale_invariant(self, scale):
        base = compute_footprint(8.0, 0.0, 0.0, 1.0)
        scaled = compute_footprint(8.0 * scale, 0.0, 0.0, 1.0 * scale)
        assert scaled.anisotropy == pytest.approx(base.anisotropy)


class TestCameraAngle:
    def test_face_on_is_zero(self):
        assert camera_angle_from_normal(0, 0, 1, 0, 0, 1) == pytest.approx(0.0)

    def test_grazing_approaches_half_pi(self):
        angle = camera_angle_from_normal(0, 1, 0, 1, 0.01, 0)
        assert angle > math.pi / 2 - 0.02

    def test_sign_insensitive(self):
        front = camera_angle_from_normal(0, 0, 1, 0, 0, 1)
        back = camera_angle_from_normal(0, 0, -1, 0, 0, 1)
        assert front == pytest.approx(back)

    def test_unnormalised_inputs_ok(self):
        a = camera_angle_from_normal(0, 0, 2, 3, 0, 3)
        b = camera_angle_from_normal(0, 0, 1, 1, 0, 1)
        assert a == pytest.approx(b)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            camera_angle_from_normal(0, 0, 0, 1, 0, 0)


class TestQuantizeAngle:
    """:func:`angle_codes` quantises an angle to its 7-bit tag code."""

    def test_zero_stays_zero(self):
        assert angle_codes(0.0) == 0

    def test_seven_bits_give_degree_accuracy(self):
        # Section VII-E: 7 bits quantise 90 degrees into 127 steps.
        step = (math.pi / 2) / 127
        assert step == ANGLE_STEP and ANGLE_LEVELS == 127 == 2**7 - 1
        assert angle_codes(10 * step + step / 4) == 10

    def test_clamps_to_half_pi(self):
        assert angle_codes(3.0) == angle_codes(math.pi / 2) == ANGLE_LEVELS

    def test_idempotent(self):
        code = angle_codes(0.3)
        assert angle_codes(code * ANGLE_STEP) == code

    @given(angle=st.floats(0, math.pi / 2))
    def test_error_bounded_by_half_step(self, angle):
        assert abs(angle_codes(angle) * ANGLE_STEP - angle) <= (
            ANGLE_STEP / 2 + 1e-12
        )

    def test_step_matches_documented_resolution(self):
        # The docstring's arithmetic: the [0, pi/2] range is divided into
        # 2**7 - 1 steps of 90/(2**7 - 1) ~= 0.71 degrees, so worst-case
        # rounding error is ~0.35 degrees -- inside the paper's ~1-degree
        # budget (and finer than a naive 180/2**7 reading would suggest).
        step_degrees = 90.0 / ((1 << 7) - 1)
        assert step_degrees == pytest.approx(0.7087, abs=1e-4)
        worst_error_degrees = step_degrees / 2
        assert worst_error_degrees == pytest.approx(0.3543, abs=1e-4)
        assert worst_error_degrees < 1.0
        step = math.radians(step_degrees)
        assert angle_codes(7 * step + 0.45 * step) == 7

    def test_validation(self):
        for bad in (-0.1, math.nan, np.array([0.1, -0.1]),
                    np.array([0.1, math.nan])):
            with pytest.raises(ValueError):
                angle_codes(bad)


class TestQuantizeAngles:
    """The array form equals the 0-d form element for element, and
    codes are int16, so differences do not wrap."""

    @given(angles=st.lists(st.floats(0, 4.0), max_size=40))
    def test_matches_scalar(self, angles):
        codes = angle_codes(np.array(angles, dtype=np.float64))
        assert codes.dtype == np.int16
        assert codes.tolist() == [int(angle_codes(a)) for a in angles]
        assert np.all((0 <= codes) & (codes <= ANGLE_LEVELS))

    @pytest.mark.parametrize("step", (1, 3, 7))
    def test_half_steps_round_half_even(self, step):
        # Halfway between two codes (where the quotient lands exactly on
        # the half), np.rint rounds to the even one.
        tie = (step + 0.5) * ANGLE_STEP
        code = int(angle_codes(tie))
        assert code in (step, step + 1)
        if tie / ANGLE_STEP == step + 0.5:
            assert code % 2 == 0
        assert angle_codes(np.array([tie])).tolist() == [code]


class TestThresholdSteps:
    """A threshold in radians as the step count the tags compare with."""

    def test_a_whole_number_of_steps_is_that_many(self):
        every = range(ANGLE_LEVELS + 1)
        assert [threshold_steps(k * ANGLE_STEP) for k in every] == list(every)

    @given(radians=st.floats(0, 4.0))
    def test_largest_step_count_at_or_below(self, radians):
        steps = threshold_steps(radians)
        assert 0 <= steps <= ANGLE_LEVELS
        assert steps * ANGLE_STEP <= radians
        if steps < ANGLE_LEVELS:
            assert (steps + 1) * ANGLE_STEP > radians

    def test_saturates_at_every_pair_of_tags(self):
        # No two tags differ by more than 127 steps, so 0.1pi at the x8
        # timing scale, pi (no recalculation) and inf all keep every pair.
        for radians in (0.1 * math.pi * 8, math.pi, math.inf):
            assert threshold_steps(radians) == ANGLE_LEVELS

    def test_paper_thresholds(self):
        # DESIGN.md section 5's table: the timing side at s = 8, and the
        # quality side unscaled.
        sweep = [0.005 * math.pi, 0.01 * math.pi, 0.05 * math.pi,
                 0.1 * math.pi, math.pi]
        assert [threshold_steps(t * 8) for t in sweep] == [10, 20, 101,
                                                           127, 127]
        assert [threshold_steps(t) for t in sweep] == [1, 2, 12, 25, 127]

    @given(
        stored=st.integers(0, ANGLE_LEVELS),
        code=st.integers(0, ANGLE_LEVELS),
        whole=st.one_of(st.integers(0, ANGLE_LEVELS), st.integers(0, 2100)),
        fraction=st.floats(0.2, 0.8),
    )
    def test_away_from_whole_steps_codes_decide_as_float_tags(
        self, stored, code, whole, fraction
    ):
        # The rule tags followed before they were codes, kept here only:
        # float tags q = code * step, reused iff abs(q_a - q_b) <= t.
        # At least 0.2 steps from a whole step count, the rules agree.
        threshold = (whole + fraction) * ANGLE_STEP
        float_rule = abs(stored * ANGLE_STEP - code * ANGLE_STEP) <= threshold
        assert (abs(stored - code) <= threshold_steps(threshold)) == float_rule

    @pytest.mark.parametrize("bad", (-1e-9, -1.0, math.nan))
    def test_negative_or_nan_rejected(self, bad):
        with pytest.raises(ValueError):
            threshold_steps(bad)

    def test_no_angle_is_beyond_every_threshold(self):
        # The no-tag code sits more steps from every code than any
        # threshold keeps, and fits the signed codes' dtype.
        codes = np.arange(ANGLE_LEVELS + 1, dtype=np.int16)
        assert np.abs(codes - np.int16(NO_ANGLE)).min() > ANGLE_LEVELS
        assert NO_ANGLE == 255
