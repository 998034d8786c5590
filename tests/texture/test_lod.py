"""Tests for LOD / anisotropy footprint computation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.texture.lod import (
    camera_angle_from_normal,
    compute_footprint,
    quantize_angle,
    quantize_angles,
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
    def test_zero_stays_zero(self):
        assert quantize_angle(0.0) == 0.0

    def test_seven_bits_give_degree_accuracy(self):
        # Section VII-E: 7 bits quantise 90 degrees into 127 steps.
        step = (math.pi / 2) / 127
        angle = 10 * step + step / 4
        assert quantize_angle(angle) == pytest.approx(10 * step)

    def test_clamps_to_half_pi(self):
        assert quantize_angle(3.0) == pytest.approx(math.pi / 2)

    def test_idempotent(self):
        value = quantize_angle(0.3)
        assert quantize_angle(value) == pytest.approx(value)

    @given(angle=st.floats(0, math.pi / 2))
    def test_error_bounded_by_half_step(self, angle):
        step = (math.pi / 2) / 127
        assert abs(quantize_angle(angle) - angle) <= step / 2 + 1e-12

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
        assert quantize_angle(7 * step + 0.45 * step) == pytest.approx(7 * step)

    def test_validation(self):
        with pytest.raises(ValueError):
            quantize_angle(-0.1)
        with pytest.raises(ValueError):
            quantize_angle(0.1, bits=0)
        with pytest.raises(ValueError):
            quantize_angles(np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            quantize_angles(np.array([0.1]), bits=0)


class TestQuantizeAngles:
    """The array form equals the scalar function element for element."""

    @given(
        angles=st.lists(st.floats(0, 4.0), max_size=40),
        bits=st.integers(1, 10),
    )
    def test_matches_scalar(self, angles, bits):
        batch = quantize_angles(np.array(angles, dtype=np.float64), bits)
        assert batch.tolist() == [quantize_angle(a, bits) for a in angles]

    @pytest.mark.parametrize("bits", (1, 3, 7))
    def test_half_steps_round_half_even(self, bits):
        step = (math.pi / 2) / ((1 << bits) - 1)
        ties = [(k + 0.5) * step for k in range((1 << bits) - 1)]
        batch = quantize_angles(np.array(ties), bits)
        assert batch.tolist() == [quantize_angle(a, bits) for a in ties]
