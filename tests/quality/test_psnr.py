"""Tests for PSNR (the paper's quality metric)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.quality import PSNR_IDENTICAL_CAP, mse, psnr
from repro.quality.psnr import IMPERCEPTIBLE_PSNR


def make_image(seed=0, shape=(16, 16, 3)):
    return np.random.default_rng(seed).random(shape)


class TestMse:
    def test_identical_is_zero(self):
        image = make_image()
        assert mse(image, image) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.5)
        assert mse(a, b) == pytest.approx(0.25)

    def test_symmetry(self):
        a, b = make_image(1), make_image(2)
        assert mse(a, b) == pytest.approx(mse(b, a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((0, 2)), np.zeros((0, 2)))


class TestPsnr:
    def test_identical_capped_at_99(self):
        # The paper: "the PSNR of the baseline is 99 (comparing two
        # identical images)".
        image = make_image()
        assert psnr(image, image) == PSNR_IDENTICAL_CAP

    def test_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        # mse = 0.01 -> psnr = 10 * log10(1/0.01) = 20 dB.
        assert psnr(a, b) == pytest.approx(20.0)

    def test_more_noise_lower_psnr(self):
        reference = make_image(3)
        small = reference + 0.001
        large = np.clip(reference + 0.1, 0, 1)
        assert psnr(reference, small) > psnr(reference, large)

    @given(scale=st.floats(1e-4, 0.5))
    def test_monotone_in_uniform_error(self, scale):
        reference = np.full((8, 8), 0.5)
        less = psnr(reference, reference + scale / 2)
        more = psnr(reference, reference + scale)
        assert less >= more

    def test_imperceptible_threshold_documented(self):
        assert IMPERCEPTIBLE_PSNR == 70.0

    def test_tiny_error_capped(self):
        image = make_image()
        almost = image + 1e-12
        assert psnr(image, almost) == PSNR_IDENTICAL_CAP

    def test_peak_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)

