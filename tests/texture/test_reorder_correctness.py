"""Property-based proof of the paper's section V-B claim.

A-TFIM reorders texture filtering to run anisotropic *first* (averaging
each parent texel's probe-displaced children in memory) and bilinear /
trilinear afterwards.  Eq. (3) argues the output color is unchanged
because the nested weighted averages commute.  That holds in exact
arithmetic; in floating point the two orders add the same terms in a
different order and round differently, so results differ in the last
bits (at most 3.3e-16 per channel on the fast set's frames).  These
tests assert the claim to ``atol=1e-12`` over randomized textures,
sample positions and footprints -- the paper's "our simulation results
also confirm the correctness of the output texture", up to rounding.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.texture.lod import compute_footprint
from repro.texture.mipmap import build_mipmaps
from repro.texture.sampling import (
    anisotropic_first_sample,
    anisotropic_sample,
    trilinear_sample,
)
from repro.texture.texture import Texture


def chain_from_seed(seed: int, size: int = 32):
    rng = np.random.default_rng(seed)
    return build_mipmaps(
        Texture(texture_id=0, data=rng.random((size, size, 4)))
    )


footprints = st.builds(
    compute_footprint,
    st.floats(-16.0, 16.0),
    st.floats(-16.0, 16.0),
    st.floats(-16.0, 16.0),
    st.floats(-16.0, 16.0),
)


class TestReorderEquality:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 31),
        u=st.floats(0.0, 32.0),
        v=st.floats(0.0, 32.0),
        footprint=footprints,
    )
    def test_reordered_equals_conventional(self, seed, u, v, footprint):
        chain = chain_from_seed(seed)
        conventional = anisotropic_sample(chain, footprint, u, v)
        reordered = anisotropic_first_sample(chain, footprint, u, v)
        np.testing.assert_allclose(reordered, conventional, rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        u=st.floats(0.0, 32.0),
        v=st.floats(0.0, 32.0),
        lod=st.floats(0.0, 4.0),
    )
    def test_isotropic_footprint_reduces_to_trilinear(self, u, v, lod):
        chain = chain_from_seed(7)
        minor = 2.0 ** lod
        footprint = compute_footprint(minor, 0.0, 0.0, minor)
        conventional = anisotropic_sample(chain, footprint, u, v)
        plain = trilinear_sample(chain, footprint.lod, u, v)
        np.testing.assert_allclose(conventional, plain, atol=1e-12)

    def test_equality_on_structured_texture(self):
        # A hard case: a high-contrast checker where any mis-weighting
        # of taps would be visible immediately.
        data = np.zeros((16, 16, 4))
        data[::2, ::2] = 1.0
        data[1::2, 1::2] = 1.0
        chain = build_mipmaps(Texture(texture_id=0, data=data))
        footprint = compute_footprint(8.0, 2.0, 0.5, 1.0)
        for u, v in [(3.1, 4.9), (0.0, 0.0), (15.99, 15.99), (7.5, 7.5)]:
            conventional = anisotropic_sample(chain, footprint, u, v)
            reordered = anisotropic_first_sample(chain, footprint, u, v)
            np.testing.assert_allclose(reordered, conventional, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 15),
        u=st.floats(0.0, 32.0),
        v=st.floats(0.0, 32.0),
        footprint=footprints,
    )
    def test_colors_stay_in_unit_range(self, seed, u, v, footprint):
        # Filtering is a convex combination: outputs can never leave the
        # input range.
        chain = chain_from_seed(seed)
        color = anisotropic_first_sample(chain, footprint, u, v)
        assert np.all(color >= -1e-12)
        assert np.all(color <= 1.0 + 1e-12)
