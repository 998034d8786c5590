"""Bit-identity tests: batched kernels vs the scalar oracle.

Every comparison here is exact, not ``allclose``: the batch kernels
promise the same IEEE-754 operations in the same order as the scalar
reference, and these tests are that promise's enforcement, over edge
UVs, wrap-around coordinates, clamped LODs, single-level mip chains, and
whole rendered frames.  ``np.array_equal`` calls -0.0 equal to 0.0, so
the hypothesis property (:class:`TestKernelBitParity`) compares the
bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import InvariantError, check_batch_scalar_parity
from repro.core.angle import THRESHOLD_SWEEP
from repro.render.renderer import Renderer, SamplingMode
from repro.texture import batch as batch_kernels
from repro.texture.batch import (
    BatchFetchRecorder,
    BatchSampler,
    anisotropic_batch,
    anisotropic_first_batch,
    bilinear_batch,
    filter_parent_batch,
    isotropic_batch,
    level_blend_arrays,
    parent_texel_arrays,
    probe_offset_matrix,
)
from repro.texture.lod import SampleFootprint, compute_footprint
from repro.texture.mipmap import build_mipmaps
from repro.texture.sampling import (
    _FetchRecorder,
    anisotropic_first_sample,
    anisotropic_sample,
    bilinear_sample,
    filter_parent_texel,
    level_blend_for,
    parent_texel_coords,
    probe_offsets,
    trilinear_sample,
)
from repro.texture.texture import Texture
from repro.workloads import workload_by_name
from tests.conftest import NO_SHRINK, make_tiny_scene
from tests.reference import ScalarRasterizer, ScalarRenderer, request_batch


def make_chain(size=16, seed=5, texture_id=0):
    rng = np.random.default_rng(seed)
    data = rng.random((size, size, 4))
    return build_mipmaps(Texture(texture_id=texture_id, data=data))


def footprint(probes=4, lod=0.5, direction=(1.0, 0.0)):
    minor = 2.0 ** lod
    major = minor * probes
    du, dv = direction
    return compute_footprint(major * du, major * dv, -minor * dv, minor * du)


# Awkward sample positions for a 16x16 level-0 texture: corners, texel
# centres, exact wrap seams, beyond-width (wraps), and negative (wraps).
EDGE_UVS = [
    (0.0, 0.0),
    (0.5, 0.5),
    (15.5, 15.5),
    (16.0, 16.0),
    (17.3, 31.9),
    (-2.7, 5.1),
    (7.999999, 1e-06),
    (8.0, 8.0),
]

LODS = [0.0, 0.25, 1.0, 1.5, 2.0, 3.75, -1.0, 99.0]


class TestLevelBlendArrays:
    def test_matches_scalar_blend(self):
        chain = make_chain()
        low, high, weight = level_blend_arrays(chain, np.array(LODS))
        for i, lod in enumerate(LODS):
            blend = level_blend_for(chain, lod)
            assert low[i] == blend.level_low
            assert high[i] == blend.level_high
            assert weight[i] == blend.weight


class TestProbeOffsetArrays:
    """:func:`probe_offset_matrix`: row ``r``, column ``i`` is probe ``i``
    of :func:`probe_offsets` at row ``r``'s level."""

    @pytest.mark.parametrize("probes", [1, 2, 4, 8, 16])
    def test_matches_scalar_offsets(self, probes):
        fp = footprint(probes=probes, lod=1.0, direction=(0.6, 0.8))
        levels = np.array([0, 1, 2, 0, 4], dtype=np.int64)
        dx, dy = probe_offset_matrix(
            levels,
            np.full(len(levels), fp.major_du),
            np.full(len(levels), fp.major_dv),
            np.full(len(levels), fp.major_length),
            probes,
        )
        assert dx.shape == dy.shape == (len(levels), probes)
        for row, level in enumerate(levels.tolist()):
            scalar = probe_offsets(fp, level)
            assert list(zip(dx[row].tolist(), dy[row].tolist())) == list(scalar)


class TestBilinearBatch:
    @pytest.mark.parametrize("level", [0, 1, 2, 4, 9])
    def test_bit_identical_over_edge_uvs(self, level):
        chain = make_chain()
        us = np.array([u for u, _ in EDGE_UVS])
        vs = np.array([v for _, v in EDGE_UVS])
        batch_colors = bilinear_batch(
            chain, np.full(len(us), level, dtype=np.int64), us, vs
        )
        scalar_colors = np.array(
            [bilinear_sample(chain, level, u, v) for u, v in EDGE_UVS]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_mixed_levels_one_call(self):
        chain = make_chain()
        levels = np.array([0, 1, 2, 3, 4, 0, 2, 1], dtype=np.int64)
        us = np.array([u for u, _ in EDGE_UVS])
        vs = np.array([v for _, v in EDGE_UVS])
        batch_colors = bilinear_batch(chain, levels, us, vs)
        scalar_colors = np.array(
            [
                bilinear_sample(chain, int(level), u, v)
                for level, (u, v) in zip(levels, EDGE_UVS)
            ]
        )
        assert np.array_equal(batch_colors, scalar_colors)


def _batch_of(footprints, uvs):
    return request_batch(footprints, [u for u, _ in uvs], [v for _, v in uvs])


class TestTrilinearBatch:
    def test_bit_identical_over_lods_and_edge_uvs(self):
        chain = make_chain()
        cases = [(lod, uv) for lod in LODS for uv in EDGE_UVS]
        fps = [footprint(probes=1, lod=max(lod, 0.0)) for lod, _ in cases]
        # Force the exact LOD values (including negative/overflow).
        batch = _batch_of(fps, [uv for _, uv in cases])
        batch.lod[:] = [lod for lod, _ in cases]
        batch_colors = isotropic_batch(chain, batch)
        scalar_colors = np.array(
            [trilinear_sample(chain, lod, u, v) for lod, (u, v) in cases]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_single_level_chain(self):
        # A 1x1 texture has exactly one mip level: every LOD collapses
        # to a single-level blend and the high level must not exist.
        data = np.full((1, 1, 4), 0.625)
        chain = build_mipmaps(Texture(texture_id=0, data=data))
        assert chain.max_level == 0
        batch = _batch_of(
            [footprint(probes=1, lod=0.0)] * 3, [(0.0, 0.0), (0.5, 0.5), (3.2, -1.1)]
        )
        batch.lod[:] = [0.0, 0.75, 5.0]
        batch_colors = isotropic_batch(chain, batch)
        scalar_colors = np.array(
            [
                trilinear_sample(chain, lod, u, v)
                for lod, (u, v) in zip(
                    [0.0, 0.75, 5.0], [(0.0, 0.0), (0.5, 0.5), (3.2, -1.1)]
                )
            ]
        )
        assert np.array_equal(batch_colors, scalar_colors)


class TestAnisotropicBatch:
    def test_bit_identical_mixed_probe_counts(self):
        chain = make_chain(64)
        directions = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)]
        fps, uvs = [], []
        for probes in (1, 2, 4, 8):
            for lod in (0.0, 0.5, 1.5, 2.0):
                for direction in directions:
                    fps.append(
                        footprint(probes=probes, lod=lod, direction=direction)
                    )
                    uvs.append(EDGE_UVS[len(fps) % len(EDGE_UVS)])
        batch = _batch_of(fps, uvs)
        batch_colors = anisotropic_batch(chain, batch)
        scalar_colors = np.array(
            [anisotropic_sample(chain, fp, u, v) for fp, (u, v) in zip(fps, uvs)]
        )
        assert np.array_equal(batch_colors, scalar_colors)

    def test_recorder_fetch_sets_match_scalar(self):
        chain = make_chain(64)
        fps = [
            footprint(probes=probes, lod=lod)
            for probes in (1, 2, 4)
            for lod in (0.25, 1.5)
        ]
        uvs = EDGE_UVS[: len(fps)]
        batch = _batch_of(fps, uvs)
        recorder = BatchFetchRecorder()
        anisotropic_batch(chain, batch, recorder=recorder)
        texels = recorder.request_texels()
        counts = recorder.request_counts()
        for index, (fp, (u, v)) in enumerate(zip(fps, uvs)):
            scalar_recorder = _FetchRecorder()
            anisotropic_sample(chain, fp, u, v, recorder=scalar_recorder)
            assert set(texels[index]) == set(scalar_recorder.texels)
            assert counts[index] == len(scalar_recorder.texels)


class TestParentKernels:
    def test_parent_arrays_match_scalar_coords(self):
        chain = make_chain()
        cases = [(lod, uv) for lod in LODS for uv in EDGE_UVS]
        lods = np.array([lod for lod, _ in cases])
        us = np.array([u for _, (u, _) in cases])
        vs = np.array([v for _, (_, v) in cases])
        parents = parent_texel_arrays(chain, lods, us, vs)
        for row, (lod, (u, v)) in enumerate(cases):
            scalar = parent_texel_coords(chain, lod, u, v)
            assert int(parents.used[row].sum()) == len(scalar)
            for slot, (level, x, y, weight) in enumerate(scalar):
                mip = chain.level(level)
                assert parents.levels[row, slot] == level
                assert parents.xs[row, slot] == x
                assert parents.ys[row, slot] == y
                assert parents.weights[row, slot] == weight
                assert parents.keys[row, slot] == (
                    sum(m.width * m.height for m in chain.levels[:level])
                    + (y % mip.height) * mip.width + x % mip.width
                )

    def test_filter_parent_batch_matches_scalar(self):
        chain = make_chain(64)
        fps = [
            footprint(probes=probes, lod=lod, direction=direction)
            for probes in (1, 2, 4, 8)
            for lod in (0.0, 1.5, 3.0)
            for direction in ((1.0, 0.0), (0.6, 0.8))
        ]
        coords = [(0, -3, 70), (1, 31, 0), (2, 5, -9), (6, 0, 0)]
        rows = [(fp, c) for fp in fps for c in coords]
        batch_values = filter_parent_batch(
            chain,
            np.array([level for _, (level, _, _) in rows]),
            np.array([x for _, (_, x, _) in rows]),
            np.array([y for _, (_, _, y) in rows]),
            np.array([fp.probes for fp, _ in rows]),
            np.array([fp.major_du for fp, _ in rows]),
            np.array([fp.major_dv for fp, _ in rows]),
            np.array([fp.major_length for fp, _ in rows]),
        )
        scalar_values = np.array(
            [filter_parent_texel(chain, fp, *coord) for fp, coord in rows]
        )
        assert np.array_equal(batch_values, scalar_values)

    def test_reordered_batch_matches_scalar(self):
        chain = make_chain(64)
        fps = [
            footprint(probes=probes, lod=lod, direction=(0.6, 0.8))
            for probes in (1, 4, 8)
            for lod in (0.0, 0.5, 2.25)
        ]
        uvs = [EDGE_UVS[i % len(EDGE_UVS)] for i in range(len(fps))]
        colors, producers = anisotropic_first_batch(chain, _batch_of(fps, uvs))
        scalar = np.array(
            [anisotropic_first_sample(chain, fp, u, v)
             for fp, (u, v) in zip(fps, uvs)]
        )
        assert np.array_equal(colors, scalar)
        assert np.array_equal(producers, np.arange(len(producers)))


sides = st.sampled_from([1, 2, 4, 8, 16])
# Round axis components and whole lengths put probe offsets on exact
# halves, where rounding half to even matters.
axis = st.one_of(
    st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
)
footprints = st.builds(
    SampleFootprint,
    lod=st.one_of(st.floats(-3.0, 7.0), st.integers(-1, 6).map(float)),
    anisotropy=st.just(1.0),
    probes=st.integers(1, 16),
    major_du=axis,
    major_dv=axis,
    major_length=st.one_of(
        st.floats(0.0, 300.0), st.integers(0, 64).map(float)
    ),
)
positions = st.tuples(st.floats(-70.0, 70.0), st.floats(-70.0, 70.0))


@st.composite
def kernel_cases(draw):
    """A mip chain (1x1, single-level, up to 16x16, not always square)
    and requests drawn from small pools, so footprints repeat."""
    width, height, seed = draw(sides), draw(sides), draw(st.integers(0, 99))
    rng = np.random.default_rng(seed)
    data = rng.random((height, width, 4))
    data[rng.random(data.shape) < 0.2] = 0.0
    chain = build_mipmaps(Texture(texture_id=0, data=data))
    pool = draw(st.lists(footprints, min_size=1, max_size=4))
    fps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    uvs = draw(st.lists(positions, min_size=len(fps), max_size=len(fps)))
    return chain, fps, uvs


def fetch_sets(recorder):
    return {
        key: set(texels) for key, texels in recorder.request_texels().items()
    }


def scalar_fetch_sets(sample_calls):
    sets = {}
    for index, call in enumerate(sample_calls):
        recorder = _FetchRecorder()
        call(recorder)
        sets[index] = set(recorder.texels)
    return sets


class TestKernelBitParity:
    """Every batched kernel against its scalar function, to 16 probes:
    the bytes of each color and each fragment's fetch set.

    A failing example is reported as found, not shrunk.  Shrinking runs
    this test thousands of times, up to hypothesis's five-minute limit,
    and hypothesis keeps up to 10,000 of those results, each failing one
    holding its exception and so the test's locals: a kernel bug would
    cost minutes and over a gigabyte before it was reported.
    """

    @settings(NO_SHRINK, max_examples=200)
    @given(case=kernel_cases())
    def test_kernels_match_scalar_bytes(self, case):
        chain, fps, uvs = case
        batch = _batch_of(fps, uvs)

        recorder = BatchFetchRecorder()
        colors = anisotropic_batch(chain, batch, recorder=recorder)
        calls = [
            lambda rec, fp=fp, u=u, v=v: anisotropic_sample(
                chain, fp, u, v, recorder=rec
            )
            for fp, (u, v) in zip(fps, uvs)
        ]
        scalar = np.array([call(None) for call in calls])
        assert colors.tobytes() == scalar.tobytes()
        assert fetch_sets(recorder) == scalar_fetch_sets(calls)

        recorder = BatchFetchRecorder()
        colors = isotropic_batch(chain, batch, recorder=recorder)
        calls = [
            lambda rec, fp=fp, u=u, v=v: trilinear_sample(
                chain, fp.lod, u, v, recorder=rec
            )
            for fp, (u, v) in zip(fps, uvs)
        ]
        scalar = np.array([call(None) for call in calls])
        assert colors.tobytes() == scalar.tobytes()
        assert fetch_sets(recorder) == scalar_fetch_sets(calls)

        colors, producers = anisotropic_first_batch(chain, batch)
        scalar = np.array([
            anisotropic_first_sample(chain, fp, u, v)
            for fp, (u, v) in zip(fps, uvs)
        ])
        assert colors.tobytes() == scalar.tobytes()
        assert np.array_equal(producers, np.arange(len(producers)))

        # Every parent of every request.
        rows = [
            (fp, parent)
            for fp, (u, v) in zip(fps, uvs)
            for parent in parent_texel_coords(chain, fp.lod, u, v)
        ]
        recorder = BatchFetchRecorder()
        values = filter_parent_batch(
            chain,
            np.array([level for _, (level, _, _, _) in rows]),
            np.array([x for _, (_, x, _, _) in rows]),
            np.array([y for _, (_, _, y, _) in rows]),
            np.array([fp.probes for fp, _ in rows]),
            np.array([fp.major_du for fp, _ in rows]),
            np.array([fp.major_dv for fp, _ in rows]),
            np.array([fp.major_length for fp, _ in rows]),
            recorder=recorder,
            lookup_indices=np.arange(len(rows)),
        )
        calls = [
            lambda rec, fp=fp, parent=parent: filter_parent_texel(
                chain, fp, *parent[:3], recorder=rec
            )
            for fp, parent in rows
        ]
        scalar = np.array([call(None) for call in calls])
        assert values.tobytes() == scalar.tobytes()
        assert fetch_sets(recorder) == scalar_fetch_sets(calls)


class TestBatchSampler:
    def test_verify_against_scalar_passes(self):
        chain = make_chain(64)
        fps = [footprint(probes=p, lod=l) for p in (1, 4) for l in (0.0, 1.25)]
        batch = _batch_of(fps, EDGE_UVS[: len(fps)])
        sampler = BatchSampler(chain)
        sampler.verify_against_scalar(batch)
        sampler.verify_against_scalar(batch, isotropic=True)

    def test_verify_checks_recalculated_parents(self, monkeypatch):
        chain = make_chain(64)
        fps = [footprint(probes=p, lod=l) for p in (1, 4) for l in (0.0, 1.25)]
        batch = _batch_of(fps, EDGE_UVS[: len(fps)])
        sampler = BatchSampler(chain)
        _, producers = anisotropic_first_batch(
            chain, batch, np.full(len(fps), 0.3), 0.0
        )
        sampler.verify_against_scalar(batch, producers=producers)
        exact = batch_kernels.filter_parent_batch
        monkeypatch.setattr(
            batch_kernels,
            "filter_parent_batch",
            lambda *args, **kwargs: exact(*args, **kwargs) * (1.0 + 1e-9),
        )
        with pytest.raises(InvariantError):
            sampler.verify_against_scalar(batch, producers=producers)

    def test_parity_check_rejects_divergence(self):
        color = np.array([0.1, 0.2, 0.3, 1.0])
        wrong = np.array([0.1, 0.2, 0.30000000000000004, 1.0])
        texels = frozenset({(0, 1, 1)})
        with pytest.raises(InvariantError):
            check_batch_scalar_parity([(0, color, wrong, texels, texels)])
        with pytest.raises(InvariantError):
            check_batch_scalar_parity(
                [(0, color, color, texels, frozenset({(0, 2, 2)}))]
            )
        check_batch_scalar_parity([(0, color, color, texels, texels)])


class TestVectorizedRaster:
    def test_fragments_identical_to_scalar_path(self):
        scene, camera = make_tiny_scene()
        scalar = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        scalar.rasterizer = ScalarRasterizer(tile_size=4, max_anisotropy=8)
        vector = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        scalar_out = scalar.trace_only(scene, camera)
        vector_out = vector.trace_only(scene, camera)
        assert list(scalar_out.trace.requests) == list(vector_out.trace.requests)
        assert np.array_equal(
            scalar_out.framebuffer.depth, vector_out.framebuffer.depth
        )
        assert scalar_out.raster_stats == vector_out.raster_stats


SHADING_CASES = [
    pytest.param(SamplingMode.EXACT, 0.0, id="SamplingMode.EXACT"),
    pytest.param(SamplingMode.ISOTROPIC, 0.0, id="SamplingMode.ISOTROPIC"),
    pytest.param(SamplingMode.REORDERED, 0.0, id="SamplingMode.REORDERED"),
] + [
    pytest.param(
        SamplingMode.ATFIM, threshold, id=f"SamplingMode.ATFIM-{threshold}"
    )
    for threshold in (0.0, 0.05, 10.0)
]


def assert_renders_identical(batched, scalar, scene, camera, mode, threshold):
    batched_out = batched.render(scene, camera, mode, threshold)
    scalar_out = scalar.render(scene, camera, mode, threshold)
    assert np.array_equal(batched_out.image, scalar_out.image)
    assert np.array_equal(
        batched_out.framebuffer.depth, scalar_out.framebuffer.depth
    )
    assert batched_out.parent_reuses == scalar_out.parent_reuses
    assert (
        batched_out.parent_recalculations == scalar_out.parent_recalculations
    )
    return batched_out


class TestBatchedRenderer:
    @pytest.mark.parametrize("mode, threshold", SHADING_CASES)
    def test_frame_identical_to_scalar_shading(self, mode, threshold):
        scene, camera = make_tiny_scene()
        batched = Renderer(width=48, height=36, tile_size=4, max_anisotropy=8)
        scalar = ScalarRenderer(
            width=48, height=36, tile_size=4, max_anisotropy=8
        )
        output = assert_renders_identical(
            batched, scalar, scene, camera, mode, threshold
        )
        if mode is SamplingMode.ATFIM:
            assert output.parent_recalculations > 0
        else:
            assert output.parent_reuses == output.parent_recalculations == 0

    @pytest.mark.parametrize("name", ["hl2-640x480", "fear-320x240"])
    def test_atfim_sweep_identical_on_unpinned_scenes(self, name):
        # Fig. 15's golden hashes pin only the fast set; these scenes
        # are held to the scalar store at every swept threshold.
        workload = workload_by_name(name)
        built = workload.build()
        batched = workload.make_renderer()
        raster = batched.rasterizer
        scalar = ScalarRenderer(
            width=batched.width,
            height=batched.height,
            tile_size=raster.tile_size,
            max_anisotropy=raster.max_anisotropy,
            lod_bias=raster.lod_bias,
        )
        for threshold in THRESHOLD_SWEEP:
            assert_renders_identical(
                batched, scalar, built.scene, built.camera,
                SamplingMode.ATFIM, threshold.effective_radians,
            )

    def test_negative_threshold_rejected(self):
        scene, camera = make_tiny_scene()
        renderer = Renderer(width=16, height=12, tile_size=4)
        with pytest.raises(ValueError):
            renderer.render(scene, camera, SamplingMode.ATFIM, -0.01)

    def test_nan_threshold_rejected(self):
        # NaN passes a "< 0" test; the per-lookup rule would then
        # recalculate every parent, while simulate_frame reuses every one.
        scene, camera = make_tiny_scene()
        renderer = Renderer(width=16, height=12, tile_size=4)
        with pytest.raises(ValueError):
            renderer.render(scene, camera, SamplingMode.ATFIM, math.nan)
