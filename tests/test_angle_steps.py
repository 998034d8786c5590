"""A threshold of exactly k steps decides every k-step gap alike.

A camera-angle tag is a 7-bit code, one step being (pi/2)/127 radians,
and a threshold of ``k * STEP`` radians keeps every pair of tags at most
k steps apart.  Three places compare tags, and each is driven here
through the inputs a caller gives in radians:

* the quality side's reuse kernel (``reuse_producers``, through
  ``anisotropic_first_batch``);
* the A-TFIM replay session's L1s (``L1Replay``), with both requests of
  a pair on one cluster;
* the session's L2, with the pair on two clusters, so the second
  request misses its own L1 and compares at the L2.

Each pair of requests reads the same parents at tags i and i + k, for
every i that fits below 127.  Tags compared as float radians split
these gaps: one step count gives float differences on both sides of
``k * STEP`` (at k = 20, 61 of the 108 gaps within and 47 beyond).  The
step counts are the report's that the float rule splits.
"""

import math

import numpy as np
import pytest

from repro.core.atfim import AtfimPath
from repro.core.designs import Design, DesignConfig
from repro.core.expansion import ExpandedFrame, ExpandedRequest, ParentTexel
from repro.memory.traffic import TrafficMeter
from repro.texture.batch import anisotropic_first_batch
from repro.texture.mipmap import build_mipmaps
from repro.texture.texture import Texture
from tests.reference import request_batch
from tests.texture.test_batch import footprint

STEP = (math.pi / 2) / 127
"""One step of a 7-bit angle tag, in radians."""

STEP_COUNTS = [1, 2, 10, 12, 20, 25]
"""The report's thresholds as whole step counts: 1, 2, 12 and 25 are
0.005pi, 0.01pi, 0.05pi and 0.1pi on the quality side; 10 and 20 are
0.005pi and 0.01pi on the timing side (x8)."""


def gaps(k):
    """Every pair of tags k steps apart: ``(i, i + k)``."""
    return [(i, i + k) for i in range(128 - k)]


@pytest.mark.parametrize("k", STEP_COUNTS)
def test_the_reuse_kernel_reuses_every_k_step_gap(k):
    """Each pair samples one texel centre of a 64x64 texture at level 0,
    3 texels from the next pair's, so a pair's second request finds the
    four parents its first stored, and no other pair's."""
    rng = np.random.default_rng(0)
    chain = build_mipmaps(Texture(texture_id=0, data=rng.random((64, 64, 4))))
    pairs = gaps(k)
    centres = [(3 * (index % 20) + 1.0, 3 * (index // 20) + 1.0)
               for index in range(len(pairs))]
    uvs = [centre for centre in centres for _ in range(2)]
    batch = request_batch([footprint(probes=1, lod=0.0)] * len(uvs),
                          [u for u, _ in uvs], [v for _, v in uvs])
    batch.lod[:] = 0.0
    angles = np.array([code * STEP for pair in pairs for code in pair])
    _, producers = anisotropic_first_batch(chain, batch, angles, k * STEP)
    recalculated = producers == np.arange(len(producers))
    assert len(producers) == 4 * len(uvs)
    assert np.count_nonzero(recalculated) == 4 * len(pairs)


def session(k, clusters_of_pair):
    """Serve every pair of tags k steps apart, each pair on its own
    parent line, at threshold ``k * STEP`` through an A-TFIM replay
    session; the pair's two requests come from the two given clusters.
    Return the path."""
    pairs = gaps(k)
    frame = ExpandedFrame.from_requests([
        ExpandedRequest(
            camera_angle=code * STEP, conventional_lines=(),
            num_conventional_texels=0,
            parents=(ParentTexel(64 * index, (64 * index + (1 << 20),), 4),),
            num_parent_texels=1,
        )
        for index, pair in enumerate(pairs) for code in pair
    ])
    clusters = np.array(clusters_of_pair * len(pairs), dtype=np.int64)
    path = AtfimPath(
        DesignConfig(design=Design.A_TFIM, angle_threshold=k * STEP),
        TrafficMeter(),
    )
    replay = path.begin_replay(frame, clusters)
    for index, cluster in enumerate(clusters.tolist()):
        replay.serve_one(cluster, 10.0 * index, index)
    replay.finish()
    return path


@pytest.mark.parametrize("k", STEP_COUNTS)
def test_the_l1_reuses_every_k_step_gap(k):
    path = session(k, [0, 0])
    stats = path.caches.stats()
    assert stats.l1_angle_misses == 0
    assert stats.l1_hits == len(gaps(k))
    assert path.parent_recalculations == 0
    assert path.parent_reuses == len(gaps(k))


@pytest.mark.parametrize("k", STEP_COUNTS)
def test_the_l2_reuses_every_k_step_gap(k):
    path = session(k, [0, 1])
    l2 = path.caches.l2
    assert l2.angle_misses == 0
    assert l2.hits == len(gaps(k))
    assert path.caches.stats().l1_hits == 0
    assert path.parent_recalculations == 0
    assert path.parent_reuses == len(gaps(k))
