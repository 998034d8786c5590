"""Ablation benchmarks beyond the paper's figures (DESIGN.md section 6)."""

from benchmarks.conftest import print_figure
from repro.experiments import ablations

ABLATION_WORKLOADS = ["doom3-640x480", "riddick-640x480"]


def test_ablation_mtu_sharing(benchmark):
    data = benchmark.pedantic(
        ablations.mtu_sharing,
        kwargs={"workload_names": ABLATION_WORKLOADS},
        rounds=1,
        iterations=1,
    )
    print_figure(data)
    # Sharing MTUs saves area but must not help performance (contention).
    for row in data.rows:
        assert row.get("share_4") <= row.get("share_1") * 1.05


def test_ablation_consolidation(benchmark):
    data = benchmark.pedantic(
        ablations.consolidation,
        kwargs={"workload_names": ABLATION_WORKLOADS},
        rounds=1,
        iterations=1,
    )
    print_figure(data)
    for row in data.rows:
        assert row.get("with_consolidation") >= (
            row.get("without_consolidation") * 0.95
        )


def test_ablation_anisotropy_cap(benchmark):
    data = benchmark.pedantic(
        ablations.anisotropy_cap,
        kwargs={"workload_name": "doom3-640x480", "caps": (2, 4, 8, 16)},
        rounds=1,
        iterations=1,
    )
    print_figure(data)
    texels = data.column("texels_per_request")
    for lower, higher in zip(texels, texels[1:]):
        assert higher >= lower


def test_ablation_internal_bandwidth(benchmark):
    data = benchmark.pedantic(
        ablations.internal_bandwidth,
        kwargs={"workload_name": "doom3-640x480",
                "multipliers": (0.5, 1.0, 2.0)},
        rounds=1,
        iterations=1,
    )
    print_figure(data)
    speedups = data.column("a_tfim_texture_speedup")
    # More internal bandwidth never hurts A-TFIM.
    assert speedups[-1] >= speedups[0] * 0.95
