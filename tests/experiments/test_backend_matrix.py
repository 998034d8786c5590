"""Bit-identity of a real (small) design grid across the runner's schedules.

``run_many`` has two ways to execute a batch: in-process (``jobs=1``) and
one spawn process pool (``jobs>1``).  Whichever schedules the work, the
simulation results must be bit-identical.  Each schedule gets its own
disk cache root so agreement is proven by recomputation, not by one
schedule reading the other's cached artefacts.
"""

from repro.core import Design
from repro.core.angle import DEFAULT_THRESHOLD
from repro.experiments.runner import ExperimentRunner, RunKey

WORKLOAD = "riddick-640x480"

GRID = [
    RunKey(WORKLOAD, design, DEFAULT_THRESHOLD.effective_radians, True)
    for design in (Design.BASELINE, Design.S_TFIM, Design.A_TFIM)
]

# Schedule name -> the ``jobs`` value that selects it.
BACKENDS = {"serial": 1, "process-pool": 2}


def _signature(run):
    return (
        run.frame_cycles,
        run.texture_cycles,
        run.external_texture_bytes,
        run.frame.num_requests,
    )


class TestBackendMatrix:
    def test_all_backends_bit_identical_clean(self, tmp_path):
        signatures = {}
        for backend, jobs in BACKENDS.items():
            runner = ExperimentRunner(
                (WORKLOAD,), cache_dir=tmp_path / f"cache-{backend}"
            )
            results = runner.run_many(GRID, jobs=jobs)
            assert list(results) == GRID, f"{backend} dropped or reordered keys"
            signatures[backend] = {
                key: _signature(run) for key, run in results.items()
            }
        assert signatures["process-pool"] == signatures["serial"], (
            "process pool diverged from serial"
        )
