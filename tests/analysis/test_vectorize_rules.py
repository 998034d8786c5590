"""Positive/negative/noqa fixtures for the REP400-series vectorize rules.

Each rule gets at least one planted violation that must fire, one
correct variant that must stay silent, and a ``# repro: noqa(...)``
suppression check.  The reachability fixtures exercise the shared
call-graph model: a scalar loop fires only when its function is
reachable from ``simulate_frame`` / ``BatchSampler`` / the rasterizer
entry points, including across files.  The profile-guided tests rank
findings against a synthetic ``repro-run-manifest/1`` span tree and
check the annotations survive the SARIF round-trip.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis.baseline import load_baseline
from repro.analysis.cli import main as analysis_main
from repro.analysis.findings import Finding
from repro.analysis.hotspots import (
    SpanProfile,
    enclosing_function,
    rank_findings,
)
from repro.analysis.linter import lint_source, lint_sources
from repro.analysis.rules import rule_catalog, rule_ids
from repro.analysis.sarif import findings_to_sarif
from repro.analysis.vectorize import (
    VECTORIZE_RULE_TABLE,
    vectorize_rule_ids,
)

SIM_PATH = "src/repro/sim/example.py"


def findings_for(source: str, path: str = SIM_PATH):
    return lint_source(textwrap.dedent(source), path)


def ids_for(source: str, path: str = SIM_PATH):
    return [finding.rule_id for finding in findings_for(source, path)]


def vec_findings(source: str, path: str = SIM_PATH):
    return [finding for finding in findings_for(source, path)
            if finding.rule_id.startswith("REP4")]


class TestRegistry:
    def test_vectorize_rule_ids_are_registered(self):
        ids = set(rule_ids())
        for rule_id in vectorize_rule_ids():
            assert rule_id in ids

    def test_five_vectorize_rules(self):
        assert vectorize_rule_ids() == [
            "REP400", "REP401", "REP402", "REP403", "REP404",
        ]

    def test_catalog_has_descriptions(self):
        catalog = {rule_id: desc for rule_id, _name, desc in rule_catalog()}
        for rule_id, _name, description in VECTORIZE_RULE_TABLE:
            assert catalog[rule_id] == description


class TestHotPathReachability:
    def test_loop_in_unreachable_function_is_silent(self):
        assert "REP400" not in ids_for(
            """
            import numpy as np

            def cold_helper(values: np.ndarray) -> float:
                total = 0.0
                for value in values:
                    total = total + value
                return total
            """
        )

    def test_loop_reachable_from_simulate_frame_fires(self):
        assert "REP400" in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> float:
                return accumulate(values)

            def accumulate(values: np.ndarray) -> float:
                total = 0.0
                for value in values:
                    total = total + value
                return total
            """
        )

    def test_reachability_crosses_files(self):
        entry = textwrap.dedent(
            """
            from repro.sim.helper import accumulate

            def simulate_frame(values):
                return accumulate(values)
            """
        )
        helper = textwrap.dedent(
            """
            import numpy as np

            def accumulate(values: np.ndarray) -> float:
                total = 0.0
                for value in values:
                    total = total + value
                return total
            """
        )
        findings = lint_sources([
            ("src/repro/sim/entry.py", entry),
            ("src/repro/sim/helper.py", helper),
        ])
        assert "REP400" in [finding.rule_id for finding in findings]

    def test_batch_sampler_methods_are_hot(self):
        assert "REP400" in ids_for(
            """
            import numpy as np

            class BatchSampler:
                def sample(self, lods: np.ndarray) -> list:
                    out = []
                    for lod in lods:
                        out.append(lod * 2.0)
                    return out
            """
        )


class TestRep400ScalarLoop:
    def test_fragment_hint_loop_fires(self):
        assert "REP400" in ids_for(
            """
            def simulate_frame(trace) -> int:
                shaded = 0
                for fragment in trace.fragments:
                    shaded = shaded + 1
                return shaded
            """
        )

    def test_zip_of_ndarrays_fires(self):
        assert "REP400" in ids_for(
            """
            import numpy as np

            def simulate_frame(rows: np.ndarray, cols: np.ndarray) -> int:
                hits = 0
                for row, col in zip(rows, cols):
                    hits = hits + 1
                return hits
            """
        )

    def test_range_len_over_ndarray_fires(self):
        assert "REP400" in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> int:
                touched = 0
                for index in range(len(values)):
                    touched = touched + 1
                return touched
            """
        )

    def test_event_queue_while_loop_fires(self):
        assert "REP400" in ids_for(
            """
            def simulate_frame(events: list) -> int:
                drained = 0
                while events:
                    events.pop()
                    drained = drained + 1
                return drained
            """
        )

    def test_plain_list_loop_is_silent(self):
        assert "REP400" not in ids_for(
            """
            def simulate_frame(designs: list) -> int:
                configured = 0
                for design in designs:
                    configured = configured + 1
                return configured
            """
        )

    def test_noqa_suppresses_rep400(self):
        assert "REP400" not in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> float:
                total = 0.0
                for value in values:  # repro: noqa(REP400) -- ordered oracle accumulation
                    total = total + value
                return total
            """
        )


class TestRep401ScalarMath:
    def test_exact_twin_mentions_bit_identical(self):
        findings = vec_findings(
            """
            import math
            import numpy as np

            def simulate_frame(values: np.ndarray) -> list:
                out = []
                for value in values:
                    out.append(math.floor(value))
                return out
            """
        )
        messages = [finding.message for finding in findings
                    if finding.rule_id == "REP401"]
        assert messages and "bit-identical" in messages[0]

    def test_transcendental_demands_parity_check(self):
        findings = vec_findings(
            """
            import math
            import numpy as np

            def simulate_frame(values: np.ndarray) -> list:
                out = []
                for value in values:
                    out.append(math.acos(value))
                return out
            """
        )
        messages = [finding.message for finding in findings
                    if finding.rule_id == "REP401"]
        assert messages and "parity" in messages[0]

    def test_math_in_element_comprehension_fires(self):
        assert "REP401" in ids_for(
            """
            import math
            import numpy as np

            def simulate_frame(values: np.ndarray) -> list:
                return [math.sin(value) for value in values]
            """
        )

    def test_math_outside_loop_is_silent(self):
        assert "REP401" not in ids_for(
            """
            import math

            def simulate_frame(angle: float) -> float:
                return math.acos(angle)
            """
        )

    def test_noqa_suppresses_rep401(self):
        assert "REP401" not in ids_for(
            """
            import math
            import numpy as np

            def simulate_frame(values: np.ndarray) -> list:
                out = []
                for value in values:
                    out.append(math.acos(value))  # repro: noqa(REP400,REP401) -- parity forbids np.arccos here
                return out
            """
        )


class TestRep402DtypeCreep:
    def test_untyped_alloc_in_float32_function_fires(self):
        assert "REP402" in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int):
                buffer = np.zeros(count, dtype=np.float32)
                scale = np.ones(count)
                return buffer * scale
            """
        )

    def test_typed_allocs_are_silent(self):
        assert "REP402" not in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int):
                buffer = np.zeros(count, dtype=np.float32)
                scale = np.ones(count, dtype=np.float32)
                return buffer * scale
            """
        )

    def test_float_broadcast_into_float32_fires(self):
        assert "REP402" in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int):
                buffer = np.zeros(count, dtype=np.float32)
                buffer += 0.5
                return buffer
            """
        )

    def test_untyped_alloc_without_float32_context_is_silent(self):
        assert "REP402" not in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int):
                return np.ones(count)
            """
        )

    def test_noqa_suppresses_rep402(self):
        assert "REP402" not in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int):
                buffer = np.zeros(count, dtype=np.float32)
                scale = np.ones(count)  # repro: noqa(REP402) -- feeds a float64 reduction on purpose
                return buffer * scale
            """
        )


class TestRep403AllocationInLoop:
    def test_constructor_in_loop_fires(self):
        assert "REP403" in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int) -> list:
                chunks = []
                for _ in range(count):
                    chunks.append(np.zeros(16))
                return chunks
            """
        )

    def test_hoisted_constructor_is_silent(self):
        assert "REP403" not in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int):
                chunk = np.zeros(16)
                for _ in range(count):
                    chunk = chunk + 1.0
                return chunk
            """
        )

    def test_append_then_convert_fires_at_conversion(self):
        findings = vec_findings(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray):
                collected = []
                for value in values:
                    collected.append(value * 2.0)
                return np.array(collected)
            """
        )
        rep403 = [finding for finding in findings
                  if finding.rule_id == "REP403"]
        assert rep403 and "collected" in rep403[0].message

    def test_noqa_suppresses_rep403(self):
        assert "REP403" not in ids_for(
            """
            import numpy as np

            def simulate_frame(count: int) -> list:
                chunks = []
                for _ in range(count):
                    chunks.append(np.zeros(16))  # repro: noqa(REP403) -- count is O(mip levels), not O(texels)
                return chunks
            """
        )


class TestRep404BitIdentityHazard:
    def test_np_sum_over_array_fires(self):
        assert "REP404" in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> float:
                return float(np.sum(values))
            """
        )

    def test_np_sum_over_bool_mask_is_silent(self):
        assert "REP404" not in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> int:
                mask = values > 0.0
                return int(np.sum(mask))
            """
        )

    def test_method_sum_over_array_fires(self):
        assert "REP404" in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> float:
                return float(values.sum())
            """
        )

    def test_inplace_update_of_view_fires(self):
        assert "REP404" in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray):
                flat = values.reshape(-1)
                flat += 1.0
                return values
            """
        )

    def test_scatter_through_index_array_fires(self):
        assert "REP404" in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray, depth: np.ndarray):
                rows, cols = np.nonzero(values)
                depth[rows, cols] = 0.0
            """
        )

    def test_scatter_through_bool_mask_is_silent(self):
        assert "REP404" not in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray):
                mask = values > 0.0
                values[mask] = 0.0
                return values
            """
        )

    def test_inplace_scatter_mentions_add_at(self):
        findings = vec_findings(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray, depth: np.ndarray):
                rows, cols = np.nonzero(values)
                depth[rows, cols] += 1.0
            """
        )
        messages = [finding.message for finding in findings
                    if finding.rule_id == "REP404"]
        assert messages and "np.add.at" in messages[0]

    def test_noqa_suppresses_rep404(self):
        assert "REP404" not in ids_for(
            """
            import numpy as np

            def simulate_frame(values: np.ndarray) -> float:
                return float(np.sum(values))  # repro: noqa(REP404) -- oracle updated in lockstep, parity-tested
            """
        )


HOT_FIXTURE = textwrap.dedent(
    """
    import numpy as np

    def simulate_frame(values: np.ndarray) -> float:
        total = 0.0
        for value in values:
            total = total + value
        try:
            return total
        except:
            return 0.0
    """
)


def _write_fixture(tmp_path: Path) -> Path:
    target = tmp_path / "src" / "repro" / "sim" / "hot.py"
    target.parent.mkdir(parents=True)
    target.write_text(HOT_FIXTURE, encoding="utf-8")
    return target


class TestSelectBaselineInteraction:
    def test_selected_write_preserves_other_families(self, tmp_path, capsys):
        fixture = _write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"

        # Freeze everything: the fixture has REP104 (bare except) and
        # REP400 (scalar hot loop) findings.
        assert analysis_main(
            ["lint", str(fixture), "--write-baseline", str(baseline)]
        ) == 0
        families = {key[0] for key in load_baseline(baseline)}
        assert "REP104" in families and "REP400" in families

        # Re-freezing just the REP4 family must not clobber REP104.
        assert analysis_main(
            ["lint", str(fixture), "--select", "REP4",
             "--write-baseline", str(baseline)]
        ) == 0
        families = {key[0] for key in load_baseline(baseline)}
        assert "REP104" in families and "REP400" in families

        # ... so a full baselined run still suppresses everything
        # (the old clobbering behavior resurrected REP104 here).
        assert analysis_main(
            ["lint", str(fixture), "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()

    def test_selected_run_scopes_loaded_baseline(self, tmp_path, capsys):
        fixture = _write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert analysis_main(
            ["lint", str(fixture), "--write-baseline", str(baseline)]
        ) == 0
        assert analysis_main(
            ["lint", str(fixture), "--select", "REP4",
             "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()


SYNTHETIC_SPANS = [
    {
        "name": "repro.sim.hot.simulate_frame",
        "span_id": 1,
        "parent_id": None,
        "start_wall": 0.0,
        "duration": 8.0,
        "attributes": {},
        "stats": {},
        "children": [
            {
                "name": "sim.hot.leaf_stage",
                "span_id": 2,
                "parent_id": 1,
                "start_wall": 0.5,
                "duration": 2.0,
                "attributes": {},
                "stats": {},
                "children": [],
            }
        ],
    },
    {
        "name": "report.generate",
        "span_id": 3,
        "parent_id": None,
        "start_wall": 9.0,
        "duration": 2.0,
        "attributes": {},
        "stats": {},
        "children": [],
    },
]

RANKING_SOURCE = textwrap.dedent(
    """
    import numpy as np

    def simulate_frame(values: np.ndarray) -> float:
        total = 0.0
        for value in values:
            total = total + value
        return leaf_stage(values)

    def leaf_stage(values: np.ndarray) -> float:
        out = 0.0
        for value in values:
            out = out + value
        return out
    """
)

# A hot entry point in a module that shares no dotted segments with the
# synthetic spans: its finding must stay unranked (properties=None).
UNPROFILED_SOURCE = textwrap.dedent(
    """
    import numpy as np

    def rasterize_scene(values: np.ndarray) -> float:
        acc = 0.0
        for value in values:
            acc = acc + value
        return acc
    """
)
UNPROFILED_PATH = "src/repro/misc/extra.py"


def _write_manifest(tmp_path: Path) -> Path:
    manifest = tmp_path / "run.manifest.json"
    manifest.write_text(json.dumps({
        "schema": "repro-run-manifest/1",
        "command": "report",
        "config": {},
        "digest": "0" * 16,
        "source": "test",
        "created_unix": 0.0,
        "tracing": True,
        "cache": {},
        "spans": SYNTHETIC_SPANS,
        "stats": {},
        "faults": {},
    }), encoding="utf-8")
    return manifest


class TestProfileGuidedRanking:
    def test_enclosing_function_resolution(self):
        assert enclosing_function(RANKING_SOURCE, 6) == "simulate_frame"
        assert enclosing_function(RANKING_SOURCE, 12) == "leaf_stage"
        assert enclosing_function(RANKING_SOURCE, 1) is None

    def test_rank_findings_orders_hottest_first(self):
        profile = SpanProfile(SYNTHETIC_SPANS)
        path = "src/repro/sim/hot.py"
        findings = [
            Finding("REP400", UNPROFILED_PATH, 6, 4, "unprofiled loop"),
            Finding("REP400", path, 12, 4, "leaf loop"),
            Finding("REP400", path, 6, 4, "frame loop"),
        ]
        ranked = rank_findings(findings, profile,
                               sources={path: RANKING_SOURCE,
                                        UNPROFILED_PATH: UNPROFILED_SOURCE})
        assert [finding.message for finding in ranked] == [
            "frame loop", "leaf loop", "unprofiled loop",
        ]
        frame, leaf, unprofiled = ranked
        # Root total is 8 + 2 = 10s: the frame span is 8/10, the leaf
        # stage 2/10, and the unmatched finding carries no annotation.
        assert frame.properties["profile"]["share"] == 0.8
        assert frame.properties["profile"]["span"] == \
            "repro.sim.hot.simulate_frame"
        assert leaf.properties["profile"]["share"] == 0.2
        assert unprofiled.properties is None

    def test_cli_profile_ranks_hottest_first(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "sim" / "hot.py"
        target.parent.mkdir(parents=True)
        target.write_text(RANKING_SOURCE, encoding="utf-8")
        extra = tmp_path / "src" / "repro" / "misc" / "extra.py"
        extra.parent.mkdir(parents=True)
        extra.write_text(UNPROFILED_SOURCE, encoding="utf-8")
        manifest = _write_manifest(tmp_path)
        output = tmp_path / "findings.json"
        rc = analysis_main([
            "lint", str(target), str(extra), "--select", "REP4",
            "--profile", str(manifest),
            "--format", "json", "--output", str(output),
        ])
        capsys.readouterr()
        assert rc == 1
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert len(payload) == 3
        shares = [entry.get("properties", {}).get("profile", {}).get("share")
                  for entry in payload]
        assert shares[0] == 0.8 and shares[1] == 0.2 and shares[2] is None

    def test_sarif_round_trip_keeps_property_bag(self):
        profile = SpanProfile(SYNTHETIC_SPANS)
        path = "src/repro/sim/hot.py"
        findings = rank_findings(
            [Finding("REP400", path, 6, 4, "frame loop"),
             Finding("REP400", UNPROFILED_PATH, 6, 4, "unprofiled loop")],
            profile, sources={path: RANKING_SOURCE,
                              UNPROFILED_PATH: UNPROFILED_SOURCE},
        )
        log = findings_to_sarif(findings, rule_catalog())
        results = log["runs"][0]["results"]
        assert results[0]["properties"]["profile"]["share"] == 0.8
        assert "properties" not in results[1]

    def test_profile_annotation_does_not_change_identity(self):
        profile = SpanProfile(SYNTHETIC_SPANS)
        path = "src/repro/sim/hot.py"
        bare = Finding("REP400", path, 6, 4, "frame loop")
        ranked = rank_findings([bare], profile,
                               sources={path: RANKING_SOURCE})
        assert ranked[0] == bare  # properties excluded from equality
