"""The fast-set report's figures meet every paper claim.

The figures are read back from ``tests/golden/figure_tables.json``,
which ``tests/golden/test_figure_tables.py`` holds equal to what
``python -m repro report --fast`` builds, so nothing here simulates.
Each figure's test requires every claim that
:mod:`repro.experiments.validate` states for it to hold; the claims are
stated only there.  The checks that are not paper claims (Fig. 2's
shares sum to one, Fig. 10's baseline column, Tables I and II) stay
here.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import tables
from repro.experiments.common import FigureData
from tests.experiments.test_validate import assert_claims_hold

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "figure_tables.json"


@pytest.fixture(scope="module")
def fast_set():
    """Every figure of the fast-set report, by figure id."""
    figures = {}
    for name, pinned in json.loads(GOLDEN.read_text()).items():
        if isinstance(pinned, str):  # Tables I and II, pinned as text
            continue
        data = FigureData(figure=name, title=name, columns=pinned["columns"])
        for label, values in pinned["rows"]:
            data.add_row(label, **values)
        figures[name] = data
    return figures


class TestFig02:
    def test_shares_sum_to_one(self, fast_set):
        for row in fast_set["fig2"].rows:
            assert sum(row.values.values()) == pytest.approx(1.0)

    def test_texture_is_dominant(self, fast_set):
        assert_claims_hold(fast_set["fig2"])


class TestFig04:
    def test_disabling_aniso_speeds_up_and_saves_traffic(self, fast_set):
        assert_claims_hold(fast_set["fig4"])


class TestFig05:
    def test_bpim_positive(self, fast_set):
        assert_claims_hold(fast_set["fig5"])


class TestFig10:
    def test_atfim_wins_texture(self, fast_set):
        assert_claims_hold(fast_set["fig10"])
        assert set(fast_set["fig10"].column("baseline")) == {1.0}


class TestFig11:
    def test_atfim_wins_render(self, fast_set):
        assert_claims_hold(fast_set["fig11"])


class TestFig12:
    def test_stfim_traffic_inflated(self, fast_set):
        assert_claims_hold(fast_set["fig12"])


class TestFig13:
    def test_atfim_saves_energy(self, fast_set):
        assert_claims_hold(fast_set["fig13"])


class TestFig14:
    def test_speedup_monotone_across_thresholds(self, fast_set):
        assert_claims_hold(fast_set["fig14"])


class TestFig15:
    def test_strict_threshold_keeps_quality(self, fast_set):
        assert_claims_hold(fast_set["fig15"])


class TestFig16:
    def test_quality_falls_as_speed_rises(self, fast_set):
        assert_claims_hold(fast_set["fig16"])


class TestOverhead:
    def test_reports_paper_numbers(self, fast_set):
        assert_claims_hold(fast_set["sec7e"])


class TestTables:
    def test_table1_contains_key_parameters(self):
        text = tables.format_table1()
        assert "16" in text
        assert "320 GB/s" in text
        assert "512 GB/s" in text
        assert "128 GB/s" in text

    def test_table2_lists_all_games(self):
        text = tables.format_table2()
        for game in ("doom3", "fear", "hl2", "riddick", "wolfenstein"):
            assert game in text


class TestAblations:
    def test_mtu_sharing_not_faster(self, fast_set):
        assert_claims_hold(fast_set["ablation-mtu-share"])

    def test_consolidation_helps_or_neutral(self, fast_set):
        assert_claims_hold(fast_set["ablation-consolidation"])

    def test_aniso_cap_grows_texel_demand(self, fast_set):
        assert_claims_hold(fast_set["ablation-aniso-cap"])

    def test_internal_bandwidth_never_hurts(self, fast_set):
        assert_claims_hold(fast_set["ablation-internal-bw"])

