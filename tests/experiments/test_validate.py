"""Unit tests for the paper-claims validation checkers, and the claims'
pinned outcomes on the committed full report."""

import re
from pathlib import Path

import pytest

from repro.experiments.common import FigureData
from repro.experiments.validate import (
    CheckResult,
    check_fig10,
    check_fig12,
    check_fig13,
    check_fig14,
    check_fig15,
    check_fig16,
    summarize,
    validate,
)

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def assert_claims_hold(data):
    """Every claim validate states for the figure holds on it."""
    results = validate(data)
    assert results, f"no claims for {data.figure}"
    assert [str(result) for result in results if not result.passed] == []


def fig10_data(atfim=3.5, stfim=0.8, bpim=1.1):
    data = FigureData(
        figure="fig10", title="t",
        columns=["baseline", "b_pim", "s_tfim", "a_tfim_001pi"],
    )
    data.add_row("w", baseline=1.0, b_pim=bpim, s_tfim=stfim,
                 a_tfim_001pi=atfim)
    return data


class TestCheckers:
    def test_fig10_passes_on_paper_shape(self):
        results = check_fig10(fig10_data())
        assert all(result.passed for result in results)

    def test_fig10_fails_when_stfim_wins(self):
        results = check_fig10(fig10_data(atfim=0.9, stfim=1.5))
        assert not all(result.passed for result in results)

    def test_fig12_ordering_checks(self):
        data = FigureData(
            figure="fig12", title="t",
            columns=["baseline", "b_pim", "s_tfim", "a_tfim_001pi",
                     "a_tfim_005pi"],
        )
        data.add_row("w", baseline=1.0, b_pim=1.0, s_tfim=3.0,
                     a_tfim_001pi=1.0, a_tfim_005pi=0.7)
        assert all(result.passed for result in check_fig12(data))

    def test_fig13_fails_when_atfim_wastes_energy(self):
        data = FigureData(
            figure="fig13", title="t",
            columns=["baseline", "b_pim", "s_tfim", "a_tfim_001pi"],
        )
        data.add_row("w", baseline=1.0, b_pim=0.9, s_tfim=1.2,
                     a_tfim_001pi=1.1)
        assert not all(result.passed for result in check_fig13(data))

    def test_fig14_monotonicity(self):
        data = FigureData(figure="fig14", title="t", columns=["a", "b", "c"])
        data.add_row("w", a=1.3, b=1.4, c=1.45)
        assert check_fig14(data)[0].passed
        bad = FigureData(figure="fig14", title="t", columns=["a", "b", "c"])
        bad.add_row("w", a=1.5, b=1.2, c=1.3)
        assert not check_fig14(bad)[0].passed

    def test_per_app_failure_names_the_rows(self):
        data = FigureData(figure="fig14", title="t", columns=["a", "b", "c"])
        data.add_row("rising", a=1.3, b=1.4, c=1.45)
        data.add_row("dipping", a=1.5, b=1.4, c=1.6)
        (per_app,) = [result for result in check_fig14(data)
                      if result.claim.endswith("on every app")]
        assert not per_app.passed
        assert per_app.detail == "fails on dipping"

    def test_fig15_strict_end_must_beat_every_threshold(self):
        # The strict end beats the loosest but not the next threshold.
        data = FigureData(figure="fig15", title="t", columns=["a", "b", "c"])
        data.add_row("w", a=40.0, b=41.0, c=33.0)
        best = check_fig15(data)[0]
        assert best.claim == "strictest threshold gives the best quality"
        assert not best.passed
        assert best.detail == "min margin -1.00dB"

    def test_fig16_loosest_end_must_be_the_fastest(self):
        # The loosest end beats the strictest but not the middle.
        data = FigureData(figure="fig16", title="t",
                          columns=["speedup", "psnr"])
        for label, speedup in (("a", 1.3), ("b", 1.5), ("c", 1.4)):
            data.add_row(label, speedup=speedup, psnr=30.0)
        fastest = check_fig16(data)[0]
        assert fastest.claim == "loosest threshold is the fastest"
        assert not fastest.passed


class TestSensitivityOrderings:
    def make(self, a, b, s, figure="sensitivity-overlap"):
        data = FigureData(
            figure=figure, title="t", columns=["b_pim", "s_tfim", "a_tfim"]
        )
        data.add_row("row", b_pim=b, s_tfim=s, a_tfim=a)
        return data

    def test_paper_shape_passes(self):
        assert_claims_hold(self.make(a=1.5, b=1.2, s=0.9))

    def test_stfim_winning_fails(self):
        assert not validate(self.make(a=1.5, b=1.2, s=1.3))[0].passed

    def test_atfim_losing_fails(self):
        assert not validate(self.make(a=1.1, b=1.2, s=0.9))[0].passed

    def test_atfim_gaining_with_shader_work_fails(self):
        data = self.make(a=1.5, b=1.2, s=0.9, figure="sensitivity-shader")
        data.add_row("heavier", b_pim=1.1, s_tfim=0.9, a_tfim=1.6)
        orderings, falls = validate(data)
        assert orderings.passed
        assert not falls.passed


class TestDispatch:
    def test_validate_routes_by_figure_id(self):
        results = validate(fig10_data())
        assert results
        assert all(result.figure == "fig10" for result in results)

    def test_unknown_figure_returns_empty(self):
        data = FigureData(figure="figZZ", title="t", columns=["a"])
        assert validate(data) == []

    def test_summarize(self):
        results = [
            CheckResult(figure="f", claim="a", passed=True, detail=""),
            CheckResult(figure="f", claim="b", passed=False, detail=""),
        ]
        assert summarize(results) == "1/2 paper claims hold"

    def test_str_formats_status(self):
        result = CheckResult(figure="f", claim="c", passed=True, detail="d")
        assert str(result).startswith("[PASS]")


def claim_outcomes(report):
    """``"PASS fig2: <claim>"`` for each claim line, in report order."""
    outcomes = []
    for line in report.splitlines():
        match = re.fullmatch(r"\* \[(PASS|FAIL)\] (.*)\)", line)
        if match is None:
            continue
        status, text = match.groups()
        # The detail is the last parenthesised group, and may nest.
        depth, start = 1, len(text)
        while depth:
            start -= 1
            depth += {")": 1, "(": -1}.get(text[start], 0)
        outcomes.append(f"{status} {text[:start].rstrip()}")
    return outcomes


# Every claim of the full report (``python -m repro report``), in order.
# CI regenerates EXPERIMENTS.md and fails on any diff, so a claim that
# flips, goes or is added must change this list too.  The two FAILs are
# known deviations (DESIGN.md section 5).
PINNED_OUTCOMES = """\
PASS fig2: texture is the largest traffic class in every app
PASS fig2: average texture share in the 40-80% band
PASS fig4: every app speeds up with anisotropic disabled
PASS fig4: texture traffic drops (paper: -34% average)
PASS fig4: no app's texture traffic rises
PASS fig5: B-PIM never slows rendering
PASS fig5: B-PIM average render speedup in the 1.05-1.6 band
PASS fig5: B-PIM texture gain below 1.3x its render gain
PASS fig10: A-TFIM beats S-TFIM on every app
PASS fig10: A-TFIM mean texture speedup > 1.5x
PASS fig10: B-PIM texture gain modest vs A-TFIM
PASS fig11: A-TFIM mean render speedup in the 1.2-1.9 band
PASS fig11: S-TFIM ~= B-PIM or worse
PASS fig11: B-PIM speeds rendering up, less than A-TFIM
PASS fig11: A-TFIM is the fastest design on every app
PASS fig12: S-TFIM mean traffic in the 2-8x band
PASS fig12: A-TFIM-005pi saves traffic vs baseline
PASS fig12: stricter threshold means more traffic
PASS fig12: A-TFIM-005pi moves less traffic than 001pi on average
PASS fig12: A-TFIM-001pi mean traffic in the 0.5-1.5x band
PASS fig12: B-PIM moves less traffic than S-TFIM on every app
PASS fig12: S-TFIM traffic above 1.5x on every app
PASS fig13: A-TFIM saves energy vs baseline (paper -22%)
PASS fig13: A-TFIM beats B-PIM (paper -8%)
PASS fig13: S-TFIM worse than B-PIM in every app
PASS fig13: B-PIM saves energy vs baseline
PASS fig13: A-TFIM saves energy in every app
PASS fig14: mean speedup monotone in the threshold
PASS fig14: no-recalculation mean speedup > 1.2x
FAIL fig14: speedup monotone in the threshold on every app
PASS fig15: strictest threshold gives the best quality
PASS fig15: averaged quality peaks strict and drops loose
PASS fig15: strictest threshold above 30 dB in every app
PASS fig16: loosest threshold is the fastest
PASS fig16: strictest threshold is the highest quality
PASS sec7e: Parent Texel Buffer storage within 0.01 of the paper
PASS sec7e: Child Texel Consolidation storage within 0.01 of the paper
PASS sec7e: A-TFIM logic-layer area share of a DRAM die within 0.001 of the paper
PASS sec7e: angle-tag area share of the GPU within 0.0002 of the paper
FAIL ablation-mtu-share: 4 clusters per MTU at most 1.05x private MTUs
PASS ablation-consolidation: consolidation never costs more than 5% on any app
PASS ablation-aniso-cap: texels per request rise with the anisotropy cap
PASS ablation-internal-bw: widest internal bandwidth at most 5% slower than the narrowest
"""


def test_committed_report_claims_match_the_pins():
    assert claim_outcomes(EXPERIMENTS.read_text()) == (
        PINNED_OUTCOMES.splitlines()
    )
