"""Programmatic paper-vs-measured validation.

Each figure's qualitative claims are encoded as named checks over the
regenerated :class:`~repro.experiments.common.FigureData`; the report
runs them and EXPERIMENTS.md records pass/fail per claim.  Checks assert
*shapes* (orderings, monotonicity, bands), not absolute cycle counts --
the reproduction's contract (DESIGN.md section 2).

This module is the only place a claim is stated.  Every paper number a
claim quotes comes from :data:`repro.experiments.paper.PAPER`.  The
tests pin each claim's outcome in the committed EXPERIMENTS.md and
require every claim to hold on the fast-set figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.experiments.common import FigureData, FigureRow
from repro.experiments.paper import stat


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one claim check."""

    figure: str
    claim: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.figure}: {self.claim} ({self.detail})"


def _check(figure: str, claim: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(figure=figure, claim=claim, passed=bool(passed),
                       detail=detail)


def _per_app(
    figure: str,
    claim: str,
    data: FigureData,
    holds: Callable[[FigureRow], bool],
    detail: str = "per-app ordering",
) -> CheckResult:
    """A claim that must hold on every row; a failure names the rows."""
    failing = [row.label for row in data.rows if not holds(row)]
    if failing:
        detail = "fails on " + ", ".join(failing)
    return _check(figure, claim, not failing, detail)


def _monotone(values: Sequence[float]) -> bool:
    """Non-decreasing, up to float noise."""
    return all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def _paper(name: str) -> float:
    return stat(name).mean


def _change(name: str) -> str:
    """A normalized paper mean as a signed percentage: 0.78 -> '-22%'."""
    return f"{round((_paper(name) - 1.0) * 100):+d}%"


def check_fig02(data: FigureData) -> List[CheckResult]:
    """Texture fetches dominate memory traffic (paper: ~60 % average)."""
    mean_share = data.mean("texture")
    results = [
        _check("fig2", "texture is the largest traffic class in every app",
               all(row.get("texture") == max(row.values.values())
                   for row in data.rows),
               f"min share {min(data.column('texture')):.2f}"),
        _check("fig2", "average texture share in the 40-80% band",
               0.40 < mean_share <= 0.80,
               f"mean {mean_share:.2f} "
               f"(paper ~{_paper('texture_traffic_share'):.2f})"),
    ]
    return results


def check_fig04(data: FigureData) -> List[CheckResult]:
    """Disabling anisotropic filtering helps speed and traffic."""
    traffic = data.column("normalized_traffic")
    return [
        _check("fig4", "every app speeds up with anisotropic disabled",
               all(v > 1.0 for v in data.column("texture_speedup")),
               f"min {min(data.column('texture_speedup')):.2f}"),
        _check("fig4",
               "texture traffic drops "
               f"(paper: {_change('aniso_disabled_traffic')} average)",
               data.mean("normalized_traffic") < 0.9,
               f"mean {data.mean('normalized_traffic'):.2f}"),
        _check("fig4", "no app's texture traffic rises",
               max(traffic) <= 1.0, f"max {max(traffic):.2f}"),
    ]


def check_fig05(data: FigureData) -> List[CheckResult]:
    """B-PIM helps overall rendering (paper: +27 % average)."""
    render = data.mean("render_speedup")
    texture = data.mean("texture_speedup")
    return [
        _check("fig5", "B-PIM never slows rendering",
               all(v > 1.0 for v in data.column("render_speedup")),
               f"min {min(data.column('render_speedup')):.2f}"),
        _check("fig5", "B-PIM average render speedup in the 1.05-1.6 band",
               1.05 < render < 1.6,
               f"mean {render:.2f} "
               f"(paper {_paper('bpim_render_speedup'):.2f})"),
        _check("fig5", "B-PIM texture gain below 1.3x its render gain",
               texture < render * 1.3,
               f"texture {texture:.2f}, render {render:.2f}"),
    ]


def check_fig10(data: FigureData) -> List[CheckResult]:
    """A-TFIM dominates texture filtering."""
    return [
        _per_app("fig10", "A-TFIM beats S-TFIM on every app", data,
                 lambda row: row.get("a_tfim_001pi") > row.get("s_tfim")),
        _check("fig10", "A-TFIM mean texture speedup > 1.5x",
               data.mean("a_tfim_001pi") > 1.5,
               f"mean {data.mean('a_tfim_001pi'):.2f} "
               f"(paper {_paper('atfim_texture_speedup'):.2f})"),
        _check("fig10", "B-PIM texture gain modest vs A-TFIM",
               data.mean("b_pim") < data.mean("a_tfim_001pi"),
               f"b-pim {data.mean('b_pim'):.2f}"),
    ]


def check_fig11(data: FigureData) -> List[CheckResult]:
    """A-TFIM overall rendering speedup (paper: 1.43x avg, 1.65x max)."""
    atfim = data.mean("a_tfim_001pi")
    bpim = data.mean("b_pim")
    return [
        _check("fig11", "A-TFIM mean render speedup in the 1.2-1.9 band",
               1.2 < atfim < 1.9,
               f"mean {atfim:.2f} "
               f"(paper {_paper('atfim_render_speedup'):.2f})"),
        _per_app("fig11", "S-TFIM ~= B-PIM or worse", data,
                 lambda row: row.get("s_tfim") <= row.get("b_pim") * 1.05),
        _check("fig11", "B-PIM speeds rendering up, less than A-TFIM",
               1.0 < bpim < atfim, f"b-pim {bpim:.2f}"),
        _per_app("fig11", "A-TFIM is the fastest design on every app", data,
                 lambda row: row.get("a_tfim_001pi") > max(
                     row.get("b_pim"), row.get("s_tfim"), 1.0)),
    ]


def check_fig12(data: FigureData) -> List[CheckResult]:
    """Traffic: S-TFIM inflates; A-TFIM-005pi saves (paper -28 %)."""
    strict = data.mean("a_tfim_001pi")
    loose = data.mean("a_tfim_005pi")
    stfim = data.column("s_tfim")
    return [
        _check("fig12", "S-TFIM mean traffic in the 2-8x band",
               2.0 < data.mean("s_tfim") < 8.0,
               f"mean {data.mean('s_tfim'):.2f} "
               f"(paper {_paper('stfim_traffic'):.2f})"),
        _check("fig12", "A-TFIM-005pi saves traffic vs baseline",
               loose < 1.0,
               f"mean {loose:.2f} (paper {_paper('atfim_005pi_traffic'):.2f})"),
        _per_app("fig12", "stricter threshold means more traffic", data,
                 lambda row: row.get("a_tfim_001pi")
                 >= row.get("a_tfim_005pi")),
        _check("fig12", "A-TFIM-005pi moves less traffic than 001pi on average",
               loose < strict, f"{loose:.2f} vs {strict:.2f}"),
        _check("fig12", "A-TFIM-001pi mean traffic in the 0.5-1.5x band",
               0.5 < strict < 1.5, f"mean {strict:.2f}"),
        _per_app("fig12", "B-PIM moves less traffic than S-TFIM on every app",
                 data, lambda row: row.get("b_pim") < row.get("s_tfim")),
        _check("fig12", "S-TFIM traffic above 1.5x on every app",
               min(stfim) > 1.5, f"min {min(stfim):.2f}"),
    ]


def check_fig13(data: FigureData) -> List[CheckResult]:
    """Energy: A-TFIM < B-PIM < baseline; S-TFIM > B-PIM."""
    atfim = data.column("a_tfim_001pi")
    return [
        _check("fig13",
               f"A-TFIM saves energy vs baseline (paper {_change('atfim_energy')})",
               data.mean("a_tfim_001pi") < 1.0,
               f"mean {data.mean('a_tfim_001pi'):.2f} "
               f"(paper {_paper('atfim_energy'):.2f})"),
        _check("fig13",
               f"A-TFIM beats B-PIM (paper {_change('atfim_energy_vs_bpim')})",
               data.mean("a_tfim_001pi") < data.mean("b_pim"),
               f"b-pim {data.mean('b_pim'):.2f}"),
        _per_app("fig13", "S-TFIM worse than B-PIM in every app", data,
                 lambda row: row.get("s_tfim") > row.get("b_pim")),
        _check("fig13", "B-PIM saves energy vs baseline",
               data.mean("b_pim") < 1.0, f"mean {data.mean('b_pim'):.2f}"),
        _check("fig13", "A-TFIM saves energy in every app",
               max(atfim) < 1.0, f"max {max(atfim):.2f}"),
    ]


def check_fig14(data: FigureData) -> List[CheckResult]:
    """Speedup rises monotonically with the angle threshold."""
    means = [data.mean(column) for column in data.columns]
    return [
        _check("fig14", "mean speedup monotone in the threshold",
               _monotone(means), f"{means[0]:.2f} -> {means[-1]:.2f}"),
        _check("fig14", "no-recalculation mean speedup > 1.2x",
               means[-1] > 1.2,
               f"mean {means[-1]:.2f} "
               f"(paper {_paper('threshold_speedup_loosest'):.2f})"),
        _per_app("fig14", "speedup monotone in the threshold on every app",
                 data, lambda row: _monotone(
                     [row.values[column] for column in data.columns])),
    ]


def check_fig15(data: FigureData) -> List[CheckResult]:
    """Quality: strict end best, visible drop toward no-recalculation."""
    strictest, *looser = data.columns
    margin = min(
        row.values[strictest] - max(row.values[column] for column in looser)
        for row in data.rows
    )
    means = [data.mean(column) for column in data.columns]
    return [
        _check("fig15", "strictest threshold gives the best quality",
               margin >= 0.0, f"min margin {margin:.2f}dB"),
        _check("fig15", "averaged quality peaks strict and drops loose",
               means[0] == max(means) and means[0] - means[-1] > 2.0,
               f"{means[0]:.1f}dB -> {means[-1]:.1f}dB"),
        _check("fig15", "strictest threshold above 30 dB in every app",
               min(data.column(strictest)) > 30.0,
               f"min {min(data.column(strictest)):.1f}dB"),
    ]


def check_fig16(data: FigureData) -> List[CheckResult]:
    """The averaged tradeoff curve: speed up, quality down."""
    speedups = data.column("speedup")
    psnrs = data.column("psnr")
    return [
        _check("fig16", "loosest threshold is the fastest",
               speedups[-1] == max(speedups) > speedups[0],
               f"{speedups[0]:.2f} -> {speedups[-1]:.2f}, "
               f"max {max(speedups):.2f}"),
        _check("fig16", "strictest threshold is the highest quality",
               psnrs[0] == max(psnrs),
               f"{psnrs[0]:.1f}dB -> {psnrs[-1]:.1f}dB"),
    ]


OVERHEAD_TOLERANCES = {
    "parent_buffer_kb": 0.01,
    "consolidation_kb": 0.01,
    "hmc_area_fraction": 0.001,
    "gpu_area_fraction": 0.0002,
}
"""Section VII-E rows the paper quotes, each with its allowed error."""


def check_sec7e(data: FigureData) -> List[CheckResult]:
    """The overhead arithmetic reproduces the paper's quoted sizes."""
    results = []
    for name, tolerance in OVERHEAD_TOLERANCES.items():
        value = data.row(name).get("value")
        paper = stat(name)
        results.append(_check(
            "sec7e", f"{paper.description} within {tolerance:g} of the paper",
            abs(value - paper.mean) <= tolerance,
            f"{value:.4f} (paper {paper.mean:g})",
        ))
    return results


def check_mtu_share(data: FigureData) -> List[CheckResult]:
    """Sharing an MTU saves area but must not speed S-TFIM up."""
    return [
        _per_app("ablation-mtu-share",
                 "4 clusters per MTU at most 1.05x private MTUs", data,
                 lambda row: row.get("share_4") <= row.get("share_1") * 1.05),
    ]


def check_consolidation(data: FigureData) -> List[CheckResult]:
    """Child Texel Consolidation helps A-TFIM, or costs it little."""
    return [
        _per_app("ablation-consolidation",
                 "consolidation never costs more than 5% on any app", data,
                 lambda row: row.get("with_consolidation")
                 >= row.get("without_consolidation") * 0.95),
    ]


def check_aniso_cap(data: FigureData) -> List[CheckResult]:
    """Required texels grow with the anisotropy level."""
    texels = data.column("texels_per_request")
    return [
        _check("ablation-aniso-cap",
               "texels per request rise with the anisotropy cap",
               all(b > a for a, b in zip(texels, texels[1:])),
               f"{texels[0]:.1f} -> {texels[-1]:.1f}"),
    ]


def check_internal_bw(data: FigureData) -> List[CheckResult]:
    """More internal bandwidth does not hurt A-TFIM."""
    speedups = data.column("a_tfim_texture_speedup")
    return [
        _check("ablation-internal-bw",
               "widest internal bandwidth at most 5% slower than the narrowest",
               speedups[-1] >= speedups[0] * 0.95,
               f"{speedups[0]:.2f} -> {speedups[-1]:.2f}"),
    ]


def check_sensitivity(data: FigureData) -> List[CheckResult]:
    """A fitted constant's sweep must not reorder the designs."""
    return [
        _per_app(data.figure, "A-TFIM > B-PIM >= S-TFIM at every point", data,
                 lambda row: row.get("a_tfim") > row.get("b_pim")
                 >= row.get("s_tfim"),
                 detail="per-point ordering"),
    ]


def check_shader_sensitivity(data: FigureData) -> List[CheckResult]:
    """Heavier shaders shrink A-TFIM's speedup (Amdahl), in order."""
    speedups = data.column("a_tfim")
    return check_sensitivity(data) + [
        _check(data.figure, "A-TFIM speedup falls as shader work grows",
               all(b <= a for a, b in zip(speedups, speedups[1:])),
               f"{speedups[0]:.2f} -> {speedups[-1]:.2f}"),
    ]


CHECKERS: Dict[str, Callable[[FigureData], List[CheckResult]]] = {
    "fig2": check_fig02,
    "fig4": check_fig04,
    "fig5": check_fig05,
    "fig10": check_fig10,
    "fig11": check_fig11,
    "fig12": check_fig12,
    "fig13": check_fig13,
    "fig14": check_fig14,
    "fig15": check_fig15,
    "fig16": check_fig16,
    "sec7e": check_sec7e,
    "ablation-mtu-share": check_mtu_share,
    "ablation-consolidation": check_consolidation,
    "ablation-aniso-cap": check_aniso_cap,
    "ablation-internal-bw": check_internal_bw,
    "sensitivity-overlap": check_sensitivity,
    "sensitivity-shader": check_shader_sensitivity,
    "sensitivity-inflight": check_sensitivity,
}


def validate(data: FigureData) -> List[CheckResult]:
    """Run the registered claims for one figure (empty if none)."""
    checker = CHECKERS.get(data.figure)
    if checker is None:
        return []
    return checker(data)


def summarize(results: Sequence[CheckResult]) -> str:
    passed = sum(1 for result in results if result.passed)
    return f"{passed}/{len(results)} paper claims hold"
