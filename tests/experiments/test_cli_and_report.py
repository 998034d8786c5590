"""Tests for the CLI and the EXPERIMENTS.md report generator."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.report import generate


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "doom3-1280x1024" in out

    def test_fig_fast(self, capsys):
        assert main(["fig", "overhead"]) == 0
        out = capsys.readouterr().out
        assert "parent_buffer_kb" in out

    def test_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "{list,simulate,fig,render,report,trace}" in out

    def test_fig_unknown(self, capsys):
        assert main(["fig", "99"]) == 1

    def test_jobs_is_a_report_option_only(self, capsys):
        """``fig`` reads only its own figure's points, so it has no grid
        prefetch and no ``--jobs``; ``report`` reads the whole grid."""
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["fig", "2", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert parser.parse_args(["report", "--jobs", "2"]).jobs == 2

    def test_simulate(self, capsys):
        assert main(["simulate", "riddick-640x480"]) == 0
        out = capsys.readouterr().out
        for design in ("baseline", "b-pim", "s-tfim", "a-tfim"):
            assert design in out


class TestReport:
    def test_generate_fast_without_quality(self):
        text = generate(
            workload_names=["riddick-640x480"],
            include_quality=False,
            include_ablations=False,
        )
        assert "Table I" in text
        assert "fig10" in text
        assert "fig14" in text
        assert "sec7e" in text
        assert "riddick-640x480" in text
