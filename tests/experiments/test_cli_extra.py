"""Tests for the render/verbose CLI paths."""

from repro.cli import main


class TestRenderCommand:
    def test_render_writes_ppm(self, tmp_path, capsys):
        output = tmp_path / "frame.ppm"
        assert main([
            "render", "riddick-640x480", "--output", str(output)
        ]) == 0
        data = output.read_bytes()
        assert data.startswith(b"P6\n")
        # 80x60 RGB payload after the header.
        header_end = data.index(b"255\n") + 4
        assert len(data) - header_end == 80 * 60 * 3

    def test_render_atfim_mode(self, tmp_path):
        output = tmp_path / "atfim.ppm"
        assert main([
            "render", "riddick-640x480", "--mode", "atfim",
            "--threshold", "0.05", "--output", str(output)
        ]) == 0
        assert output.exists()

    def test_render_differs_between_modes(self, tmp_path):
        exact = tmp_path / "exact.ppm"
        isotropic = tmp_path / "iso.ppm"
        main(["render", "riddick-640x480", "--output", str(exact)])
        main(["render", "riddick-640x480", "--mode", "isotropic",
              "--output", str(isotropic)])
        assert exact.read_bytes() != isotropic.read_bytes()


class TestVerboseSimulate:
    def test_verbose_prints_summaries(self, capsys):
        assert main(["simulate", "riddick-640x480", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "stages:" in out
        assert "texture latency:" in out
