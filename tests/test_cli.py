"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_fig8_smoke(self, capsys):
        code = main(["fig8", "--scale", "smoke", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "fig8 done" in out

    def test_fig9_smoke(self, capsys):
        code = main(["fig9", "--scale", "smoke"])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_plot_flag(self, capsys):
        code = main(["fig8", "--scale", "smoke", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "disconnected fraction" in out
        assert "overlay r=3" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "enormous"])

    def test_fig5_smoke_with_plot(self, capsys):
        code = main(["fig5", "--scale", "smoke", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "mean degrees" in out
        assert "degree histogram" in out

    def test_audit_command(self, capsys):
        code = main(["audit", "--scale", "smoke", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Privacy audit" in out
        assert "link detection" in out

    def test_report_command(self, capsys, tmp_path):
        (tmp_path / "fig3_f0.5.txt").write_text("Figure 3 table\n")
        code = main(["report", "--results-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "Figure 3 table" in out

    def test_report_to_file(self, capsys, tmp_path):
        (tmp_path / "fig9_x.txt").write_text("rows\n")
        output = tmp_path / "report.md"
        code = main(
            ["report", "--results-dir", str(tmp_path), "--output", str(output)]
        )
        assert code == 0
        assert "rows" in output.read_text()

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo wrapping
        assert "repro" in out
        for verb in ("lint", "sweep", "node", "mesh"):
            assert f"'repro {verb}" in out
