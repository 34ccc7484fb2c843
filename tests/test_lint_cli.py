"""CLI tests: exit codes, text output, and repro-CLI dispatch."""

import textwrap

from repro.cli import main as repro_main
from repro.lint import rule_codes
from repro.lint.cli import main as lint_main


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


CLEAN = "x = 1\n"
DIRTY = """
import numpy as np

rng = np.random.default_rng()
"""


class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "ok.py", CLEAN)
        assert lint_main([str(tmp_path)]) == 0
        assert "1 files clean" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.py", DIRTY)
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:4:" in out
        assert "DET001" in out

    def test_rules_filter(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", DIRTY)
        assert lint_main([str(tmp_path), "--rules", "HYG002"]) == 0
        assert lint_main([str(tmp_path), "--rules", "det001"]) == 1

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "ok.py", CLEAN)
        assert lint_main([str(tmp_path), "--rules", "BOGUS"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["definitely/not/here"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out


class TestReproCliDispatch:
    def test_lint_subcommand_through_repro_cli(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", DIRTY)
        assert repro_main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_subcommand_clean(self, tmp_path, capsys):
        _write(tmp_path, "ok.py", CLEAN)
        assert repro_main(["lint", str(tmp_path)]) == 0

    def test_figure_commands_still_parse(self, capsys):
        # The lint dispatch must not break the original figure grammar.
        code = repro_main(["fig9", "--scale", "smoke"])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out
