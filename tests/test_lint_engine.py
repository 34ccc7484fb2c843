"""Engine-level tests: discovery, selection, self-hosting."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintError, lint_paths, select_rules
from repro.lint.engine import PARSE_ERROR_CODE

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestDiscoveryAndSelection:
    def test_directory_walk_and_sorted_output(self, tmp_path):
        _write(tmp_path, "pkg/b.py", "import random\n")
        _write(tmp_path, "pkg/a.py", "import random\n")
        result = lint_paths([str(tmp_path)])
        assert result.checked_files == 2
        assert [Path(f.path).name for f in result.findings] == ["a.py", "b.py"]

    def test_hidden_directories_skipped(self, tmp_path):
        _write(tmp_path, ".hidden/bad.py", "import random\n")
        _write(tmp_path, "ok.py", "x = 1\n")
        result = lint_paths([str(tmp_path)])
        assert result.checked_files == 1
        assert result.ok

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            lint_paths(["definitely/not/here"])

    def test_unknown_rule_raises(self):
        with pytest.raises(LintError):
            select_rules(["NOPE99"])

    def test_rule_filter_restricts_findings(self, tmp_path):
        _write(
            tmp_path,
            "both.py",
            """
            import random
            import time

            def f():
                return time.time()
            """,
        )
        result = lint_paths([str(tmp_path)], rules=["DET003"])
        assert [finding.rule for finding in result.findings] == ["DET003"]

    def test_syntax_error_reported_as_finding(self, tmp_path):
        _write(tmp_path, "broken.py", "def f(:\n")
        result = lint_paths([str(tmp_path)])
        assert [finding.rule for finding in result.findings] == [PARSE_ERROR_CODE]

    def test_counts_by_rule(self, tmp_path):
        _write(tmp_path, "two.py", "import random\nimport random\n")
        result = lint_paths([str(tmp_path)])
        assert result.counts_by_rule() == {"DET002": 2}


class TestSelfHosting:
    def test_src_repro_is_lint_clean(self):
        """The tree enforces its own determinism discipline.

        Everything CI lints comes out clean, with no escape hatch: an
        exception to a rule is a path scope on the rule (``HOT_PATHS``,
        ``EXEMPT_PATHS``, ``LITERAL_SEED_PATHS``), never a comment.
        """
        result = lint_paths(
            [
                str(REPO_ROOT / "src" / "repro"),
                str(REPO_ROOT / "examples"),
                str(REPO_ROOT / "benchmarks"),
            ]
        )
        assert result.checked_files > 100
        offenders = "\n".join(f.format_text() for f in result.findings)
        assert result.ok, f"the tree has lint findings:\n{offenders}"
        marked = [
            str(path)
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            if "# lint:" in path.read_text(encoding="utf-8")
        ]
        assert marked == []

    def test_injected_unseeded_rng_is_caught(self, tmp_path):
        """Acceptance check: a fresh violation names file and line."""
        bad = _write(
            tmp_path,
            "scratch.py",
            """
            import numpy as np

            def helper():
                rng = np.random.default_rng()
                return rng.random()
            """,
        )
        result = lint_paths([str(tmp_path)])
        assert not result.ok
        finding = result.findings[0]
        assert finding.rule == "DET001"
        assert finding.path == str(bad)
        assert finding.line == 5

        # DET003 on scratch copies of the tree's layout: a clock read is
        # reported in simulation code and nowhere wall time is the job.
        timed = """
            import time

            def helper():
                return time.perf_counter()
            """
        core = _write(tmp_path, "repro/core/batch.py", timed)
        _write(tmp_path, "repro/cli.py", timed)
        _write(tmp_path, "repro/net/clock.py", timed)
        _write(tmp_path, "benchmarks/bench_x.py", timed)
        clock = lint_paths([str(tmp_path)], rules=["DET003"])
        assert [(f.path, f.line) for f in clock.findings] == [(str(core), 5)]
