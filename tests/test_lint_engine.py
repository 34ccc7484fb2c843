"""Engine-level tests: suppressions, discovery, selection, self-hosting."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintError, lint_paths, lint_project, lint_source, select_rules
from repro.lint.engine import PARSE_ERROR_CODE
from repro.lint.suppressions import parse_suppressions

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestSuppressions:
    def test_line_suppression_specific_rule(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f():
                    return time.time()  # lint: disable=DET003
                """
            )
        )
        assert findings == []

    def test_line_suppression_leaves_other_lines(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f():
                    a = time.time()  # lint: disable=DET003
                    return a + time.time()
                """
            )
        )
        assert [finding.rule for finding in findings] == ["DET003"]
        assert findings[0].line == 6

    def test_line_suppression_wrong_rule_does_not_apply(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f():
                    return time.time()  # lint: disable=DET001
                """
            )
        )
        assert [finding.rule for finding in findings] == ["DET003"]

    def test_line_suppression_all_rules(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f():
                    return time.time()  # lint: disable
                """
            )
        )
        assert findings == []

    def test_multiple_rules_in_one_comment(self):
        findings = lint_source(
            "import random  # lint: disable=DET002,DET003\n"
        )
        assert findings == []

    def test_file_wide_suppression(self):
        findings = lint_source(
            textwrap.dedent(
                """
                # lint: disable-file=DET003
                import time

                def f():
                    return time.time() + time.monotonic()
                """
            )
        )
        assert findings == []

    def test_case_insensitive_rule_codes(self):
        findings = lint_source(
            "import random  # lint: disable=det002\n"
        )
        assert findings == []

    def test_marker_inside_string_is_not_a_suppression(self):
        table = parse_suppressions(
            'text = "# lint: disable=DET003"\n'
        )
        assert not table

    def test_marker_inside_string_does_not_suppress_findings(self):
        """End-to-end: a string literal carrying the marker text on an
        offending line must not silence the finding."""
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f():
                    return (time.time(), "# lint: disable=DET003")
                """
            )
        )
        assert [finding.rule for finding in findings] == ["DET003"]

    def test_multiline_statement_suppressed_as_a_whole(self):
        """A disable comment on any line of a multi-line statement
        covers the statement's full span."""
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f():
                    value = max(
                        0.0,  # lint: disable=DET003
                        time.time(),
                    )
                    return value
                """
            )
        )
        assert findings == []

    def test_decorated_def_suppression_covers_the_header(self):
        """A disable on a decorator line applies to the whole header
        (decorators through the signature), not just that line."""
        findings = lint_source(
            textwrap.dedent(
                """
                import functools
                import time

                @functools.lru_cache(  # lint: disable=DET003
                    maxsize=int(time.time()) and 8,
                )
                def f():
                    return 1
                """
            )
        )
        assert findings == []

    def test_statement_suppression_does_not_blanket_compound_bodies(self):
        """A disable on an ``if`` header must not suppress the body."""
        findings = lint_source(
            textwrap.dedent(
                """
                import time

                def f(flag):
                    if flag:  # lint: disable=DET003
                        return time.time()
                    return 0.0
                """
            )
        )
        assert [finding.rule for finding in findings] == ["DET003"]

    def test_unrelated_comments_ignored(self):
        table = parse_suppressions("x = 1  # just a comment\n")
        assert not table


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

        The whole-program pass must come out clean — per-file rules,
        the interprocedural DET003 waiver standing in for the deleted
        suppressions, and the FLOW/FORK/PAR families — with zero live
        suppression comments anywhere in the tree.
        """
        result = lint_project([str(REPO_SRC)])
        assert result.checked_files > 70
        offenders = "\n".join(f.format_text() for f in result.findings)
        assert result.ok, f"src/repro has lint findings:\n{offenders}"
        assert result.suppression_count == 0
        # The burned-down timing suppressions are now waived statically
        # (the CLI's progress display and the live mesh's wall clock).
        assert len(result.waived_clock_findings) >= 4

    def test_injected_unseeded_rng_is_caught(self, tmp_path):
        """Acceptance check: a fresh DET001 violation names file and line."""
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
