"""The lint engine: file discovery, parsing, rule dispatch, filtering.

:func:`lint_paths` is the programmatic entry point::

    from repro.lint import lint_paths
    result = lint_paths(["src"])
    for finding in result.findings:
        print(finding.format_text())

The engine is deliberately framework-free: plain :mod:`ast` parsing and
a rule registry (:mod:`repro.lint.rules`).  Each file is parsed and its
imports resolved once, then handed to every selected rule; a rule never
sees a file it declared itself out of via :meth:`Rule.applies_to_path`.
There is no suppression comment: an exception to a rule is a path scope
on the rule itself, with its reason beside it.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Type

from ..errors import ReproError
from .findings import Finding
from .rules import RULES, Rule, resolve_imports

__all__ = [
    "LintError",
    "LintResult",
    "lint_paths",
    "lint_source",
    "select_rules",
]

#: Pseudo-rule code for files the parser rejects.  Not in the registry
#: (it cannot be disabled or selected) but it shares the finding model.
PARSE_ERROR_CODE = "LINT000"


class LintError(ReproError):
    """Invalid lint invocation (unknown rule, missing path)."""


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    checked_files: int

    @property
    def ok(self) -> bool:
        """Whether the run produced no findings."""
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        """Map of rule code to number of findings."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def select_rules(codes: Optional[Iterable[str]] = None) -> List[Type[Rule]]:
    """Resolve rule codes to rule classes (all registered when None)."""
    if codes is None:
        return [RULES[code] for code in sorted(RULES)]
    selected: List[Type[Rule]] = []
    for code in codes:
        normalized = code.strip().upper()
        if not normalized:
            continue
        if normalized not in RULES:
            raise LintError(
                f"unknown rule {normalized!r} (known: {', '.join(sorted(RULES))})"
            )
        selected.append(RULES[normalized])
    if not selected:
        raise LintError("no rules selected")
    return selected


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Type[Rule]]] = None,
) -> List[Finding]:
    """Lint one in-memory source buffer; returns sorted findings."""
    rule_classes = list(rules) if rules is not None else select_rules(None)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                column=(error.offset or 1) - 1,
                rule=PARSE_ERROR_CODE,
                message=f"file does not parse: {error.msg}",
            )
        ]

    aliases = resolve_imports(tree)
    findings: List[Finding] = []
    for rule_class in rule_classes:
        if rule_class.applies_to_path(path):
            findings.extend(rule_class(path, tree, aliases).run())
    findings.sort(key=Finding.sort_key)
    return findings


def _discover(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintError(f"no such file or directory: {raw}")
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving the sorted-per-argument order.
    seen = set()
    unique: List[Path] = []
    for candidate in files:
        key = candidate.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files and directories; returns findings plus file count.

    Parameters
    ----------
    paths:
        Files or directories; directories are walked recursively for
        ``*.py`` (hidden directories skipped).
    rules:
        Optional rule codes to run (default: every registered rule).

    Raises
    ------
    LintError
        For unknown rule codes or nonexistent paths.
    """
    rule_classes = select_rules(rules)
    findings: List[Finding] = []
    files = _discover(paths)
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file_path), rule_classes))
    findings.sort(key=Finding.sort_key)
    return LintResult(findings=findings, checked_files=len(files))
