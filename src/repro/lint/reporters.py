"""Finding reporters: the text report and the rule catalog."""

from __future__ import annotations

from .engine import LintResult
from .rules import RULES

__all__ = ["render_text", "render_rule_catalog"]


def render_text(result: LintResult) -> str:
    """One line per finding plus a summary line."""
    lines = [finding.format_text() for finding in result.findings]
    if result.findings:
        counts = ", ".join(
            f"{rule} x{count}" for rule, count in result.counts_by_rule().items()
        )
        lines.append(
            f"{len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} "
            f"in {result.checked_files} files ({counts})"
        )
    else:
        lines.append(f"{result.checked_files} files clean")
    return "\n".join(lines)


def render_rule_catalog() -> str:
    """Human-readable list of registered rules (``--list-rules``)."""
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"{code}  {rule.name}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)
