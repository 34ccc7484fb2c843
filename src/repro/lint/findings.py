"""Finding model shared by the lint engine, rules, and reporters.

A :class:`Finding` is one rule violation at one source location.  The
model is deliberately tiny and immutable so reporters can sort and
group findings without touching the engine.
"""

from __future__ import annotations

import dataclasses

__all__ = ["Finding"]


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    path:
        Path of the offending file, as given to the engine (kept
        relative when the input was relative, so output is stable across
        machines).
    line, column:
        1-based line and 0-based column of the offending node.
    rule:
        Rule code, e.g. ``"DET001"``.
    message:
        Human-readable description of the specific violation.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str

    def sort_key(self) -> tuple:
        """Stable ordering: by file, then position, then rule."""
        return (self.path, self.line, self.column, self.rule)

    def format_text(self) -> str:
        """The classic ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"
