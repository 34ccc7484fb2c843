"""repro.lint — determinism & simulation-hygiene static analysis.

The paper's figures are reproducible only if every random draw flows
from a single root seed and every timestamp comes from the simulator.
This package machine-checks those conventions, one file at a time:

* a per-file rule registry of :class:`ast.NodeVisitor` rules
  (:mod:`repro.lint.rules`: DET001–DET004, HYG001–HYG003),
* an engine that parses each file once and runs the selected rules
  over it (:mod:`repro.lint.engine`),
* a text reporter and rule catalog (:mod:`repro.lint.reporters`),
* a CLI: ``repro lint [paths]`` or ``python -m repro.lint``.

The linter is a tripwire, not the guarantee: the guarantee is that the
same seed replays byte-identically (``tests/test_determinism.py``).
See ``docs/linting.md`` for the rule catalog and what each rule has
found in this repository.
"""

from .engine import LintError, LintResult, lint_paths, lint_source, select_rules
from .findings import Finding
from .reporters import render_rule_catalog, render_text
from .rules import RULES, Rule, register, rule_codes

__all__ = [
    "Finding",
    "LintError",
    "LintResult",
    "lint_paths",
    "lint_source",
    "select_rules",
    "Rule",
    "RULES",
    "register",
    "rule_codes",
    "render_text",
    "render_rule_catalog",
]
