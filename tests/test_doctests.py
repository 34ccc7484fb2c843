"""Docs that cannot drift: embedded doctests run, named modules exist."""

import doctest
import pathlib
import pkgutil
import re

import pytest

import repro.config
import repro.rng
import repro.sim.simulator

_MODULES = [repro.rng, repro.sim.simulator, repro.config]


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"


_REPO = pathlib.Path(__file__).resolve().parents[1]
#: Documents that describe the code as it is (CHANGES.md, ROADMAP.md and
#: ISSUE.md are history and plans, and may name what no longer exists).
_DOCUMENTS = [
    _REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md")
] + sorted((_REPO / "docs").glob("*.md"))
_DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute chain inside one."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_dotted_names_in_the_docs_resolve():
    stale = [
        f"{document.relative_to(_REPO)}:{number}: {dotted}"
        for document in _DOCUMENTS
        for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), 1)
        for dotted in _DOTTED_NAME.findall(line)
        if not _resolves(dotted)
    ]
    assert not stale, "names no module defines:\n" + "\n".join(stale)
