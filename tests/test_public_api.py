"""Public API surface checks.

Guards against accidental breakage of the documented entry points: all
``__all__`` names must resolve, and the key quickstart path must be
importable exactly as the README shows.
"""

import importlib

import pytest

_PACKAGES = [
    "repro",
    "repro.sim",
    "repro.graphs",
    "repro.churn",
    "repro.privlink",
    "repro.core",
    "repro.metrics",
    "repro.dissemination",
    "repro.routing",
    "repro.attacks",
    "repro.analysis",
    "repro.baselines",
    "repro.experiments",
    "repro.parallel",
    "repro.net",
]


class TestPublicApi:
    @pytest.mark.parametrize("name", _PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for export in module.__all__:
            assert hasattr(module, export), f"{name}.{export} missing"

    def test_readme_quickstart_imports(self):
        from repro import Overlay, SystemConfig  # noqa: F401
        from repro.graphs import (  # noqa: F401
            SnapshotAnalysis,
            generate_social_graph,
            sample_trust_graph,
        )
        from repro.rng import RandomStreams  # noqa: F401

    def test_version_exported(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_cli_entry_point(self):
        from repro.cli import main

        assert callable(main)

    def test_no_all_duplicate_entries(self):
        for name in _PACKAGES:
            module = importlib.import_module(name)
            exports = module.__all__
            assert len(exports) == len(set(exports)), f"duplicates in {name}.__all__"
