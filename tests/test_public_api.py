"""Public API surface checks.

Guards against accidental breakage of the documented entry points: all
``__all__`` names must resolve, and the key quickstart path must be
importable exactly as the README shows.
"""

import importlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro

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

    def test_runs_without_networkx(self):
        """Every module imports and an overlay runs with networkx
        unimportable: a numpy-only install is enough, and networkx is a
        test dependency."""
        script = textwrap.dedent(
            """
            import importlib, pkgutil, sys

            sys.modules["networkx"] = None  # every import of it now fails
            import repro

            for module in pkgutil.walk_packages(repro.__path__, "repro."):
                importlib.import_module(module.name)

            from repro import Overlay
            from repro.experiments import SMOKE, make_config, make_trust_graph

            overlay = Overlay.build(
                make_trust_graph(SMOKE, 0.5, 1), make_config(SMOKE, 0.5)
            )
            overlay.start()
            overlay.run_until(5.0)
            assert overlay.stats().messages_sent > 0
            """
        )
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source, env.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr

    def test_cli_entry_point(self):
        from repro.cli import main

        assert callable(main)

    def test_no_all_duplicate_entries(self):
        for name in _PACKAGES:
            module = importlib.import_module(name)
            exports = module.__all__
            assert len(exports) == len(set(exports)), f"duplicates in {name}.__all__"
