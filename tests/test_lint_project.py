"""Whole-program pass: FLOW/FORK/PAR rules, baseline, cache, SARIF."""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_project, render_sarif
from repro.lint.baseline import check_baseline, write_baseline
from repro.lint.cache import ResultCache
from repro.lint.cli import main as lint_main
from repro.lint.parity import PARITY_PAIRS, ParityPair

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write(root, name, source):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _package(tmp_path, files):
    pkg = tmp_path / "pkg"
    _write(pkg, "__init__.py", "")
    for name, source in files.items():
        _write(pkg, name, source)
    return pkg


def _rules(result, code):
    return [f for f in result.findings if f.rule == code]


class TestFlowRules:
    def test_flow001_hardcoded_seed_flagged(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "gen.py": """
                import numpy as np

                def sampler():
                    rng = np.random.default_rng(1234)
                    return rng.random()
                """
            },
        )
        result = lint_project([str(pkg)])
        flagged = _rules(result, "FLOW001")
        assert len(flagged) == 1
        assert "hardcoded seed" in flagged[0].message

    def test_flow001_param_seeded_is_clean(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "gen.py": """
                import numpy as np

                def sampler(seed):
                    rng = np.random.default_rng(seed)
                    return rng.random()
                """
            },
        )
        assert _rules(lint_project([str(pkg)]), "FLOW001") == []

    def test_flow002_dropped_rng_flagged(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "pipe.py": """
                import numpy as np
                from typing import Optional

                def helper(count, rng=None):
                    if rng is None:
                        rng = np.random.default_rng(count)
                    return rng.random()

                def caller(count, rng):
                    return helper(count)
                """
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FLOW002")
        assert len(flagged) == 1
        assert "without passing any" in flagged[0].message

    def test_flow002_threaded_rng_is_clean(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "pipe.py": """
                def helper(count, rng=None):
                    return count

                def caller(count, rng):
                    return helper(count, rng=rng)
                """
            },
        )
        assert _rules(lint_project([str(pkg)]), "FLOW002") == []

    def test_flow003_public_api_reaching_global_rng(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "api.py": """
                import numpy as np

                def _inner():
                    return np.random.random()

                def api():
                    return _inner()
                """
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FLOW003")
        assert any("api" in f.message and "_inner" in f.message for f in flagged)

    def test_flow003_unreachable_global_rng_not_blamed_on_api(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "api.py": """
                import numpy as np

                def _orphan():
                    return np.random.random()

                def api(x):
                    return x + 1
                """
            },
        )
        result = lint_project([str(pkg)])
        assert all("api" not in f.message for f in _rules(result, "FLOW003"))


FORK_PKG = {
    "work.py": """
    RESULTS = []

    def _crunch_task(item):
        RESULTS.append(item)
        return item
    """
}


class TestForkRules:
    def test_fork001_worker_global_write_flagged(self, tmp_path):
        pkg = _package(tmp_path, FORK_PKG)
        flagged = _rules(lint_project([str(pkg)]), "FORK001")
        assert len(flagged) == 1
        assert "RESULTS" in flagged[0].message
        assert "_crunch_task" in flagged[0].message

    def test_fork001_memo_guard_waived(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "memo.py": """
                _CACHE = {}

                def _memo_task(key):
                    if key in _CACHE:
                        return _CACHE[key]
                    _CACHE[key] = key * 2
                    return _CACHE[key]
                """
            },
        )
        assert _rules(lint_project([str(pkg)]), "FORK001") == []

    def test_fork001_non_worker_write_not_flagged(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "setup.py_": "",
                "config.py": """
                SETTINGS = {}

                def configure(key, value):
                    SETTINGS[key] = value
                """,
            },
        )
        assert _rules(lint_project([str(pkg)]), "FORK001") == []

    def test_fork001_marker_comment_makes_an_entry(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "work.py": """
                TOTALS = []

                def accumulate(item):  # lint: fork-entry
                    TOTALS.append(item)
                """
            },
        )
        assert len(_rules(lint_project([str(pkg)]), "FORK001")) == 1

    def test_fork001_reaches_through_call_graph(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "work.py": """
                STATE = {}

                def _poke(item):
                    STATE[item] = True

                def _deep_task(item):
                    return _helper(item)

                def _helper(item):
                    _poke(item)
                    return item
                """
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FORK001")
        assert len(flagged) == 1
        assert "_poke" in flagged[0].message

    def test_fork002_class_attribute_write(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "work.py": """
                class Tally:
                    total = 0

                def _tally_task(item):
                    Tally.total = item
                    return item
                """
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FORK002")
        assert len(flagged) == 1
        assert "Tally.total" in flagged[0].message

    def test_fork003_lambda_runner_flagged(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "pool.py": """
                def parallel_map(func, items, workers=2):
                    return [func(item) for item in items]
                """,
                "use.py": """
                from .pool import parallel_map

                def fan_out(items):
                    return parallel_map(lambda x: x + 1, items)
                """,
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FORK003")
        assert len(flagged) == 1
        assert "lambda" in flagged[0].message

    def test_fork003_closure_capturing_simulator(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "sim.py": """
                class Simulator:
                    def step(self, item):
                        return item
                """,
                "pool.py": """
                def parallel_map(func, items, workers=2):
                    return [func(item) for item in items]
                """,
                "use.py": """
                from .pool import parallel_map
                from .sim import Simulator

                def fan_out(items):
                    sim = Simulator()
                    def _loop(item):
                        return sim.step(item)
                    return parallel_map(_loop, items)
                """,
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FORK003")
        assert len(flagged) == 1
        assert "captures 'sim'" in flagged[0].message

    def test_fork003_payload_closure_is_fine(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "pool.py": """
                def parallel_map(func, items, workers=2):
                    return [func(item) for item in items]
                """,
                "use.py": """
                from .pool import parallel_map

                def fan_out(items, offset):
                    def _shift(item):
                        return item + offset
                    return parallel_map(_shift, items)
                """,
            },
        )
        assert _rules(lint_project([str(pkg)]), "FORK003") == []

    def test_fork004_generator_payload_flagged(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "pool.py": """
                def parallel_map(func, items, workers=2):
                    return [func(item) for item in items]
                """,
                "use.py": """
                from .pool import parallel_map

                def _double_task(item):
                    return item * 2

                def fan_out(items):
                    return parallel_map(_double_task, (i for i in items))
                """,
            },
        )
        flagged = _rules(lint_project([str(pkg)]), "FORK004")
        assert len(flagged) == 1
        assert "genexp" in flagged[0].message


STUB_FAST = """
def turbo(alpha, beta):
    return alpha + beta
"""

STUB_SLOW_OK = """
def turbo(alpha, beta):
    return alpha + beta
"""

STUB_SLOW_DRIFTED = """
def turbo(alpha, gamma):
    return alpha + gamma
"""


def _stub_pair(**overrides):
    base = dict(
        name="stub",
        fast_module="pkg.fast",
        legacy_module="pkg.slow",
        symbols=(("turbo", "turbo", ("alpha", "beta")),),
        evidence=("turbo_differential",),
    )
    base.update(overrides)
    return ParityPair(**base)


class TestParityRules:
    def test_par001_signature_drift_fails(self, tmp_path):
        pkg = _package(
            tmp_path, {"fast.py": STUB_FAST, "slow.py": STUB_SLOW_DRIFTED}
        )
        result = lint_project([str(pkg)], parity_pairs=[_stub_pair()])
        flagged = _rules(result, "PAR001")
        assert len(flagged) == 1
        assert "beta" in flagged[0].message

    def test_par001_missing_symbol_fails(self, tmp_path):
        pkg = _package(
            tmp_path, {"fast.py": STUB_FAST, "slow.py": "x = 1\n"}
        )
        result = lint_project([str(pkg)], parity_pairs=[_stub_pair()])
        assert any("missing" in f.message for f in _rules(result, "PAR001"))

    def test_par001_matching_pair_is_clean(self, tmp_path):
        pkg = _package(
            tmp_path, {"fast.py": STUB_FAST, "slow.py": STUB_SLOW_OK}
        )
        result = lint_project([str(pkg)], parity_pairs=[_stub_pair()])
        assert _rules(result, "PAR001") == []

    def test_par002_unpinned_pair_fails(self, tmp_path):
        pkg = _package(
            tmp_path, {"fast.py": STUB_FAST, "slow.py": STUB_SLOW_OK}
        )
        tests_dir = tmp_path / "tests"
        _write(tests_dir, "test_other.py", "def test_nothing(): pass\n")
        result = lint_project(
            [str(pkg)],
            parity_pairs=[_stub_pair()],
            tests_root=str(tests_dir),
        )
        flagged = _rules(result, "PAR002")
        assert len(flagged) == 1
        assert "turbo_differential" in flagged[0].message

    def test_par002_pinned_pair_is_clean(self, tmp_path):
        pkg = _package(
            tmp_path, {"fast.py": STUB_FAST, "slow.py": STUB_SLOW_OK}
        )
        tests_dir = tmp_path / "tests"
        _write(
            tests_dir,
            "test_turbo.py",
            "def test_turbo_differential(): pass\n",
        )
        result = lint_project(
            [str(pkg)],
            parity_pairs=[_stub_pair()],
            tests_root=str(tests_dir),
        )
        assert _rules(result, "PAR002") == []

    def test_par003_unregistered_legacy_class_fails(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "thing.py": """
                class Thing:
                    def run(self):
                        return 1

                class LegacyThing:
                    def run(self):
                        return 1
                """
            },
        )
        result = lint_project([str(pkg)], parity_pairs=[])
        flagged = _rules(result, "PAR003")
        assert len(flagged) == 1
        assert "LegacyThing" in flagged[0].message

    def test_par003_registered_pair_is_clean(self, tmp_path):
        pkg = _package(
            tmp_path,
            {
                "thing.py": """
                class Thing:
                    def run(self):
                        return 1

                class LegacyThing:
                    def run(self):
                        return 1
                """
            },
        )
        registered = _stub_pair(
            fast_module="pkg.thing",
            legacy_module="pkg.thing",
            symbols=(("Thing.run", "LegacyThing.run", ()),),
        )
        result = lint_project([str(pkg)], parity_pairs=[registered])
        assert _rules(result, "PAR003") == []

    def test_shipping_registry_covers_the_known_pairs(self):
        names = {pair.name for pair in PARITY_PAIRS}
        assert names == {
            "graph-metrics",
            "sharded-batch",
            "net-clock",
            "dissemination-plane",
            "broadcast-ledger",
        }


class TestBaselineRatchet:
    def test_new_finding_fails_check_via_cli(self, tmp_path, capsys):
        pkg = _package(tmp_path, {"clean.py": "def f(x):\n    return x\n"})
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(pkg), "--no-cache", "--baseline", "write",
                 "--baseline-file", str(baseline)]
            )
            == 0
        )
        # A synthetic new FORK finding appears: the ratchet must fail.
        _write(Path(pkg), "work.py", FORK_PKG["work.py"])
        code = lint_main(
            [str(pkg), "--no-cache", "--baseline", "check",
             "--baseline-file", str(baseline)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "NEW" in out
        assert "FORK001" in out

    def test_unchanged_findings_pass_check(self, tmp_path):
        pkg = _package(tmp_path, FORK_PKG)
        baseline = tmp_path / "baseline.json"
        result = lint_project([str(pkg)])
        assert not result.ok
        write_baseline(result.findings, str(baseline))
        report = check_baseline(result.findings, str(baseline))
        assert report.ok

    def test_fixed_findings_reported_for_ratchet_down(self, tmp_path):
        pkg = _package(tmp_path, FORK_PKG)
        baseline = tmp_path / "baseline.json"
        result = lint_project([str(pkg)])
        write_baseline(result.findings, str(baseline))
        report = check_baseline([], str(baseline))
        assert report.ok
        assert report.fixed_count == len(result.findings)

    def test_missing_baseline_is_an_invocation_error(self, tmp_path, capsys):
        pkg = _package(tmp_path, {"clean.py": "x = 1\n"})
        code = lint_main(
            [str(pkg), "--no-cache", "--baseline", "check",
             "--baseline-file", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "no baseline" in capsys.readouterr().err


class TestCache:
    def test_cache_reuses_results_and_feeds_project_pass(self, tmp_path):
        pkg = _package(tmp_path, FORK_PKG)
        cache_file = tmp_path / "cache.json"
        first = lint_project([str(pkg)], cache=ResultCache(str(cache_file)))
        assert cache_file.exists()
        second = lint_project([str(pkg)], cache=ResultCache(str(cache_file)))
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]
        assert any(f.rule == "FORK001" for f in second.findings)

    def test_content_change_invalidates_entry(self, tmp_path):
        pkg = _package(tmp_path, {"mod.py": "def f():\n    return 1\n"})
        cache_file = tmp_path / "cache.json"
        assert lint_project(
            [str(pkg)], cache=ResultCache(str(cache_file))
        ).ok
        _write(Path(pkg), "mod.py", "import random\n")
        result = lint_project([str(pkg)], cache=ResultCache(str(cache_file)))
        assert [f.rule for f in result.findings] == ["DET002"]


class TestChangedMode:
    def test_changed_reports_only_touched_files(self, tmp_path, capsys, monkeypatch):
        pkg = _package(
            tmp_path,
            {
                "stable.py": "import random\n",
                "touched.py": "def f():\n    return 1\n",
            },
        )
        monkeypatch.chdir(tmp_path)
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
        for command in (
            ["git", "init", "-q"],
            ["git", "add", "."],
            ["git", "commit", "-qm", "seed"],
        ):
            subprocess.run(command, check=True, cwd=tmp_path,
                           env={**__import__("os").environ, **env})
        _write(Path(pkg), "touched.py", "import random\n")
        code = lint_main(
            ["pkg", "--no-cache", "--changed", "--diff-base", "HEAD"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "touched.py" in out
        assert "stable.py" not in out


class TestSarif:
    def test_sarif_document_structure(self, tmp_path):
        pkg = _package(tmp_path, FORK_PKG)
        result = lint_project([str(pkg)])
        document = json.loads(render_sarif(result))
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert all(result_["ruleId"] in rule_ids for result_ in run["results"])
        for entry in run["results"]:
            assert entry["level"] == "error"
            assert entry["message"]["text"]
            (location,) = entry["locations"]
            region = location["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            assert location["physicalLocation"]["artifactLocation"]["uri"]

    def test_sarif_empty_run_is_valid(self, tmp_path):
        pkg = _package(tmp_path, {"ok.py": "x = 1\n"})
        document = json.loads(render_sarif(lint_project([str(pkg)])))
        assert document["runs"][0]["results"] == []


class TestSelfLint:
    def test_lint_and_parallel_are_clean_at_zero_suppressions(self):
        result = lint_project(
            [
                str(REPO_ROOT / "src" / "repro" / "lint"),
                str(REPO_ROOT / "src" / "repro" / "parallel"),
            ]
        )
        offenders = "\n".join(f.format_text() for f in result.findings)
        assert result.ok, f"lint/parallel findings:\n{offenders}"
        assert result.suppression_count == 0

    def test_committed_baseline_is_empty_and_honest(self):
        document = json.loads(
            (REPO_ROOT / ".lint-baseline.json").read_text(encoding="utf-8")
        )
        total = document["total"] + document["suppressions"]
        assert total < 23  # strictly fewer than the pre-PR suppressions
        assert document["fingerprints"] == {}
