"""Per-rule unit tests for the repro.lint rule set.

Each rule gets positive fixtures (must flag) and negative fixtures
(must stay silent), exercised through :func:`repro.lint.lint_source`.
"""

import textwrap

import pytest

from repro.lint import lint_source, select_rules


def _lint(source, rules=None, path="src/repro/somewhere/module.py"):
    selected = select_rules(rules) if rules is not None else None
    return lint_source(textwrap.dedent(source), path=path, rules=selected)


def _codes(findings):
    return [finding.rule for finding in findings]


class TestDet001UnseededNumpy:
    def test_flags_unseeded_default_rng(self):
        findings = _lint(
            """
            import numpy as np

            def f():
                rng = np.random.default_rng()
                return rng.random()
            """
        )
        assert _codes(findings) == ["DET001"]
        assert findings[0].line == 5

    def test_flags_plain_numpy_import(self):
        findings = _lint(
            """
            import numpy

            rng = numpy.random.default_rng()
            """
        )
        assert _codes(findings) == ["DET001"]

    def test_flags_from_import_alias(self):
        findings = _lint(
            """
            from numpy.random import default_rng

            rng = default_rng()
            """
        )
        assert _codes(findings) == ["DET001"]

    def test_flags_unseeded_randomstate(self):
        findings = _lint(
            """
            import numpy as np

            state = np.random.RandomState()
            """
        )
        assert _codes(findings) == ["DET001"]

    def test_flags_global_convenience_calls(self):
        findings = _lint(
            """
            import numpy as np

            def f(items):
                np.random.seed(0)
                np.random.shuffle(items)
                return np.random.random()
            """
        )
        assert _codes(findings) == ["DET001", "DET001", "DET001"]

    def test_seeded_default_rng_is_fine(self):
        # At an entry point the literal *is* the run's root seed.
        findings = _lint(
            """
            import numpy as np

            rng = np.random.default_rng(42)
            other = np.random.default_rng(seed=7)
            """,
            path="examples/demo.py",
        )
        assert findings == []

    def test_flags_hardcoded_seed_in_library_code(self):
        findings = _lint(
            """
            import numpy as np
            from ..rng import RandomStreams

            def sampler():
                rng = np.random.default_rng(1234)
                return rng.random(), RandomStreams(seed=-7)
            """
        )
        assert _codes(findings) == ["DET001", "DET001"]
        assert all("hardcoded seed" in f.message for f in findings)

    def test_param_seeded_is_fine(self):
        findings = _lint(
            """
            import numpy as np
            from ..rng import RandomStreams

            def sampler(seed, config):
                rng = np.random.default_rng(seed)
                return rng.random(), RandomStreams(config.seed)
            """
        )
        assert findings == []

    def test_literal_seed_inside_rng_module_is_fine(self):
        findings = _lint(
            """
            import numpy as np

            rng = np.random.default_rng(1234)
            """,
            path="src/repro/rng.py",
        )
        assert findings == []

    def test_flags_none_seed(self):
        findings = _lint(
            """
            import numpy as np

            rng = np.random.default_rng(None)
            other = np.random.default_rng(seed=None)
            """,
            path="src/repro/rng.py",
        )
        assert _codes(findings) == ["DET001", "DET001"]
        assert all("OS entropy" in f.message for f in findings)

    def test_flags_bare_seedsequence_and_bit_generators(self):
        findings = _lint(
            """
            import numpy as np
            from numpy.random import Philox

            seq = np.random.SeedSequence()
            rng = np.random.Generator(np.random.PCG64())
            other = np.random.Generator(Philox())
            """
        )
        assert _codes(findings) == ["DET001", "DET001", "DET001"]

    def test_seeded_bit_generators_are_fine(self):
        findings = _lint(
            """
            import numpy as np

            def make(seed, key):
                seq = np.random.SeedSequence(seed)
                first = np.random.Generator(np.random.PCG64(seq))
                return first, np.random.Philox(key=key)
            """
        )
        assert findings == []

    def test_flags_stdlib_entropy_sources(self):
        findings = _lint(
            """
            import os
            import secrets
            import uuid
            from uuid import uuid1

            def ident():
                return os.urandom(8), uuid.uuid4(), uuid1(), secrets.token_hex(4)
            """
        )
        assert _codes(findings) == ["DET001"] * 4

    def test_deterministic_stdlib_neighbours_are_fine(self):
        findings = _lint(
            """
            import os
            import uuid

            def ident(name):
                return os.path.basename(name), uuid.uuid5(uuid.NAMESPACE_DNS, name)
            """
        )
        assert findings == []

    def test_seedsequence_construction_is_fine(self):
        findings = _lint(
            """
            import numpy as np

            seq = np.random.SeedSequence(entropy=[1, 2])
            rng = np.random.default_rng(seq)
            """
        )
        assert findings == []

    def test_generator_method_calls_are_fine(self):
        findings = _lint(
            """
            def f(rng):
                return rng.choice(10), rng.random(), rng.shuffle([1, 2])
            """
        )
        assert findings == []


class TestDet002StdlibRandom:
    def test_flags_import(self):
        findings = _lint("import random\n")
        assert _codes(findings) == ["DET002"]

    def test_flags_from_import(self):
        findings = _lint("from random import choice\n")
        assert _codes(findings) == ["DET002"]

    def test_flags_call_through_import(self):
        findings = _lint(
            """
            import random

            def f():
                return random.random()
            """
        )
        assert _codes(findings) == ["DET002", "DET002"]

    def test_numpy_random_submodule_not_confused(self):
        # ``from numpy import random`` binds the *numpy* random module.
        findings = _lint(
            """
            from numpy import random

            def f(items, seed):
                rng = random.default_rng(seed)
                return rng.choice(items)
            """
        )
        assert findings == []

    def test_local_variable_named_random_is_fine(self):
        findings = _lint(
            """
            def f(random):
                return random.thing()
            """
        )
        assert findings == []


class TestDet003HostClock:
    def test_flags_time_time(self):
        findings = _lint(
            """
            import time

            def f():
                return time.time()
            """
        )
        assert _codes(findings) == ["DET003"]

    def test_flags_monotonic_and_perf_counter(self):
        findings = _lint(
            """
            import time

            def f():
                return time.monotonic() + time.perf_counter()
            """
        )
        assert _codes(findings) == ["DET003", "DET003"]

    def test_flags_datetime_now_and_utcnow(self):
        findings = _lint(
            """
            from datetime import datetime

            def f():
                return datetime.now(), datetime.utcnow()
            """
        )
        assert _codes(findings) == ["DET003", "DET003"]

    def test_flags_datetime_module_form(self):
        findings = _lint(
            """
            import datetime

            stamp = datetime.datetime.now()
            """
        )
        assert _codes(findings) == ["DET003"]

    def test_from_time_import_alias(self):
        findings = _lint(
            """
            from time import time as wall

            def f():
                return wall()
            """
        )
        assert _codes(findings) == ["DET003"]

    def test_exempt_paths_are_not_checked(self):
        source = """
            import time

            started = time.perf_counter()
            """
        assert _codes(_lint(source, path="src/repro/core/batch.py")) == ["DET003"]
        assert _codes(_lint(source, path="src/repro/lint/cli.py")) == ["DET003"]
        for exempt in (
            "src/repro/cli.py",
            "src/repro/net/clock.py",
            "benchmarks/bench_scale_million.py",
        ):
            assert _lint(source, path=exempt) == []

    def test_time_sleep_is_fine(self):
        findings = _lint(
            """
            import time

            def f():
                time.sleep(0.1)
            """
        )
        assert findings == []

    def test_simulator_now_is_fine(self):
        findings = _lint(
            """
            def f(sim):
                return sim.now
            """
        )
        assert findings == []


class TestDet004SetOrder:
    def test_flags_comprehension_over_set_param_with_rng(self):
        findings = _lint(
            """
            from typing import Set

            def pick(sampled: Set[int], rng):
                candidates = [node for node in sampled if node > 0]
                return candidates[int(rng.integers(0, len(candidates)))]
            """
        )
        assert _codes(findings) == ["DET004"]

    def test_flags_for_loop_over_set_literal(self):
        findings = _lint(
            """
            def f(rng):
                total = 0
                for item in {1, 2, 3}:
                    total += int(rng.integers(0, item))
                return total
            """
        )
        assert _codes(findings) == ["DET004"]

    def test_flags_list_of_set_into_rng(self):
        findings = _lint(
            """
            def f(rng, items):
                pool = set(items)
                return rng.choice(list(pool))
            """
        )
        assert _codes(findings) == ["DET004"]

    def test_sorted_iteration_is_fine(self):
        findings = _lint(
            """
            from typing import Set

            def pick(sampled: Set[int], rng):
                candidates = [node for node in sampled_sorted(sampled)]
                ordered = sorted(sampled)
                for node in ordered:
                    pass
                return ordered[int(rng.integers(0, len(ordered)))]

            def sampled_sorted(sampled):
                return sorted(sampled)
            """
        )
        assert findings == []

    def test_set_iteration_without_rng_is_fine(self):
        # Order-insensitive consumption (e.g. building a graph) is legal.
        findings = _lint(
            """
            def f(items):
                seen = set(items)
                return [item for item in seen]
            """
        )
        assert findings == []

    def test_membership_tests_are_fine(self):
        findings = _lint(
            """
            def f(rng, items):
                seen = set(items)
                return [rng.integers(0, x) for x in items if x in seen]
            """
        )
        assert findings == []


class TestDet004HelperDraws:
    """Draws through :class:`repro.rng.ScalarDraws` count as draws."""

    #: One function per way a loop reaches a helper draw; ``ITEMS``
    #: is the iterated expression.
    DRAWS = {
        "bound-locals": """
            from repro.rng import ScalarDraws

            def pick(rng, items):
                draws = ScalarDraws(rng)
                below, random = draws.below, draws.random
                pool = set(items)
                candidates = [item for item in ITEMS if random() < 0.5]
                return candidates[below(len(candidates))]
            """,
        "attribute": """
            from repro.rng import ScalarDraws

            def pick(rng, items):
                draws = ScalarDraws(rng)
                pool = set(items)
                candidates = list(ITEMS)
                return candidates[draws.below(len(candidates))]
            """,
        "alias": """
            from repro.rng import ScalarDraws

            def pick(rng, items):
                draw = ScalarDraws(rng).below
                pool = set(items)
                candidates = []
                for item in ITEMS:
                    candidates.append(item)
                return candidates[draw(len(candidates))]
            """,
        "parameter": """
            from typing import Set

            def pick(below, pool: Set[int]):
                candidates = [item for item in ITEMS]
                return candidates[below(len(candidates))]
            """,
    }

    @pytest.mark.parametrize("form", sorted(DRAWS))
    def test_flags_set_iteration(self, form):
        findings = _lint(self.DRAWS[form].replace("ITEMS", "pool"))
        assert _codes(findings) == ["DET004"]

    @pytest.mark.parametrize("form", sorted(DRAWS))
    def test_sorted_iteration_is_fine(self, form):
        findings = _lint(self.DRAWS[form].replace("ITEMS", "sorted(pool)"))
        assert findings == []


class TestHyg001MutableDefault:
    def test_flags_list_dict_set_literals(self):
        findings = _lint(
            """
            def f(a=[], b={}, c={1, 2}):
                return a, b, c
            """
        )
        assert _codes(findings) == ["HYG001", "HYG001", "HYG001"]

    def test_flags_factory_calls(self):
        findings = _lint(
            """
            def f(a=list(), b=dict()):
                return a, b
            """
        )
        assert _codes(findings) == ["HYG001", "HYG001"]

    def test_flags_kwonly_defaults(self):
        findings = _lint(
            """
            def f(*, registry=[]):
                return registry
            """
        )
        assert _codes(findings) == ["HYG001"]

    def test_none_and_immutable_defaults_are_fine(self):
        findings = _lint(
            """
            def f(a=None, b=(), c=0, d="x", e=frozenset()):
                return a, b, c, d, e
            """
        )
        assert findings == []


class TestHyg002BroadExcept:
    def test_flags_bare_except(self):
        findings = _lint(
            """
            def f():
                try:
                    return 1
                except:
                    return 2
            """
        )
        assert _codes(findings) == ["HYG002"]

    def test_flags_broad_except_without_reraise(self):
        findings = _lint(
            """
            def f():
                try:
                    return 1
                except Exception:
                    return 2
            """
        )
        assert _codes(findings) == ["HYG002"]

    def test_broad_except_with_reraise_is_fine(self):
        findings = _lint(
            """
            def f():
                try:
                    return 1
                except Exception:
                    raise
            """
        )
        assert findings == []

    def test_specific_except_is_fine(self):
        findings = _lint(
            """
            def f():
                try:
                    return 1
                except (ValueError, KeyError):
                    return 2
            """
        )
        assert findings == []


class TestHyg003MissingSlots:
    CORE_PATH = "src/repro/core/example.py"

    def test_flags_core_class_without_slots(self):
        findings = _lint(
            """
            class Holder:
                def __init__(self):
                    self.value = 1
            """,
            path=self.CORE_PATH,
        )
        assert _codes(findings) == ["HYG003"]

    def test_slotted_class_is_fine(self):
        findings = _lint(
            """
            class Holder:
                __slots__ = ("value",)

                def __init__(self):
                    self.value = 1
            """,
            path=self.CORE_PATH,
        )
        assert findings == []

    def test_dataclass_is_exempt(self):
        findings = _lint(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Point:
                x: int
                y: int
            """,
            path=self.CORE_PATH,
        )
        assert findings == []

    def test_stateless_class_is_fine(self):
        findings = _lint(
            """
            class Namespace:
                CONSTANT = 7

                def method(self):
                    return self.CONSTANT
            """,
            path=self.CORE_PATH,
        )
        assert findings == []

    def test_rule_is_scoped_to_core(self):
        source = """
            class Holder:
                def __init__(self):
                    self.value = 1
            """
        assert _lint(source, path="src/repro/experiments/example.py") == []
        assert _codes(_lint(source, path="src/repro/privlink/example.py")) == [
            "HYG003"
        ]
