"""Rule registry and the built-in determinism / hygiene rules.

Every rule is an :class:`ast.NodeVisitor` subclass registered under a
stable code (``DET...`` for determinism, ``HYG...`` for simulation
hygiene).  The engine instantiates one rule object per file, calls
:meth:`Rule.run`, and collects the findings.

Determinism rules encode the property the paper's evaluation rests on:
every random draw must flow from the experiment's single root seed
(:class:`repro.rng.RandomStreams`), simulated time must come from the
simulator (never the host clock), and no decision may depend on
hash-randomized iteration order.  See ``docs/linting.md`` for the full
catalog with rationale.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Type

from .findings import Finding

__all__ = [
    "Rule",
    "RULES",
    "register",
    "rule_codes",
    "resolve_imports",
    "qualified_name",
    "path_matches",
]


# ----------------------------------------------------------------------
# import resolution
# ----------------------------------------------------------------------


def resolve_imports(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted paths they were imported as.

    ``import numpy as np``           -> ``{"np": "numpy"}``
    ``import numpy.random as npr``   -> ``{"npr": "numpy.random"}``
    ``from numpy import random``     -> ``{"random": "numpy.random"}``
    ``from time import time as now`` -> ``{"now": "time.time"}``

    Every import statement in the file is tracked, function-local ones
    included, in one flat table; when a name is imported twice, the
    target of the last import ``ast.walk`` reaches stands (good enough
    for lint heuristics).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the top-level package name.
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never shadow stdlib/numpy
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def qualified_name(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve an attribute chain to a dotted path via import aliases.

    Returns None when the chain does not bottom out at an imported
    name (e.g. a method call on a local variable).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = aliases.get(current.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# rule base + registry
# ----------------------------------------------------------------------


def path_matches(path: str, fragments: Sequence[str]) -> bool:
    """Whether the POSIX form of ``path`` contains any of ``fragments``.

    The one idiom for scoping a rule to, or exempting it from, part of
    the tree: a tuple of path fragments on the rule class, each with its
    reason beside it.
    """
    normalized = path.replace("\\", "/")
    return any(fragment in normalized for fragment in fragments)


class Rule(ast.NodeVisitor):
    """Base class for one lint rule over one file.

    Subclasses set ``code``, ``name``, and ``rationale``, then override
    visitor methods and call :meth:`report`.  ``applies_to_path`` lets a
    rule scope itself to part of the tree (HYG003 checks only
    ``MissingSlots.HOT_PATHS``; DET003 skips ``HostClock.EXEMPT_PATHS``).
    The engine parses the file and resolves its imports once and hands
    both to every rule.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def __init__(self, path: str, tree: ast.AST, aliases: Dict[str, str]) -> None:
        self.path = path
        self.tree = tree
        self.aliases = aliases
        self.findings: List[Finding] = []

    @classmethod
    def applies_to_path(cls, path: str) -> bool:
        """Whether this rule runs at all for ``path`` (default: yes)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at ``node``."""
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                rule=self.code,
                message=message,
            )
        )

    def run(self) -> List[Finding]:
        """Visit the tree and return the findings."""
        self.visit(self.tree)
        return self.findings


RULES: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.code:
        raise ValueError(f"{rule_class.__name__} has no code")
    if rule_class.code in RULES:
        raise ValueError(f"duplicate rule code {rule_class.code}")
    RULES[rule_class.code] = rule_class
    return rule_class


def rule_codes() -> List[str]:
    """All registered rule codes, sorted."""
    return sorted(RULES)


# ----------------------------------------------------------------------
# DET001 — generators that do not derive from the root seed
# ----------------------------------------------------------------------

#: Module-level numpy convenience functions drawing from the hidden
#: global ``RandomState`` (plus ``seed``, which mutates it).
_NP_GLOBAL_FUNCS: FrozenSet[str] = frozenset(
    f"numpy.random.{name}"
    for name in (
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "bytes",
    )
)


#: numpy constructors that seed themselves from OS entropy when their
#: seed argument is absent or ``None``.
_NP_SEEDED_CTORS: FrozenSet[str] = frozenset(
    f"numpy.random.{name}"
    for name in (
        "default_rng",
        "RandomState",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    )
)

#: Stdlib reads of OS entropy or host identity (plus all of ``secrets``).
_OS_ENTROPY_CALLS: FrozenSet[str] = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
)


def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed a generator constructor was called with, if any."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return keyword.value
    return None


def _is_literal(node: Optional[ast.expr]) -> bool:
    """A constant, or a signed constant such as ``-1``."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


@register
class UnseededRng(Rule):
    """A generator that does not derive from the experiment's root seed."""

    code = "DET001"
    name = "unseeded-rng"
    rationale = (
        "Every generator must derive from the experiment's root seed "
        "(repro.rng.RandomStreams).  OS-entropy generators and the hidden "
        "global RandomState make runs unreproducible; a generator built "
        "from a literal seed is reproducible but deaf to the root seed, "
        "so sweep points with different seeds share its draws."
    )

    #: Where a literal seed is legitimate, and why.
    LITERAL_SEED_PATHS = (
        "repro/rng.py",  # the stream factory; fallback_rng's root is a constant
        "repro/config.py",  # defines DEFAULT_SEED
        "examples/",  # an entry point's literal *is* its root seed
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = qualified_name(node.func, self.aliases)
        # RandomStreams by its bare name: relative imports do not resolve.
        streams = "RandomStreams" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        )
        if streams:
            qualified = "RandomStreams"
        if streams or qualified in _NP_SEEDED_CTORS:
            seed = _seed_argument(node)
            # RandomStreams has no OS-entropy default (it requires an int).
            if not streams and (
                (seed is None and not node.keywords)
                or (isinstance(seed, ast.Constant) and seed.value is None)
            ):
                self.report(
                    node,
                    f"unseeded {qualified}() draws from OS entropy; "
                    "pass a seed or a RandomStreams substream "
                    "(e.g. repro.rng.fallback_rng(...))",
                )
            elif _is_literal(seed) and not path_matches(
                self.path, self.LITERAL_SEED_PATHS
            ):
                self.report(
                    node,
                    f"{qualified}() is built from a hardcoded seed, so the "
                    "experiment's root seed never reaches its draws; derive "
                    "it from a RandomStreams parameter or "
                    "repro.rng.fallback_rng",
                )
        elif qualified in _NP_GLOBAL_FUNCS:
            self.report(
                node,
                f"{qualified}() uses numpy's hidden global RandomState; "
                "draw from an explicit np.random.Generator instead",
            )
        elif qualified in _OS_ENTROPY_CALLS or (
            qualified is not None and qualified.startswith("secrets.")
        ):
            self.report(
                node,
                f"{qualified}() reads OS entropy or host identity; no seed "
                "can replay it.  Draw identifiers and bytes from a "
                "RandomStreams substream",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET002 — the stdlib random module
# ----------------------------------------------------------------------


@register
class GlobalRandomModule(Rule):
    """Any use of the stdlib ``random`` module."""

    code = "DET002"
    name = "stdlib-random"
    rationale = (
        "The stdlib random module keeps interpreter-global state that any "
        "import can perturb; simulation code must draw from numpy "
        "Generators threaded from RandomStreams."
    )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "import of the stdlib random module; use numpy "
                    "Generators from repro.rng.RandomStreams",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module == "random":
            self.report(
                node,
                "import from the stdlib random module; use numpy "
                "Generators from repro.rng.RandomStreams",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        qualified = qualified_name(node.func, self.aliases)
        if qualified is not None and (
            qualified == "random" or qualified.startswith("random.")
        ):
            self.report(
                node,
                f"call into the stdlib random module ({qualified}); use an "
                "explicit numpy Generator",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET003 — host-clock reads
# ----------------------------------------------------------------------

_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class HostClock(Rule):
    """Host-clock reads in simulation code paths."""

    code = "DET003"
    name = "host-clock"
    rationale = (
        "Simulated time comes from Simulator.now; host-clock reads leak "
        "wall-clock nondeterminism into results.  Code whose job is wall "
        "time is listed, with its reason, in HostClock.EXEMPT_PATHS."
    )

    #: Where reading the host clock is the job, and why.
    EXEMPT_PATHS = (
        "repro/net/",  # the live mesh: WallClock *is* time.monotonic()
        "repro/cli.py",  # progress display to the terminal, never in results
        "benchmarks/",  # they time things by design
    )

    @classmethod
    def applies_to_path(cls, path: str) -> bool:
        return not path_matches(path, cls.EXEMPT_PATHS)

    def visit_Call(self, node: ast.Call) -> None:
        qualified = qualified_name(node.func, self.aliases)
        if qualified in _CLOCK_CALLS:
            self.report(
                node,
                f"{qualified}() reads the host clock; simulation code must "
                "use the simulator's clock (sim.now).  Wall-time code "
                "belongs under one of HostClock.EXEMPT_PATHS "
                "(repro/lint/rules.py)",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET004 — set iteration feeding RNG-driven logic
# ----------------------------------------------------------------------

_SET_TYPE_NAMES: FrozenSet[str] = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    """Whether an annotation names a set type (possibly subscripted)."""
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_TYPE_NAMES
    if isinstance(target, ast.Name):
        return target.id in _SET_TYPE_NAMES
    if isinstance(target, ast.Constant) and isinstance(target.value, str):
        # String annotations: match the leading type name.
        head = target.value.split("[")[0].split(".")[-1].strip()
        return head in _SET_TYPE_NAMES
    return False


def _is_set_expression(node: ast.AST, set_names: FrozenSet[str]) -> bool:
    """Whether ``node`` evaluates to a set, as far as we can tell."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset") and bool(
            node.args or node.keywords
        )
    return False


def _mentions_rng(node: ast.AST) -> bool:
    """Whether an expression looks like a random generator object."""
    if isinstance(node, ast.Name):
        return "rng" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "rng" in node.attr.lower()
    return False


#: The draw callables of :class:`repro.rng.ScalarDraws`.  Hot loops
#: bind them to locals (``below = draws.below``) or pass them on as
#: arguments, so a call through one of these names is a draw too.
_HELPER_DRAWS: FrozenSet[str] = frozenset({"below", "random"})


def _draw_names(scope: Sequence[ast.AST]) -> FrozenSet[str]:
    """Helper draw names plus the locals bound to a helper draw.

    ``draw = draws.below`` and ``below, random = draws.below,
    draws.random`` both bind draw callables.
    """
    names = set(_HELPER_DRAWS)
    for node in scope:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = list(zip(target.elts, node.value.elts))
            for name, value in pairs:
                if (
                    isinstance(name, ast.Name)
                    and isinstance(value, ast.Attribute)
                    and value.attr in _HELPER_DRAWS
                ):
                    names.add(name.id)
    return frozenset(names)


def _is_draw(node: ast.AST, draw_names: FrozenSet[str]) -> bool:
    """Whether a call draws randomness, as far as we can tell: a method
    on something named ``*rng*``, or a helper draw reached as an
    attribute (``draws.below(n)``) or through a name (``below(n)``)."""
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    if isinstance(callee, ast.Attribute):
        return _mentions_rng(callee.value) or callee.attr in _HELPER_DRAWS
    return isinstance(callee, ast.Name) and callee.id in draw_names


def _walk_scope(func: ast.AST):
    """Walk a function's body without descending into nested functions."""
    from collections import deque as _deque

    queue = _deque(ast.iter_child_nodes(func))
    while queue:
        node = queue.popleft()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        queue.extend(ast.iter_child_nodes(node))


@register
class SetOrderFeedsRng(Rule):
    """Set iteration inside a function that also draws randomness."""

    code = "DET004"
    name = "set-order-into-rng"
    rationale = (
        "Set iteration order depends on hashing; when the iterated "
        "sequence feeds an RNG-driven choice (indexing, permutation, "
        "overlay ordering), replay diverges even under a fixed seed.  "
        "Iterate sorted(the_set) instead."
    )

    def _check_function(self, func: ast.AST) -> None:
        scope = list(_walk_scope(func))
        draw_names = _draw_names(scope)
        if not any(_is_draw(node, draw_names) for node in scope):
            return

        set_names = set()
        args = func.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if _is_set_annotation(arg.annotation):
                set_names.add(arg.arg)
        for node in scope:
            if isinstance(node, ast.Assign) and _is_set_expression(
                node.value, frozenset()
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None
                    and _is_set_expression(node.value, frozenset())
                ):
                    set_names.add(node.target.id)
        frozen_names = frozenset(set_names)

        for node in scope:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter, frozen_names):
                    self._flag(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if _is_set_expression(generator.iter, frozen_names):
                        self._flag(generator.iter)
            elif isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Name)
                    and callee.id in ("list", "tuple")
                    and node.args
                    and _is_set_expression(node.args[0], frozen_names)
                ):
                    self._flag(node.args[0])

    def _flag(self, node: ast.AST) -> None:
        self.report(
            node,
            "iteration order of a set feeds RNG-driven logic in this "
            "function; iterate sorted(...) for replay-stable order",
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


# ----------------------------------------------------------------------
# HYG001 — mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES: FrozenSet[str] = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)


@register
class MutableDefault(Rule):
    """Mutable default argument values."""

    code = "HYG001"
    name = "mutable-default"
    rationale = (
        "A mutable default is shared across calls; state leaks between "
        "invocations and, in simulation code, between runs in the same "
        "process.  Use None plus an in-body default."
    )

    def _check_defaults(self, node: ast.AST) -> None:
        args = node.args
        defaults = list(args.defaults) + [
            default for default in args.kw_defaults if default is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self.report(
                    default,
                    "mutable default argument (literal); use None and "
                    "create the value inside the function",
                )
            elif isinstance(default, ast.Call):
                callee = default.func
                name = None
                if isinstance(callee, ast.Name):
                    name = callee.id
                elif isinstance(callee, ast.Attribute):
                    name = callee.attr
                if name in _MUTABLE_FACTORIES:
                    self.report(
                        default,
                        f"mutable default argument ({name}(...)); use None "
                        "and create the value inside the function",
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# HYG002 — bare / broad except
# ----------------------------------------------------------------------


def _contains_raise(body: Sequence[ast.stmt]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise):
                return True
    return False


@register
class BroadExcept(Rule):
    """Bare ``except:`` and non-re-raising ``except Exception:``."""

    code = "HYG002"
    name = "broad-except"
    rationale = (
        "A swallowed exception turns a deterministic crash into silent "
        "state corruption that differs between runs.  Catch something "
        "specific, or re-raise."
    )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare 'except:' catches everything including "
                "KeyboardInterrupt; name the exceptions you expect",
            )
        else:
            names: List[str] = []
            targets = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
                elif isinstance(target, ast.Attribute):
                    names.append(target.attr)
            broad = {"Exception", "BaseException"} & set(names)
            if broad and not _contains_raise(node.body):
                self.report(
                    node,
                    f"broad 'except {sorted(broad)[0]}:' without re-raise "
                    "swallows unexpected failures; narrow it or re-raise",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# HYG003 — missing __slots__ on hot-path classes
# ----------------------------------------------------------------------


@register
class MissingSlots(Rule):
    """Classes under :attr:`HOT_PATHS` that store state without ``__slots__``."""

    code = "HYG003"
    name = "missing-slots"
    rationale = (
        "repro.core objects exist once per node (thousands per run) and "
        "repro.privlink objects sit on the per-message path; "
        "per-instance __dict__s dominate memory and slow attribute "
        "access.  Declare __slots__ (dataclasses are exempt: the "
        "decorator is visible to the linter)."
    )

    #: Path fragments marking hot-path modules.
    HOT_PATHS = ("repro/core/", "repro/privlink/")

    @classmethod
    def applies_to_path(cls, path: str) -> bool:
        return path_matches(path, cls.HOT_PATHS)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.decorator_list:
            self.generic_visit(node)
            return  # dataclasses & friends manage their own layout
        has_slots = any(
            (
                isinstance(statement, ast.Assign)
                and any(
                    isinstance(target, ast.Name) and target.id == "__slots__"
                    for target in statement.targets
                )
            )
            or (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.target.id == "__slots__"
            )
            for statement in node.body
        )
        if not has_slots and self._assigns_instance_attributes(node):
            self.report(
                node,
                f"class {node.name} in a hot path stores instance "
                "attributes but declares no __slots__",
            )
        self.generic_visit(node)

    @staticmethod
    def _assigns_instance_attributes(node: ast.ClassDef) -> bool:
        for statement in node.body:
            if (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "__init__"
            ):
                for inner in ast.walk(statement):
                    targets: List[ast.expr] = []
                    if isinstance(inner, ast.Assign):
                        targets = list(inner.targets)
                    elif isinstance(inner, ast.AnnAssign):
                        targets = [inner.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            return True
        return False
