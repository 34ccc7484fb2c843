"""PAR rules: fast/legacy dual-implementation parity drift.

Several hot paths keep a second implementation as an executable
reference or as a sibling with the same driving surface: the CSR graph
kernels next to the networkx metrics, the sharded engine next to the
serial batch engine, the batch dissemination plane next to the object
disseminators, the wall clock next to the simulator clock.  Each pair
is pinned by a differential or golden-hash test — the whole reason a
fast path is trustworthy.

These rules keep that contract from rotting:

* PAR001 — a registered pair's symbols drifted: one side disappeared,
  or a must-share parameter was renamed/reordered on one side only.
* PAR002 — a registered pair has no test evidence: no file under the
  test tree mentions all of the pair's evidence tokens, so nothing
  differentially pins it anymore.
* PAR003 — an *unregistered* dual implementation: a ``LegacyX`` class
  coexists with ``X`` but no registry entry covers it, so a new fast
  path shipped without a parity pin.

Register new pairs in :data:`PARITY_PAIRS` (tests may inject their own
registry through :class:`~repro.lint.project.ProjectRuleContext`).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .findings import Finding
from .project import (
    ProjectIndex,
    ProjectRule,
    ProjectRuleContext,
    register_project_rule,
)

__all__ = ["ParityPair", "PARITY_PAIRS", "Par001", "Par002", "Par003"]


@dataclasses.dataclass(frozen=True)
class ParityPair:
    """One fast/legacy dual implementation under parity contract.

    ``symbols`` maps fast symbols to their legacy counterparts as
    ``(fast_symbol, legacy_symbol, must_share)`` triples; symbols are
    ``"function"`` or ``"Class.method"`` names inside the respective
    module.  ``must_share`` lists parameter names that must appear in
    *both* signatures in the same relative order (the carrier argument
    — ``self`` vs ``graph`` — legitimately differs, so full signature
    equality is not required).  ``evidence`` lists tokens that must
    co-occur in at least one test file for the pair to count as pinned.
    """

    name: str
    fast_module: str
    legacy_module: str
    symbols: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    evidence: Tuple[str, ...]


#: The shipping registry.
PARITY_PAIRS: Tuple[ParityPair, ...] = (
    ParityPair(
        name="graph-metrics",
        fast_module="repro.graphs.fastgraph",
        legacy_module="repro.graphs.metrics",
        symbols=(
            (
                "SnapshotAnalysis.fraction_disconnected",
                "fraction_disconnected",
                (),
            ),
            (
                "SnapshotAnalysis.average_path_length",
                "average_path_length",
                ("sample_sources", "rng"),
            ),
            (
                "SnapshotAnalysis.normalized_path_length",
                "normalized_path_length",
                ("total_nodes", "sample_sources", "rng"),
            ),
            ("SnapshotAnalysis.degree_histogram", "degree_histogram", ()),
        ),
        evidence=("fastgraph", "fraction_disconnected"),
    ),
    # PR 8: the live-network layer.  WallClock must keep the exact
    # scheduling surface of SimClock — the protocol objects are driven
    # through the shared Clock contract, so a parameter renamed on one
    # side silently forks sim and live behavior.
    # PR 9: the sharded simulation engine.  ShardedOverlay spreads one
    # BatchOverlay run across forked workers and must keep its exact
    # driving surface — the serial-equivalence golden test compares the
    # two through these methods, so a drifted signature means the test
    # no longer exercises the same run.
    ParityPair(
        name="sharded-batch",
        fast_module="repro.parallel.shard",
        legacy_module="repro.core.batch",
        symbols=(
            ("ShardedOverlay.run", "BatchOverlay.run", ("rounds",)),
            ("ShardedOverlay.state_digest", "BatchOverlay.state_digest", ()),
            ("ShardedOverlay.snapshot", "BatchOverlay.snapshot", ("online_only",)),
            ("ShardedOverlay.stats", "BatchOverlay.stats", ()),
            (
                "ShardedOverlay.build",
                "BatchOverlay.build",
                ("config", "extra_edges_per_node", "start_all_online"),
            ),
        ),
        evidence=("ShardedOverlay", "state_digest"),
    ),
    # PR 10: the vectorized dissemination plane.  The batch engine is
    # pinned byte-identical to the object-plane disseminators in
    # counter-sampling mode (same delivery sets, rounds, and forward
    # counts — TestDifferentialExactness in
    # tests/test_dissemination_batch.py fails on divergence), and
    # the columnar ledger's record views must keep BroadcastRecord's
    # reporting surface so coverage_report runs on either plane.
    ParityPair(
        name="dissemination-plane",
        fast_module="repro.dissemination.batch",
        legacy_module="repro.dissemination.epidemic",
        symbols=(
            (
                "BatchBroadcastEngine.__init__",
                "EpidemicBroadcast.__init__",
                ("fanout", "ttl", "infect_forever"),
            ),
            (
                "BatchBroadcastEngine.broadcast",
                "EpidemicBroadcast.broadcast",
                ("origin_id", "payload"),
            ),
        ),
        evidence=("BatchBroadcastEngine", "EpidemicBroadcast"),
    ),
    ParityPair(
        name="broadcast-ledger",
        fast_module="repro.dissemination.batch",
        legacy_module="repro.dissemination.base",
        symbols=(
            (
                "LedgerRecordView.latency_of",
                "BroadcastRecord.latency_of",
                ("node_id",),
            ),
            (
                "LedgerRecordView.coverage",
                "BroadcastRecord.coverage",
                ("num_nodes",),
            ),
            (
                "LedgerRecordView.latency_percentile",
                "BroadcastRecord.latency_percentile",
                ("q",),
            ),
        ),
        evidence=("LedgerRecordView", "BroadcastRecord"),
    ),
    ParityPair(
        name="net-clock",
        fast_module="repro.net.clock",
        legacy_module="repro.sim.clock",
        symbols=(
            ("WallClock.schedule", "SimClock.schedule", ("time", "callback")),
            (
                "WallClock.schedule_after",
                "SimClock.schedule_after",
                ("delay", "callback"),
            ),
            ("WallClock.post", "SimClock.post", ("time", "callback")),
            (
                "WallClock.post_after",
                "SimClock.post_after",
                ("delay", "callback"),
            ),
        ),
        evidence=("WallClock", "SimClock"),
    ),
)


def _lookup_params(
    index: ProjectIndex, module: str, symbol: str
) -> Optional[List[str]]:
    """Parameter names of ``module.symbol``, or None when missing."""
    summary = index.modules.get(module)
    if summary is None:
        return None
    if "." in symbol:
        class_name, method = symbol.split(".", 1)
        return summary.class_signatures.get(class_name, {}).get(method)
    function = summary.functions.get(f"{module}.{symbol}")
    if function is None:
        return None
    return list(function.params)


def _package_in_scope(index: ProjectIndex, module: str) -> bool:
    """Whether ``module``'s package has any file in the linted set.

    Distinguishes a genuinely deleted module (siblings still indexed)
    from a partial lint whose roots simply exclude the whole package —
    e.g. the self-lint run over ``lint/`` + ``parallel/`` must not
    flag a pair's legacy module living in ``repro.core``.
    """
    package = module.rsplit(".", 1)[0] if "." in module else module
    prefix = package + "."
    return any(
        name == package or name.startswith(prefix) for name in index.modules
    )


def _pair_anchor(index: ProjectIndex, pair: ParityPair) -> Tuple[str, int]:
    summary = index.modules.get(pair.fast_module)
    if summary is not None:
        return summary.path, 1
    return pair.fast_module, 1


def _active_pairs(context: ProjectRuleContext) -> Sequence[ParityPair]:
    if context.parity_pairs is not None:
        return tuple(context.parity_pairs)
    return PARITY_PAIRS


@register_project_rule
class Par001(ProjectRule):
    code = "PAR001"
    name = "parity-signature-drift"
    rationale = (
        "A fast/legacy pair's surfaces drifted apart; differential tests "
        "now compare different operations."
    )

    def run(self, context: ProjectRuleContext) -> List[Finding]:
        findings: List[Finding] = []
        index = context.index
        for pair in _active_pairs(context):
            fast_present = pair.fast_module in index.modules
            legacy_present = pair.legacy_module in index.modules
            if not fast_present and not legacy_present:
                # Partial lint (single file/package): the pair's modules
                # are out of scope, not missing.
                continue
            path, line = _pair_anchor(index, pair)
            if not (fast_present and legacy_present):
                absent = (
                    pair.legacy_module if fast_present else pair.fast_module
                )
                if not _package_in_scope(index, absent):
                    # Partial lint again: the absent side's whole
                    # package is outside the linted roots.
                    continue
                findings.append(
                    self.finding(
                        path,
                        line,
                        f"parity pair '{pair.name}': module {absent} is "
                        "missing from the project",
                    )
                )
                continue
            for fast_symbol, legacy_symbol, must_share in pair.symbols:
                fast = _lookup_params(index, pair.fast_module, fast_symbol)
                legacy = _lookup_params(
                    index, pair.legacy_module, legacy_symbol
                )
                if fast is None or legacy is None:
                    side = (
                        f"fast symbol {pair.fast_module}.{fast_symbol}"
                        if fast is None
                        else f"legacy symbol {pair.legacy_module}.{legacy_symbol}"
                    )
                    findings.append(
                        self.finding(
                            path,
                            line,
                            f"parity pair '{pair.name}': {side} is missing",
                        )
                    )
                    continue
                drift = self._order_drift(must_share, fast, legacy)
                if drift is not None:
                    findings.append(
                        self.finding(
                            path,
                            line,
                            f"parity pair '{pair.name}': {fast_symbol} vs "
                            f"{legacy_symbol} drifted — {drift}",
                        )
                    )
        return findings

    @staticmethod
    def _order_drift(
        must_share: Tuple[str, ...], fast: List[str], legacy: List[str]
    ) -> Optional[str]:
        for side_name, params in (("fast", fast), ("legacy", legacy)):
            positions = []
            for shared in must_share:
                if shared not in params:
                    return f"parameter '{shared}' missing on the {side_name} side"
                positions.append(params.index(shared))
            if positions != sorted(positions):
                return f"shared parameters reordered on the {side_name} side"
        return None


@register_project_rule
class Par002(ProjectRule):
    code = "PAR002"
    name = "parity-pair-unpinned"
    rationale = (
        "Every fast/legacy pair must be pinned by a differential or "
        "golden-hash test; an unpinned pair can drift silently."
    )

    def run(self, context: ProjectRuleContext) -> List[Finding]:
        if context.tests_root is None:
            return []
        tests_root = Path(context.tests_root)
        if not tests_root.is_dir():
            return []
        sources: Dict[str, str] = {}
        for test_file in sorted(tests_root.rglob("*.py")):
            try:
                sources[str(test_file)] = test_file.read_text(
                    encoding="utf-8", errors="replace"
                )
            except OSError:
                continue
        findings: List[Finding] = []
        for pair in _active_pairs(context):
            if (
                pair.fast_module not in context.index.modules
                and pair.legacy_module not in context.index.modules
            ):
                continue  # out of lint scope, same rule as PAR001
            pinned = any(
                all(token in text for token in pair.evidence)
                for text in sources.values()
            )
            if not pinned:
                path, line = _pair_anchor(context.index, pair)
                tokens = ", ".join(pair.evidence)
                findings.append(
                    self.finding(
                        path,
                        line,
                        f"parity pair '{pair.name}' has no pinning test: no "
                        f"file under {tests_root.name}/ mentions {tokens}",
                    )
                )
        return findings


@register_project_rule
class Par003(ProjectRule):
    code = "PAR003"
    name = "unregistered-dual-implementation"
    rationale = (
        "A LegacyX class next to X is a fast/legacy pair; it must be "
        "registered so the parity rules watch it."
    )

    def run(self, context: ProjectRuleContext) -> List[Finding]:
        index = context.index
        registered: set = set()
        for pair in _active_pairs(context):
            for fast_symbol, legacy_symbol, _ in pair.symbols:
                registered.add(legacy_symbol.split(".")[0])
                registered.add(fast_symbol.split(".")[0])
        findings: List[Finding] = []
        for class_qualname in sorted(index.classes):
            module_summary = index.classes[class_qualname]
            class_name = class_qualname.rsplit(".", 1)[-1]
            if not class_name.startswith("Legacy"):
                continue
            modern = class_name[len("Legacy"):]
            counterpart_exists = any(
                modern in summary.classes
                for summary in index.modules.values()
            )
            if not counterpart_exists:
                continue
            if class_name in registered:
                continue
            findings.append(
                self.finding(
                    module_summary.path,
                    1,
                    f"{class_name} pairs with {modern} but is not in the "
                    "parity registry; add a ParityPair so drift and missing "
                    "pins are caught",
                )
            )
        return findings
