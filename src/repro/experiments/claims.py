"""The paper's §V claims about Figures 3-9, one predicate per claim.

A :class:`Claim` checks one sentence against the records ``figure3`` ...
``figure9`` return, from either engine, at any scale.  Records are
grouped by :func:`~repro.experiments.figures.group` into mean ± stderr
per point, and a claim reads each interval's far end.  A :class:`Verdict`'s
margin is signed, in the metric's units, where the claim holds least.
A comparison of lifetimes that both outlast the run is ``vacuous``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .figures import Interval, Point, Record, figure_horizon, group
from .results import format_table
from .scenarios import ExperimentScale, lifetime_label

__all__ = ["CLAIMS", "Claim", "Verdict", "assert_claims"]

INF = math.inf
#: ``status`` is "holds", "fails" or "vacuous".
Verdict = NamedTuple("Verdict", [("status", str), ("margin", float), ("detail", str)])


def _degrees(record: Record, graph: str) -> np.ndarray:
    histogram = record[f"{graph}_histogram"]
    return np.repeat(np.arange(len(histogram), dtype=float), histogram)


def _tail(values: Sequence[float]) -> float:
    """Mean of a series' last 30 % of samples."""
    return float(np.mean(values[-max(1, int(len(values) * 0.3)) :]))


def _early_peak(record: Record, scale: ExperimentScale) -> float:
    """The peak replacement rate while the first pseudonyms expire."""
    life = record["ratio"] * scale.mean_offline_time
    series = zip(record["times"], record["replacements"])
    return max((v for t, v in series if life * 0.5 <= t <= life * 2.5), default=-INF)


_RATES = "messages_per_period"
#: Measures computed from a record (and the scale); any other is a record key.
_DERIVED: Dict[str, Callable[[Record, ExperimentScale], float]] = {
    "trust_degree_mean": lambda r, _: _degrees(r, "trust").mean(),
    "overlay_degree_mean": lambda r, _: _degrees(r, "overlay").mean(),
    "random_degree_mean": lambda r, _: _degrees(r, "random").mean(),
    "random_mean_gap": lambda r, _: abs(
        _degrees(r, "overlay").mean() - _degrees(r, "random").mean()
    ),
    "overlay_degree_std": lambda r, _: _degrees(r, "overlay").std(),
    "random_degree_std": lambda r, _: _degrees(r, "random").std(),
    "rate_correlation": lambda r, _: np.corrcoef(r["max_out_degree"], r[_RATES])[0, 1],
    "hub_over_median": lambda r, _: r[_RATES][0] - np.median(r[_RATES]),
    "tail": lambda r, _: _tail(r["disconnected"]),
    "trust_tail": lambda r, _: _tail(r["trust_disconnected"]),
    "converged_at": lambda r, _: next(
        (t for t, d in zip(r["times"], r["disconnected"]) if d <= 0.1), INF
    ),
    "early_peak": _early_peak,
}


class _Views(SimpleNamespace):
    """One figure's ``records`` at ``scale``, each measure grouped on first use."""

    def __getattr__(self, name: str) -> Dict[Point, Interval]:
        derived = _DERIVED.get(name)
        measure = name if derived is None else (lambda r: derived(r, self.scale))
        groups = group(self.records, measure)
        setattr(self, name, groups)
        return groups


class Claim(NamedTuple):
    """One sentence of §V: measure ``key`` is below ``bound`` at every point.

    ``bound`` is a number, a ``(low, high)`` band, or ``bound(views,
    point)``.  ``above`` flips the side, ``strict=False`` allows equality,
    ``where(views, point)`` picks the points, ``exists`` asks for one of
    them only, and ``arms`` are the lifetime ratios compared in turn.
    """

    id: str
    key: str
    bound: Any = None
    sentence: str = ""
    above: bool = False
    strict: bool = True
    where: Callable[[_Views, Point], bool] = lambda v, p: True
    exists: bool = False
    arms: Tuple[float, ...] = ()
    section: str = "§V"

    @property
    def figure(self) -> str:
        return self.id.split(".")[0]

    def _pair(self, v: _Views, p: Point, x: Interval) -> Tuple[float, float]:
        bound = self.bound(v, p) if callable(self.bound) else self.bound
        if isinstance(bound, tuple):  # the nearer side of the band
            return min((bound[0], x.lo), (x.hi, bound[1]), key=lambda b: b[1] - b[0])
        return (bound, x.lo) if self.above else (x.hi, bound)

    def check(self, records: Sequence[Record], scale: ExperimentScale) -> Verdict:
        v = _Views(records=records, scale=scale)
        points = getattr(v, self.key).items()
        pairs = [(p, *self._pair(v, p, x)) for p, x in points if self.where(v, p)]
        p, lhs, rhs = (max if self.exists else min)(pairs, key=lambda t: t[2] - t[1])
        margin = rhs - lhs
        holds = margin > 0 if self.strict else margin >= 0
        why = self.same_run(scale)
        at = f"f={p.f:g} alpha={p.alpha:g} r={lifetime_label(p.ratio)}"
        detail = f"{at}: {lhs:.4f} {'<' if self.strict else '<='} {rhs:.4f}"
        if why:
            return Verdict("vacuous", margin, f"{why}; {detail}")
        return Verdict("holds" if holds else "fails", margin, detail)

    def same_run(self, scale: ExperimentScale) -> str:
        """Why two arms this claim compares cannot differ at ``scale``, or ``""``."""
        horizon = figure_horizon(self.figure, scale)
        for a, b in zip(self.arms, self.arms[1:]):
            if min(a, b) * scale.mean_offline_time > horizon:
                names = f"r={lifetime_label(a)} and r={lifetime_label(b)}"
                return f"{names} never expire within {horizon:g} periods"
        return ""


def _only(ratio: Optional[float] = None, low: float = 0.0, high: float = 1.0):
    """Points at lifetime ratio ``ratio`` (any, if None) with low <= alpha <= high."""
    return lambda v, p: ratio in (None, p.ratio) and low <= p.alpha <= high


_SHORTER = {INF: 9.0, 9.0: 3.0}


def _r(ratio: float, slack: float) -> Callable[[_Views, Point], float]:
    """Figure 7: ``ratio``'s curve at the same availability, plus ``slack``."""
    return lambda v, p: v.disconnected[p._replace(ratio=ratio)].lo + slack


CLAIMS = (
    Claim("fig3.no-worse-than-trust", "overlay_disconnected", strict=False,
          bound=lambda v, p: v.trust_disconnected[p].lo + 0.05,
          sentence="The overlay is never clearly less connected than the trust graph."),
    Claim("fig3.connected-to-0.25", "overlay_disconnected", 0.25, where=_only(low=0.25),
          sentence="The overlay stays highly connected down to alpha = 0.25."),
    Claim("fig3.connected-from-0.5", "overlay_disconnected", 0.05, where=_only(low=0.5),
          sentence="From alpha = 0.5 up the overlay is (near-)fully connected."),
    Claim("fig3.denser-helps", "overlay_disconnected", strict=False,
          bound=lambda v, p: v.overlay_disconnected[p._replace(f=0.5)].lo + 0.05,
          where=lambda v, p: p.f == 1.0
          and p.alpha == min(q.alpha for q in v.overlay_disconnected),
          sentence="The denser f = 1.0 trust graph helps at the lowest availability."),
    Claim("fig4.shorter-than-trust", "overlay_path_length", where=_only(low=0.25),
          bound=lambda v, p: v.trust_path_length[p].lo,
          sentence="Overlay paths are significantly shorter than the trust graph's."),
    Claim("fig4.near-random", "overlay_path_length", where=_only(low=0.25),
          bound=lambda v, p: 2.0 * v.random_path_length[p].lo,
          sentence="Overlay path lengths closely match an Erdős–Rényi graph's."),
    Claim("fig5.right-shift", "overlay_degree_mean", above=True,
          bound=lambda v, p: 2.0 * v.trust_degree_mean[p].hi,
          sentence="Pseudonym links shift the trust graph's degrees to the right."),
    Claim("fig5.random-mean", "random_mean_gap", strict=False,
          bound=lambda v, p: 0.15 * v.random_degree_mean[p].lo,
          sentence="The shifted distribution is close to the random graph's."),
    Claim("fig5.wider-than-random", "overlay_degree_std", above=True,
          bound=lambda v, p: v.random_degree_std[p].hi,
          sentence="It is less concentrated than the random graph's."),
    Claim("fig6.two-per-period", "system_mean", (1.3, 2.6),
          sentence="The system-wide mean is 2 messages per node per shuffle period."),
    Claim("fig6.degree-correlation", "rate_correlation", 0.2, above=True,
          sentence="Nodes of larger overlay degree answer more requests, send more."),
    Claim("fig6.hub-above-median", "hub_over_median", 0.0, above=True,
          sentence="The top-ranked node sends more messages than the median node."),
    Claim("fig7.r3-vs-r1", "disconnected", _r(1.0, 0.08),
          strict=False, where=_only(3.0, low=0.25), arms=(1.0, 3.0),
          sentence="Robustness improves monotonically in r: r = 3 over r = 1."),
    Claim("fig7.r9-vs-r3", "disconnected", _r(3.0, 0.05),
          strict=False, where=_only(9.0, low=0.25), arms=(3.0, 9.0),
          sentence="Robustness improves monotonically in r: r = 9 over r = 3."),
    Claim("fig7.rinf-vs-r9", "disconnected", _r(9.0, 0.05),
          strict=False, where=_only(INF, low=0.25), arms=(9.0, INF),
          sentence="Robustness improves monotonically in r: r = inf over r = 9."),
    Claim("fig7.r9-connected", "disconnected", 0.12, where=_only(9.0, low=0.25),
          sentence="For r = 9 the overlay closely resembles the random graph."),
    Claim("fig7.rinf-connected", "disconnected", 0.12, where=_only(INF, low=0.25),
          sentence="For r = inf the overlay closely resembles the random graph."),
    Claim("fig7.r1-degrades", "disconnected", above=True, exists=True, arms=(1.0, 9.0),
          bound=lambda v, p: v.disconnected[p._replace(ratio=9.0)].hi + 0.05,
          where=_only(1.0, high=0.5),
          sentence="r = 1 acts like the trust graph: returning nodes' links expired."),
    Claim("fig8.separates", "tail", bound=lambda v, p: 0.5 * v.trust_tail[p].lo,
          sentence="The overlay converges far below the trust graph's disconnection."),
    Claim("fig8.r9-stable", "tail", 0.12, where=_only(9.0),
          sentence="The overlay stabilizes at (near-)full connectivity."),
    Claim("fig8.converges-early", "converged_at", where=_only(9.0),
          bound=lambda v, p: 0.4 * v.scale.fig8_horizon,
          sentence="From a cold start, disconnection drops within a few periods."),
    Claim("fig8.trust-partitioned", "trust_tail", 0.15, above=True,
          sentence="The trust graph stays heavily partitioned for the whole run."),
    Claim("fig9.ordering", "stable_rate", arms=(INF, 9.0, 3.0),
          bound=lambda v, p: v.stable_rate[p._replace(ratio=_SHORTER[p.ratio])].lo,
          where=lambda v, p: p.ratio in _SHORTER,
          sentence="Replacements fall as lifetimes grow: r = inf < r = 9 < r = 3."),
    Claim("fig9.inf-settles", "stable_rate", 0.5, where=_only(INF),
          sentence="Without expiry the replacement rate falls to (near) zero."),
    Claim("fig9.finite-sustains", "stable_rate", 1.0, above=True, where=_only(3.0),
          sentence="Finite lifetimes sustain a clearly positive replacement rate."),
    Claim("fig9.r9-oscillates", "early_peak", above=True, where=_only(9.0),
          bound=lambda v, p: 2.0 * v.stable_rate[p].hi,
          sentence="r = 9 oscillates early: its first pseudonyms expire together."),
)


def assert_claims(
    figure: str, records: Sequence[Record], scale: ExperimentScale
) -> str:
    """``figure``'s claims' verdict table; raises ``AssertionError`` if one fails."""
    rows = [(c.id, *c.check(records, scale)) for c in CLAIMS if c.figure == figure]
    seeds = len(records) // len(group(records, lambda r: 0.0))
    title = f"Figure {figure[3:]} claims ({scale.name} scale, {seeds} seed(s))"
    table = format_table(["claim", "status", "margin", "detail"], rows, title=title)
    if any(row[1] == "fails" for row in rows):
        raise AssertionError(table)
    return table
