"""The paper's claims as predicates (``repro.experiments.claims``).

Every claim runs on synthetic records twice: once shaped as the paper
says (a positive margin) and once broken at one point (a negative
margin).  The records sit at paper scale, where no claim is vacuous.
"""

import ast
import dataclasses
import math
import pathlib

import pytest

from repro.experiments import PAPER, QUICK, SMOKE
from repro.experiments.claims import CLAIMS, assert_claims
from repro.experiments.figures import Interval, Point, group

INF = math.inf
BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _at(f=0.5, alpha=0.25, ratio=3.0, **values):
    return {"scale": "paper", "f": f, "alpha": alpha, "ratio": ratio, **values}


def _fig3(overlay=(), trust_path=(), random_path=2.8):
    """Figures 3/4: a well-connected overlay with short paths.

    ``overlay`` and ``trust_path`` map ``(f, alpha)`` to one changed cell.
    """
    overlay, trust_path = dict(overlay), dict(trust_path)
    records = []
    for f in (1.0, 0.5):
        for alpha in (0.125, 0.25, 0.5, 0.875):
            low = {1.0: 0.2, 0.5: 0.3}[f] if alpha < 0.25 else 0.02
            records.append(_at(
                f=f, alpha=alpha,
                overlay_disconnected=overlay.get((f, alpha), low),
                trust_disconnected=0.5,
                random_disconnected=0.0,
                overlay_path_length=3.0,
                trust_path_length=trust_path.get((f, alpha), 6.0),
                random_path_length=random_path,
            ))
    return records


def _histogram(*degrees):
    counts = [0] * (max(degrees) + 1)
    for degree in degrees:
        counts[degree] += 10
    return counts


def _fig5(trust=(2,), random=(10,)):
    """Overlay degrees 2 and 18 (mean 10, std 8) over a thin trust graph."""
    return [
        _at(f=f, alpha=0.5, trust_histogram=_histogram(*trust),
            overlay_histogram=_histogram(2, 18), random_histogram=_histogram(*random))
        for f in (1.0, 0.5)
    ]


def _fig6(system_mean=2.0, rates=(3.0, 2.5, 2.0, 1.5, 1.0)):
    return [
        _at(f=f, alpha=0.5, system_mean=system_mean,
            max_out_degree=[10, 8, 6, 4, 2], messages_per_period=list(rates))
        for f in (1.0, 0.5)
    ]


def _fig7(cells=(), scale="paper"):
    """Disconnection falling in r; ``cells`` maps ``(ratio, alpha)`` to a change."""
    cells = dict(cells)
    curve = {1.0: 0.3, 3.0: 0.1, 9.0: 0.02, INF: 0.01}
    return [
        dict(_at(alpha=alpha, ratio=ratio), scale=scale, disconnected=cells.get(
            (ratio, alpha), curve[ratio] * (2 if alpha < 0.25 else 1)))
        for alpha in (0.125, 0.25, 0.5)
        for ratio in curve
    ]


def _fig8(r3=0.02, r9=0.02, trust=0.5, r9_drop_at=10):
    """Both runs fall from 0.8 to their tail after ``drop_at`` periods."""
    times = list(range(0, 1000, 10))

    def run(ratio, tail, drop_at):
        return _at(ratio=ratio, times=times,
                   disconnected=[0.8 if t < drop_at else tail for t in times],
                   trust_disconnected=[trust] * len(times))

    return [run(3.0, r3, 10), run(9.0, r9, r9_drop_at)]


def _fig9(r3=2.0, r9=1.0, rinf=0.1, peak=5.0):
    """Paper scale: r = 9 pseudonyms live 270 periods, so they peak at t = 300."""
    times = list(range(0, 1000, 25))
    replacements = [peak if t == 300 else 1.0 for t in times]
    return [
        _at(ratio=ratio, times=times, replacements=replacements, stable_rate=rate)
        for ratio, rate in ((3.0, r3), (9.0, r9), (INF, rinf))
    ]


GOOD = {
    "fig3": _fig3(), "fig4": _fig3(), "fig5": _fig5(), "fig6": _fig6(),
    "fig7": _fig7(), "fig8": _fig8(), "fig9": _fig9(),
}

BROKEN = {
    "fig3.no-worse-than-trust": _fig3(overlay={(0.5, 0.125): 0.6}),
    "fig3.connected-to-0.25": _fig3(overlay={(0.5, 0.25): 0.3}),
    "fig3.connected-from-0.5": _fig3(overlay={(1.0, 0.875): 0.06}),
    "fig3.denser-helps": _fig3(overlay={(1.0, 0.125): 0.4}),
    "fig4.shorter-than-trust": _fig3(trust_path={(0.5, 0.5): 2.9}),
    "fig4.near-random": _fig3(random_path=1.4),
    "fig5.right-shift": _fig5(trust=(6,)),
    "fig5.random-mean": _fig5(random=(13,)),
    "fig5.wider-than-random": _fig5(random=(0, 20)),
    "fig6.two-per-period": _fig6(system_mean=2.7),
    "fig6.degree-correlation": _fig6(rates=(1.0, 1.5, 2.0, 2.5, 3.0)),
    "fig6.hub-above-median": _fig6(rates=(1.8, 3.0, 2.5, 2.0, 1.0)),
    "fig7.r3-vs-r1": _fig7({(3.0, 0.25): 0.5}),
    "fig7.r9-vs-r3": _fig7({(9.0, 0.5): 0.2}),
    "fig7.rinf-vs-r9": _fig7({(INF, 0.25): 0.1}),
    "fig7.r9-connected": _fig7({(9.0, 0.25): 0.13}),
    "fig7.rinf-connected": _fig7({(INF, 0.5): 0.13}),
    "fig7.r1-degrades": _fig7({(1.0, 0.25): 0.05, (1.0, 0.5): 0.05, (1.0, 0.125): 0.05}),
    "fig8.separates": _fig8(r3=0.3),
    "fig8.r9-stable": _fig8(r9=0.13),
    "fig8.converges-early": _fig8(r9_drop_at=500),
    "fig8.trust-partitioned": _fig8(trust=0.1, r3=0.01, r9=0.01),
    "fig9.ordering": _fig9(r9=0.05),
    "fig9.inf-settles": _fig9(rinf=0.6),
    "fig9.finite-sustains": _fig9(r3=0.9),
    "fig9.r9-oscillates": _fig9(peak=1.5),
}

IDS = [claim.id for claim in CLAIMS]


def _claim(claim_id):
    (claim,) = [claim for claim in CLAIMS if claim.id == claim_id]
    return claim


class TestEveryClaim:
    def test_one_claim_per_former_assert(self):
        assert len(IDS) == len(set(IDS)) == 26
        assert set(BROKEN) == set(IDS)
        assert {claim.figure for claim in CLAIMS} == set(GOOD)
        assert all(claim.sentence and claim.section == "§V" for claim in CLAIMS)

    @pytest.mark.parametrize("claim_id", IDS)
    def test_holds_with_a_positive_margin(self, claim_id):
        claim = _claim(claim_id)
        verdict = claim.check(GOOD[claim.figure], PAPER)
        assert verdict.status == "holds", verdict
        assert verdict.margin > 0

    @pytest.mark.parametrize("claim_id", IDS)
    def test_fails_with_a_negative_margin(self, claim_id):
        verdict = _claim(claim_id).check(BROKEN[claim_id], PAPER)
        assert verdict.status == "fails", verdict
        assert verdict.margin < 0

    def test_non_strict_bound_holds_at_equality(self):
        # r = inf exactly 0.05 above r = 9: `<=` holds with margin 0.
        records = _fig7({(INF, 0.25): 0.07})
        verdict = _claim("fig7.rinf-vs-r9").check(records, PAPER)
        assert verdict.status == "holds" and verdict.margin == pytest.approx(0.0)


class TestVacuous:
    @pytest.mark.parametrize("scale", [QUICK, SMOKE], ids=["quick", "smoke"])
    def test_r9_vs_rinf_cannot_differ_within_a_short_horizon(self, scale):
        verdict = _claim("fig7.rinf-vs-r9").check(_fig7(scale=scale.name), scale)
        assert verdict.status == "vacuous"
        assert "r=9 and r=Infinite never expire" in verdict.detail

    def test_paper_horizon_outlasts_the_r9_lifetime(self):
        assert PAPER.total_horizon >= 9 * PAPER.mean_offline_time
        assert _claim("fig7.rinf-vs-r9").check(_fig7(), PAPER).status == "holds"

    def test_derived_from_the_scale_not_its_name(self):
        claim = _claim("fig7.rinf-vs-r9")
        longer = dataclasses.replace(QUICK, stabilization_horizon=220.0)  # 270 total
        assert claim.same_run(QUICK) and not claim.same_run(longer)

    def test_a_vacuous_claim_never_fails(self):
        records = _fig7({(INF, 0.25): 0.1}, scale="quick")
        assert _claim("fig7.rinf-vs-r9").check(records, QUICK).status == "vacuous"
        assert "fig7.rinf-vs-r9" in assert_claims("fig7", records, QUICK)

    @pytest.mark.parametrize("claim_id", sorted(set(IDS) - {"fig7.rinf-vs-r9"}))
    def test_no_other_claim_is_vacuous_at_quick_scale(self, claim_id):
        assert _claim(claim_id).same_run(QUICK) == ""


class TestSeedGrouping:
    def test_mean_and_stderr_by_hand(self):
        records = [_at(disconnected=value, seed=seed)
                   for seed, value in enumerate((0.1, 0.2, 0.4))]
        records.append(_at(alpha=0.5, disconnected=0.3, seed=0))
        grouped = group(records, "disconnected")
        # mean 0.7 / 3; sample variance (0.0178 + 0.0011 + 0.0278) / 2 = 0.02333.
        point = Point("paper", 0.5, 0.25, 3.0)
        assert grouped[point].mean == pytest.approx(0.233333, abs=1e-6)
        assert grouped[point].stderr == pytest.approx(0.088192, abs=1e-6)
        assert grouped[point._replace(alpha=0.5)] == Interval(0.3, 0.0)

    def test_a_claim_reads_the_far_end(self):
        # r = 9 at alpha = 0.25 averages 0.11 < 0.12, but mean + stderr is 0.1308.
        records = [
            dict(record, seed=seed, disconnected=value)
            if (record["ratio"], record["alpha"]) == (9.0, 0.25) else dict(record, seed=seed)
            for seed, value in enumerate((0.08, 0.10, 0.15))
            for record in _fig7()
        ]
        verdict = _claim("fig7.r9-connected").check(records, PAPER)
        assert verdict.status == "fails"
        assert verdict.margin == pytest.approx(0.12 - (0.11 + 0.020817), abs=1e-6)


class TestAssertClaims:
    def test_returns_one_row_per_claim(self):
        table = assert_claims("fig9", GOOD["fig9"], PAPER)
        lines = table.splitlines()
        assert lines[0] == "Figure 9 claims (paper scale, 1 seed(s))"
        assert [line.split()[:2] for line in lines[3:]] == [
            [claim.id, "holds"] for claim in CLAIMS if claim.figure == "fig9"
        ]

    def test_title_counts_seeds(self):
        records = [dict(record, seed=seed) for seed in range(3) for record in _fig8()]
        title = assert_claims("fig8", records, PAPER).splitlines()[0]
        assert title == "Figure 8 claims (paper scale, 3 seed(s))"

    def test_raises_only_on_fails(self):
        with pytest.raises(AssertionError, match="fig9.inf-settles +fails"):
            assert_claims("fig9", BROKEN["fig9.inf-settles"], PAPER)


def test_figure_benches_keep_no_bare_assert():
    benches = sorted(BENCHMARKS.glob("bench_fig*.py"))
    assert len(benches) == 7
    for path in benches:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} asserts inline at lines {asserts}"
        assert "assert_claims" in path.read_text(encoding="utf-8")
