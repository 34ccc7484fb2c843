"""Tests for the ``repro sweep`` subcommand and figure --workers flag."""

import pytest

from repro.cli import main
from repro.parallel.cli import parse_axis


def _sweep_args(store, extra=()):
    return [
        "sweep",
        "--scale",
        "smoke",
        "--seed",
        "3",
        "--axis",
        "availability=0.3,0.6",
        "--workers",
        "2",
        "--store",
        str(store),
        *extra,
    ]


class TestParseAxis:
    def test_numeric_coercion(self):
        assert parse_axis("availability=0.3,0.6") == ("availability", [0.3, 0.6])
        assert parse_axis("cache_size=50,100") == ("cache_size", [50, 100])

    def test_string_values_pass_through(self):
        assert parse_axis("name=a,b") == ("name", ["a", "b"])

    def test_malformed_rejected(self):
        import argparse

        for bad in ("availability", "=0.3", "availability="):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_axis(bad)


class TestSweepCommand:
    def test_end_to_end(self, tmp_path, capsys):
        store = tmp_path / "results"
        code = main(_sweep_args(store))
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "2 computed, 0 reused" in out
        assert len(list(store.glob("sweep_*.json"))) == 2

    def test_resume_is_noop_after_completion(self, tmp_path, capsys):
        """Re-running the same command is the resume: it computes nothing
        and rewrites no stored point."""
        store = tmp_path / "results"
        assert main(_sweep_args(store)) == 0
        first = capsys.readouterr().out
        stamps = {path: path.stat().st_mtime_ns for path in store.glob("*.json")}
        assert main(_sweep_args(store)) == 0
        second = capsys.readouterr().out
        assert "0 computed, 2 reused" in second
        assert second == first.replace("2 computed, 0 reused", "0 computed, 2 reused")
        assert {
            path: path.stat().st_mtime_ns for path in store.glob("*.json")
        } == stamps

    def test_sampling_f_axis_builds_each_trust_graph(self, tmp_path, capsys):
        """Each sampling_f point runs on the trust graph sampled at its f."""
        from repro.experiments import (
            SMOKE,
            ResultStore,
            make_config,
            make_trust_graph,
            point_store_key,
            run_overlay_experiment,
        )

        store = tmp_path / "results"
        argv = ["sweep", "--scale", "smoke", "--seed", "1", "--axis",
                "sampling_f=0.5,1.0", "--store", str(store)]
        assert main(argv) == 0
        outcomes = [
            ResultStore(store).load(point_store_key("sweep", [("sampling_f", f)]))
            for f in (0.5, 1.0)
        ]
        assert outcomes[0] != outcomes[1]
        for f, outcome in zip((0.5, 1.0), outcomes):
            result = run_overlay_experiment(
                make_trust_graph(SMOKE, f, 1),
                make_config(SMOKE, 0.5, f=f, seed=1),
                horizon=SMOKE.total_horizon,
                measure_window=SMOKE.measure_window,
            )
            assert outcome == {
                "disconnected": result.disconnected,
                "trust_disconnected": result.trust_disconnected,
                "online_fraction": result.online_fraction,
                "full_edge_count": result.full_edge_count,
            }

    def _shard_sweep(self, store, capsys, axis, workers):
        argv = ["sweep", "--scale", "smoke", "--seed", "1", "--axis", axis,
                "--shards", "2", "--workers", str(workers), "--store", str(store)]
        assert main(argv) == 0
        return capsys.readouterr().out.replace(str(store), "STORE")

    def test_shards_table_is_the_same_at_any_worker_count(self, tmp_path, capsys):
        axis = "availability=0.3,0.6"
        serial = self._shard_sweep(tmp_path / "one", capsys, axis, workers=1)
        forked = self._shard_sweep(tmp_path / "two", capsys, axis, workers=2)
        assert forked == serial
        assert "2 computed, 0 reused" in serial

    #: ``sweep --scale smoke --shards 2 --axis availability=0.3,0.6``
    #: (seed 1): the stored records, exact to the last float bit.
    SHARD_GOLDEN = {
        0.3: {
            "disconnected": 0.17916287979082438,
            "full_edge_count": 427,
            "online_fraction": 0.325,
            "trust_disconnected": 0.27466517161664555,
        },
        0.6: {
            "disconnected": 0.0,
            "full_edge_count": 597,
            "online_fraction": 0.575,
            "trust_disconnected": 0.0025641025641025697,
        },
    }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shards_golden_rows(self, tmp_path, capsys, workers):
        from repro.experiments import ResultStore, point_store_key

        store = tmp_path / "results"
        out = self._shard_sweep(store, capsys, "availability=0.3,0.6", workers)
        rows = [line.split() for line in out.splitlines()[3:5]]
        assert rows == [
            ["0.3000", "0.1792", "427", "0.3250", "0.2747"],
            ["0.6000", "0.0000", "597", "0.5750", "0.0026"],
        ]
        for alpha, record in self.SHARD_GOLDEN.items():
            key = point_store_key("sweep", [("availability", alpha)])
            assert ResultStore(store).load(key) == record

    def test_shards_sampling_f_axis_builds_each_trust_graph(self, tmp_path, capsys):
        """Under --shards each sampling_f point runs the batch engine on
        the trust graph sampled at its f, for the scale's horizon."""
        from repro.core import BatchOverlay
        from repro.experiments import (
            SMOKE,
            ResultStore,
            make_config,
            make_trust_graph,
            point_store_key,
        )

        store = tmp_path / "results"
        out = self._shard_sweep(store, capsys, "sampling_f=0.5,1.0", workers=1)
        rows = [line for line in out.splitlines() if line.startswith(("0.5", "1.0"))]
        assert len(rows) == 2
        assert rows[0].split()[1:] != rows[1].split()[1:]
        for f in (0.5, 1.0):
            outcome = ResultStore(store).load(
                point_store_key("sweep", [("sampling_f", f)])
            )
            trust = make_trust_graph(SMOKE, f, 1)
            overlay = BatchOverlay(
                make_config(SMOKE, 0.5, f=f, seed=1),
                trust.indptr,
                trust.indices,
                num_shards=2,
            )
            overlay.run(int(SMOKE.total_horizon))
            assert outcome["online_fraction"] == (
                overlay.stats()["online_nodes"] / SMOKE.num_nodes
            )
            assert outcome["full_edge_count"] == (
                overlay.snapshot(online_only=False).number_of_edges()
            )

    def test_shards_columns_equal_the_event_sweeps(self, tmp_path, capsys):
        axis = "availability=0.3,0.6"
        batch = self._shard_sweep(tmp_path / "batch", capsys, axis, workers=1)
        argv = ["sweep", "--scale", "smoke", "--seed", "1", "--axis", axis,
                "--store", str(tmp_path / "event")]
        assert main(argv) == 0
        event = capsys.readouterr().out
        assert batch.splitlines()[1] == event.splitlines()[1]
        assert batch.splitlines()[1].split() == [
            "availability",
            "disconnected",
            "full_edge_count",
            "online_fraction",
            "trust_disconnected",
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "axis", ["sampler_mode=cache,slots", "adaptive_lifetime=1"]
    )
    def test_shards_refuse_event_only_fields(self, tmp_path, capsys, axis, workers):
        """The batch engine runs neither field: the sweep fails naming
        it instead of printing the default engine's rows."""
        store = tmp_path / "results"
        argv = ["sweep", "--scale", "smoke", "--seed", "1", "--axis", axis,
                "--shards", "2", "--workers", str(workers), "--store", str(store)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "ConfigError" in out and axis.split("=")[0] in out
        assert not list(store.glob("*.json"))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--shards", "0"],
            ["--shards", "2", "--workers", "0"],
        ],
    )
    def test_counts_below_one_exit_2(self, tmp_path, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--scale",
                    "smoke",
                    "--axis",
                    "availability=0.3",
                    "--store",
                    str(tmp_path / "results"),
                    *flags,
                ]
            )
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_unknown_axis_field_fails(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--scale",
                "smoke",
                "--axis",
                "warp_speed=1,2",
                "--store",
                str(tmp_path / "results"),
            ]
        )
        assert code == 1
        assert "warp_speed" in capsys.readouterr().out

    def test_malformed_axis_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--axis", "not-an-axis"])
        assert excinfo.value.code == 2

    def test_axis_required(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--scale", "smoke"])


class TestFigureWorkersFlag:
    def test_fig8_with_workers(self, capsys):
        code = main(["fig8", "--scale", "smoke", "--workers", "2"])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8", "--scale", "smoke", "--workers", workers])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err
