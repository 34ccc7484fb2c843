"""The localhost mesh harness: convergence, determinism, faults, CLI."""

import asyncio
import json

import pytest

from repro.errors import NetError
from repro.net.harness import (
    MeshSpec,
    converged_against,
    mesh_system_config,
    ring_trust_graph,
    run_loopback_mesh,
    run_udp_mesh,
    simulate_reference,
)
from repro.net.transport import FaultPlan

from .csr import edge_list


class TestSpec:
    def test_validation(self):
        with pytest.raises(NetError):
            MeshSpec(num_nodes=2)
        with pytest.raises(NetError):
            MeshSpec(lattice_degree=3)
        with pytest.raises(NetError):
            MeshSpec(num_nodes=4, lattice_degree=4)
        with pytest.raises(NetError):
            MeshSpec(duration=0.0)

    def test_ring_lattice_is_deterministic(self):
        a = ring_trust_graph(12, 4)
        b = ring_trust_graph(12, 4)
        assert edge_list(a) == edge_list(b)
        assert a.degrees().tolist() == [4] * 12

    def test_system_config_mirrors_spec(self):
        spec = MeshSpec(num_nodes=9, pseudonym_lifetime=15.0)
        config = mesh_system_config(spec)
        assert config.num_nodes == 9
        assert config.pseudonym_lifetime == pytest.approx(15.0)
        assert config.target_degree == spec.target_degree


class TestLoopbackMesh:
    def test_twenty_nodes_converge_to_sim_envelope(self):
        # The integration bar from the issue: a 20-node mesh on the
        # deterministic fabric reaches the simulator's degree and
        # connectivity envelope at equal parameters.
        spec = MeshSpec(num_nodes=20, seed=1, duration=40.0)
        report = run_loopback_mesh(spec)
        reference = simulate_reference(spec)
        ok, summary = converged_against(report, reference)
        assert ok, summary
        assert report.all_bootstrapped
        assert report.fraction_disconnected == 0.0
        assert report.counters["codec_rejects"] == 0

    def test_reference_on_a_pseudonym_lifetime_multiple(self):
        # At t = 2 x 15 every pseudonym of the churn-free reference
        # expires at once and its degree reads 4.0 (trusted links only)
        # for that instant; the envelope must not be that reading.
        spec = MeshSpec(num_nodes=16, seed=1, duration=30.0)
        reference = simulate_reference(spec)
        assert reference[0] > spec.lattice_degree + 1
        ok, summary = converged_against(run_loopback_mesh(spec), reference)
        assert ok, summary

    def test_seed_reproducible(self):
        spec = MeshSpec(num_nodes=9, seed=7, duration=25.0)
        first = run_loopback_mesh(spec)
        second = run_loopback_mesh(spec)
        assert first.digest() == second.digest()
        assert first.counters == second.counters
        assert first.disconnected_series == second.disconnected_series

    def test_different_seed_different_run(self):
        base = MeshSpec(num_nodes=9, seed=7, duration=25.0)
        other = MeshSpec(num_nodes=9, seed=8, duration=25.0)
        assert run_loopback_mesh(base).digest() != run_loopback_mesh(
            other
        ).digest()

    def test_faulty_network_still_converges(self):
        spec = MeshSpec(
            num_nodes=9,
            seed=3,
            duration=40.0,
            faults=FaultPlan(loss_rate=0.10, reorder_rate=0.10),
        )
        report = run_loopback_mesh(spec)
        assert report.all_bootstrapped
        assert report.shuffle_offers > 0
        assert report.fraction_disconnected <= 0.2

    def test_node_logs_record_bootstrap(self):
        spec = MeshSpec(num_nodes=9, seed=1, duration=10.0)
        report = run_loopback_mesh(spec)
        assert len(report.node_logs) == 9
        # Node 0 is the seed; everyone else logs a bootstrap ack.
        for log in report.node_logs[1:]:
            assert any("bootstrapped via" in line for line in log)
        for log in report.node_logs:
            assert any("shutdown" in line for line in log)


class TestCrossCommitPins:
    """perfbench's ``mesh_periods`` size (64 nodes, 30 periods), as
    computed on commit d0eb936 (before the table-driven codec).  The
    ``mesh-smoke`` CI job asserts the same digest through the CLI."""

    DIGEST = "d92cb7fa19df18d2401f063723f2c806df9741c6027581412277028149384890"
    FRAMES_OUT = 15115

    def test_64_node_mesh_digest(self):
        # duration is a float, as the CLI parses it: the digest hashes
        # its JSON spelling.
        report = run_loopback_mesh(MeshSpec(num_nodes=64, duration=30.0, seed=1))
        assert report.digest() == self.DIGEST
        assert report.counters["frames_out"] == self.FRAMES_OUT


class TestUdpMesh:
    def test_small_udp_mesh_bootstraps_and_shuffles(self):
        spec = MeshSpec(
            num_nodes=5,
            seed=1,
            duration=12.0,
            seconds_per_period=0.02,
        )
        report = run_udp_mesh(spec)
        assert report.transport == "udp"
        assert report.all_bootstrapped
        assert report.shuffle_offers > 0
        assert report.counters["codec_rejects"] == 0

    def test_udp_mesh_inside_running_loop_refused(self):
        # run_udp_mesh wraps asyncio.run; calling it from a live loop
        # must fail loudly rather than deadlock.
        async def attempt():
            with pytest.raises(RuntimeError):
                run_udp_mesh(MeshSpec(num_nodes=3, lattice_degree=2))

        asyncio.run(attempt())


class TestMeshCli:
    def test_loopback_cli_run(self, capsys, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "mesh.json"
        logs_dir = tmp_path / "logs"
        code = main(
            [
                "mesh",
                "--nodes", "9",
                "--duration", "25",
                "--seed", "1",
                "--json", str(report_path),
                "--logs-dir", str(logs_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence vs simulator" in out
        payload = json.loads(report_path.read_text())
        assert payload["num_nodes"] == 9
        assert payload["all_bootstrapped"] is True
        assert len(list(logs_dir.glob("node-*.log"))) == 9

    def test_no_reference_skips_check(self, capsys):
        from repro.cli import main

        code = main(
            ["mesh", "--nodes", "9", "--duration", "8", "--no-reference"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "convergence" not in out

    def test_bad_spec_exits_2(self, capsys):
        from repro.cli import main

        assert main(["mesh", "--nodes", "2"]) == 2
