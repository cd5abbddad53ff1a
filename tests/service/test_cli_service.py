"""CLI integration: ``repro-sta batch`` / ``serve`` / ``query``."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cells import standard_library
from repro.clocks.serialize import load_schedule
from repro.cli import build_parser, main
from repro.core.analyzer import Hummingbird
from repro.delay.estimator import estimate_delays
from repro.netlist.persistence import load_network
from repro.report.manifest import timing_digest
from repro.service import DaemonClient, TimingDaemon


@pytest.fixture
def jobs_file(tmp_path, design_files):
    netlist, clocks = design_files
    path = tmp_path / "jobs.json"
    path.write_text(
        json.dumps(
            {
                "schema": "repro.batch/1",
                "jobs": [
                    {"name": "a", "netlist": "pipeline.json",
                     "clocks": "clocks.json"},
                    {"name": "b", "netlist": "pipeline.json",
                     "clocks": "clocks.json", "slow_path_limit": 9},
                ],
            }
        )
    )
    return str(path)


class TestBatchCommand:
    def test_cold_then_warm_run(self, tmp_path, jobs_file, capsys):
        cache_dir = str(tmp_path / "cache")
        stats = tmp_path / "stats.json"
        argv = [
            "batch",
            jobs_file,
            "--cache-dir",
            cache_dir,
            "--serial",
            "--manifest-dir",
            str(tmp_path / "runs"),
            "--stats-out",
            str(stats),
        ]
        assert main(argv) == 0
        cold = json.loads(stats.read_text())
        assert cold["computed"] == 2 and cold["cached"] == 0
        manifests = sorted((tmp_path / "runs").glob("*.manifest.json"))
        assert [p.name for p in manifests] == [
            "a.manifest.json",
            "b.manifest.json",
        ]

        assert main(argv) == 0
        warm = json.loads(stats.read_text())
        assert warm["cached"] == 2 and warm["computed"] == 0
        assert warm["hit_rate"] == 1.0
        assert warm["alg1_iterations_total"] == 0
        # Manifests served from cache are identical records.
        for cold_row, warm_row in zip(
            cold["outcomes"], warm["outcomes"]
        ):
            assert (
                cold_row["manifest_digest"] == warm_row["manifest_digest"]
            )
        out = capsys.readouterr().out
        assert "hit rate 100%" in out

    def test_batch_with_metrics_export(self, tmp_path, jobs_file):
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "batch",
                    jobs_file,
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--serial",
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        dump = json.loads(metrics.read_text())
        assert dump["counters"]["service.batch.jobs"] == 2
        assert dump["counters"]["service.cache.misses"] == 2

    def test_bad_jobs_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(SystemExit):
            main(["batch", str(bogus)])


class TestQueryCommand:
    def test_query_against_live_daemon(
        self, tmp_path, design_files, capsys
    ):
        netlist, clocks = design_files
        sock = str(tmp_path / "repro.sock")
        with TimingDaemon(sock):
            assert main(["query", "--socket", sock, '{"op": "ping"}']) == 0
            out = capsys.readouterr().out
            assert json.loads(out)["pong"] is True
            request = json.dumps(
                {"op": "analyze", "netlist": netlist, "clocks": clocks}
            )
            assert main(["query", "--socket", sock, request]) == 0
            analyzed = json.loads(capsys.readouterr().out)
            assert analyzed["engine"] == "cold"
            assert analyzed["intended"] is True

    def test_query_bad_json(self, tmp_path):
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["query", "--socket", str(tmp_path / "x.sock"), "{"])

    def test_query_no_daemon(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot reach daemon"):
            main(
                [
                    "query",
                    "--socket",
                    str(tmp_path / "nothing.sock"),
                    '{"op": "ping"}',
                ]
            )


def _serve_in_thread(argv):
    """Run ``main(argv)`` (a ``serve`` command) in a thread; returns
    a connected client, the done event and the exit-status dict."""
    done = threading.Event()
    status = {}

    def run():
        status["code"] = main(argv)
        done.set()

    threading.Thread(target=run, daemon=True).start()
    # Wait for the socket to appear, then drive it.
    for __ in range(200):
        try:
            return DaemonClient(argv[2], timeout=30.0), done, status
        except OSError:
            time.sleep(0.05)
    pytest.fail("serve never came up")  # pragma: no cover


class TestServeCommand:
    def test_serve_foreground_until_shutdown(
        self, tmp_path, design_files
    ):
        sock = str(tmp_path / "serve.sock")
        client, done, status = _serve_in_thread(
            ["serve", "--socket", sock, "--no-cache"]
        )
        with client:
            assert client.ping()["pong"]
            client.shutdown()
        assert done.wait(timeout=10.0)
        assert status["code"] == 0

    def test_serve_keeps_no_cluster_cache(self, tmp_path, design_files):
        """The shipped daemon writes no per-cluster artifacts, carries
        no cluster fields, and every answer matches a from-scratch
        analysis at the same delay state."""
        netlist, clocks = design_files
        cache_dir = tmp_path / "cache"
        client, done, status = _serve_in_thread(
            ["serve", "--socket", str(tmp_path / "serve.sock"),
             "--cache-dir", str(cache_dir)]
        )

        def scratch_digest(factor=None):
            network = load_network(netlist, standard_library())
            delays = estimate_delays(network)
            if factor is not None:
                delays = delays.with_scaled_cell("s1_i0", factor)
            result = Hummingbird(
                network, load_schedule(clocks), delays=delays
            ).analyze()
            return timing_digest(
                result.manifest(netlist_path=netlist, clocks_path=clocks)
            )

        with client:
            analyzed = client.analyze(netlist, clocks)
            mutated = client.mutate(
                netlist, clocks, "scale_cell", cell="s1_i0", factor=1.5,
                analyze=True,
            )
            reread = client.analyze(netlist, clocks)
            client.shutdown()
        assert done.wait(timeout=10.0)
        assert status["code"] == 0

        responses = (analyzed, mutated, mutated["analysis"], reread)
        assert all(r["ok"] for r in responses)
        for response in responses:
            assert "cluster_cache" not in response
            assert "touched_cluster" not in response
        assert not (cache_dir / "clusters").exists()
        assert analyzed["timing_digest"] == scratch_digest()
        assert mutated["analysis"]["timing_digest"] == scratch_digest(1.5)
        assert reread["timing_digest"] == scratch_digest(1.5)

    def test_serve_rejects_cluster_cache_flags(self):
        parser = build_parser()
        for flag in (["--no-cluster-cache"], ["--cluster-cache-entries", "8"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", "--socket", "s.sock", *flag])
            parser.parse_args(["batch", "jobs.json", *flag])

    @pytest.mark.parametrize("layer", ["telemetry", "flight"])
    def test_serve_has_no_off_switch_for_always_on_layers(self, layer):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--socket", "s.sock", f"--no-{layer}"]
            )

    def test_serve_refuses_zero_workers(self, tmp_path):
        """Dispatch always runs on the thread pool: ``--workers`` must
        be at least 1, on the CLI and on the daemon itself."""
        parser = build_parser()
        for count in ("0", "-1"):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    ["serve", "--socket", "s.sock", "--workers", count]
                )
        assert parser.parse_args(
            ["serve", "--socket", "s.sock", "--workers", "1"]
        ).workers == 1
        with pytest.raises(ValueError):
            TimingDaemon(str(tmp_path / "d.sock"), workers=0)
