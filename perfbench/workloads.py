"""The benchmark's four workloads and the program they drive.

Each workload is one closed loop with a single client: the next
operation starts only after the previous one has answered.  The three
DES workloads drive ``repro-sta serve`` with its shipped defaults
(result cache and cluster cache under a fresh ``--cache-dir``,
telemetry on, the default dispatch pool) over its Unix socket; the
batch workload drives :class:`repro.service.BatchEngine` configured as
``repro-sta batch --workers 2`` configures it.  Inputs come from the
workload seed only; the program sees nothing but the generated files.

In the traced run the daemon is hosted in this process (started through
the same CLI entry point, in a thread) so that the tracer can time its
request handling and response encoding, and the batch runs serially in
this process so that the worker's layers are timed too.

Every answer is checked against an oracle after the timed loop; an
operation that raised or whose answer disagrees is a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import resource
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.cells import standard_library
from repro.clocks.serialize import load_schedule, save_schedule
from repro.core.algorithm1 import run_algorithm1
from repro.core.analyzer import Hummingbird
from repro.core.model import AnalysisModel
from repro.core.report import extract_slow_paths
from repro.core.resynthesis import SpeedupModel
from repro.core.slack import SlackEngine
from repro.delay.estimator import estimate_delays
from repro.generators.alu import generate_alu
from repro.generators.des import generate_des
from repro.netlist.persistence import load_network, network_to_dict
from repro.report.manifest import manifest_digest, timing_digest
from repro.service import BatchEngine, ClusterCache, ResultCache
from repro.service.batch import BatchJob

from tracing import Tracer

#: ``des_synth_loop`` scales the paper clocks (period 200) by this
#: factor.  The paper DES is intended down to x0.51 (period 102) and
#: violates at x0.50 (period 100, 3 slow paths, Algorithm 1 in 8
#: iterations): the first period at which Algorithm 3 has a module to
#: speed up.
SYNTH_CLOCK_SCALE = 0.5
#: Delay factor of one ``des_synth_loop`` upsize trial: the speed-up
#: Algorithm 3 applies to a module (``repro.core.resynthesis``).
SYNTH_SPEEDUP = SpeedupModel().speedup_factor
#: Edits of ``des_synth_loop`` checked against a from-scratch analysis.
SYNTH_ORACLE_SAMPLE = 2
#: ALU designs in the ``alu_batch_rerun`` corpus.
ALU_CORPUS = 8
#: Process-pool width of the batch (at most the 2 cores this benchmark
#: was sized on, so the figure does not depend on the host's core count).
BATCH_WORKERS = 2
#: Seconds to wait for a started daemon to answer ``ping``.
BOOT_TIMEOUT_S = 60.0
#: Socket timeout of the client; one operation never takes this long.
CLIENT_TIMEOUT_S = 150.0


class Reply:
    """One daemon answer as the client saw it."""

    __slots__ = ("response", "wall", "rt", "decode")

    def __init__(self, response, wall: float, rt: float, decode: float):
        self.response = response
        #: Request encode, round trip and response decode.
        self.wall = wall
        #: Socket write of the request to the last byte of the answer.
        self.rt = rt
        self.decode = decode


class Client:
    """One connection speaking the daemon's JSON-lines protocol, with
    the wire format of :class:`repro.service.DaemonClient`."""

    def __init__(self, path: str) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(CLIENT_TIMEOUT_S)
        self._sock.connect(path)
        self._file = self._sock.makefile("rwb")

    def call(self, request: Dict[str, object]) -> Reply:
        started = time.perf_counter()
        data = (
            json.dumps(request, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
        sent = time.perf_counter()
        self._file.write(data)
        self._file.flush()
        line = self._file.readline()
        received = time.perf_counter()
        if not line:
            raise ConnectionError("daemon closed the connection")
        response = json.loads(line)
        done = time.perf_counter()
        return Reply(response, done - started, received - sent, done - received)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class Daemon:
    """``repro-sta serve`` with its shipped defaults, in a fresh
    directory: a separate process, or (traced) a thread of this one."""

    def __init__(self, root: Path, directory: Path, traced: bool) -> None:
        directory.mkdir(parents=True)
        # Relative to the checkout root (the working directory of both
        # processes): Unix socket paths are limited to ~100 bytes.
        self.socket = os.path.relpath(directory / "daemon.sock", root)
        argv = [
            "serve",
            "--socket", self.socket,
            "--cache-dir", str(directory / "cache"),
            "--crash-dir", str(directory / "crashes"),
        ]
        self.process: Optional[subprocess.Popen] = None
        self.thread: Optional[threading.Thread] = None
        self._log = None
        if traced:
            from repro import cli

            self.thread = threading.Thread(
                target=cli.main, args=(argv,), daemon=True
            )
            self.thread.start()
        else:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
            )
            self._log = open(directory / "daemon.log", "wb")
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                cwd=root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=self._log,
                stderr=subprocess.STDOUT,
            )
        self.client = self._connect(directory)

    def _connect(self, directory: Path) -> Client:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while True:
            if self.process is not None and self.process.poll() is not None:
                log = (directory / "daemon.log").read_text(errors="replace")
                raise RuntimeError(f"daemon exited at boot:\n{log[-2000:]}")
            try:
                client = Client(self.socket)
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)
                continue
            if client.call({"op": "ping"}).response.get("ok"):
                return client
            client.close()
            raise RuntimeError("daemon did not answer ping")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon process (VmHWM); the whole
        process when it is hosted here."""
        if self.process is None:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            self.client.call({"op": "shutdown"})
        except (OSError, ValueError):
            pass  # already gone: the process is reaped below
        finally:
            self.client.close()
        if self.process is not None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self._log.close()
        if self.thread is not None:
            self.thread.join(timeout=30)


def _write_design(network, schedule, directory: Path, stem: str) -> Tuple[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    netlist = directory / f"{stem}.json"
    clocks = directory / f"{stem}.clocks.json"
    # save_network's format, kept as text so edits can rewrite it.
    netlist.write_text(json.dumps(network_to_dict(network), indent=2))
    save_schedule(schedule, clocks)
    return str(netlist), str(clocks)


def reference_digest(netlist: str, clocks: str, delay_state=None) -> str:
    """``timing_digest`` of a from-scratch one-shot analysis;
    ``delay_state(network)`` gives its delays when they are not the
    estimated ones."""
    network = load_network(netlist, standard_library())
    schedule = load_schedule(clocks)
    delays = delay_state(network) if delay_state is not None else None
    result = Hummingbird(network, schedule, delays=delays).analyze()
    return timing_digest(result.manifest(netlist_path=netlist, clocks_path=clocks))


@lru_cache(maxsize=None)
def upsize_candidates(scale: float) -> Tuple[Tuple[str, ...], Tuple[float, ...]]:
    """The cells Algorithm 3 would speed up in the paper DES at clocks
    x ``scale``, with the score :func:`repro.core.resynthesis.select_module`
    ranks them by: every cell on a slow path, scored by the path's
    violation times the cell's worst arc delay, summed over its paths."""
    network, schedule = generate_des()
    model = AnalysisModel(network, schedule.scaled(scale), estimate_delays(network))
    engine = SlackEngine(model)
    outcome = run_algorithm1(model, engine)
    scores: Dict[str, float] = {}
    for path in extract_slow_paths(model, engine, outcome.slacks.capture, limit=None):
        for step in path.steps:
            delay = model.delays.worst_arc_delay(network.cell(step.cell_name))
            scores[step.cell_name] = (
                scores.get(step.cell_name, 0.0) + max(path.violation, 1e-6) * delay
            )
    if not scores:
        raise RuntimeError(f"DES at clocks x{scale} has no slow path to speed up")
    names = tuple(sorted(scores))
    return names, tuple(scores[name] for name in names)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> int:
    """The highest of the usual percentiles with at least ten of ``n``
    samples beyond it (0 when there are too few samples for any)."""
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return 0


class Workload:
    """One workload: set-up, a timed operation, and its oracle."""

    name = ""
    #: What one timed operation is.
    op_name = ""
    #: Operations a run makes at least, whatever its length (a multiple
    #: of ``op_multiple``).
    min_ops = 1
    #: Runs stop on a multiple of this many operations.
    op_multiple = 1

    def __init__(self, root: Path, work: Path, seed: int, tracer: Optional[Tracer]):
        self.root = root
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}/{seed}")

    def setup(self) -> None:
        """Generate the inputs and bring the program to where users
        start: running, with the first cold analysis paid."""
        raise NotImplementedError

    def op(self, index: int) -> float:
        """Run one operation; returns its client-side wall seconds."""
        raise NotImplementedError

    def check(self) -> int:
        """Check every recorded answer; returns the operations failed."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    def facts(self, summary: Dict[str, object]) -> Dict[str, object]:
        """Workload-specific figures printed beside the metrics, under
        the names the workload's operation has (``summary`` holds the
        run's ``op_p50_ms`` and ``ops_per_s``)."""
        return {}

    def untimed(self):
        """Bookkeeping between operations, left out of the traced
        accounts."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()


class DaemonWorkload(Workload):
    daemon: Optional[Daemon] = None

    def _start_daemon(self) -> None:
        self.daemon = Daemon(self.root, self.work / "daemon", self.tracer is not None)

    def call(self, request: Dict[str, object]) -> Reply:
        """One request; in the traced run the round trip is split into
        daemon handle, encode, transport and client decode."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self.daemon.client.call(request)
        before = tracer.inclusive_s["daemon.handle_s"] + tracer.inclusive_s["daemon.encode_s"]
        reply = self.daemon.client.call(request)
        server = (
            tracer.inclusive_s["daemon.handle_s"]
            + tracer.inclusive_s["daemon.encode_s"]
            - before
        )
        tracer.add("daemon.transport_s", max(0.0, reply.rt - server))
        tracer.add("client.decode_s", reply.decode)
        return reply

    def untimed_call(self, request: Dict[str, object]) -> Reply:
        with self.untimed():
            return self.daemon.client.call(request)

    def analyze(self, netlist: str, clocks: str) -> Reply:
        reply = self.call({"op": "analyze", "netlist": netlist, "clocks": clocks})
        if not reply.response.get("ok"):
            raise RuntimeError(f"analyze failed: {reply.response.get('error')}")
        return reply

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()


class DesCold(DaemonWorkload):
    name = "des_cold"
    op_name = "cold analyze (then evict)"
    min_ops = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.records: List[Tuple[str, str, str, str]] = []
        self.cells = 0
        self._variants = set()

    def _variant(self, directory: Path) -> Tuple[str, str]:
        while True:
            seed = self.rng.randrange(1, 2**31)
            if seed not in self._variants:
                self._variants.add(seed)
                break
        network, schedule = generate_des(seed=seed)
        self.cells = network.num_cells
        return _write_design(network, schedule, directory, f"des{seed}")

    def setup(self) -> None:
        self.inputs = self.work / "inputs"
        netlist, clocks = self._variant(self.inputs)
        self._start_daemon()
        self.analyze(netlist, clocks)
        self.untimed_call({"op": "evict", "netlist": netlist, "clocks": clocks})

    def op(self, index: int) -> float:
        with self.untimed():
            netlist, clocks = self._variant(self.inputs)
        reply = self.analyze(netlist, clocks)
        self.untimed_call({"op": "evict", "netlist": netlist, "clocks": clocks})
        response = reply.response
        self.records.append(
            (netlist, clocks, response.get("engine"), response.get("timing_digest"))
        )
        return reply.wall

    def check(self) -> int:
        return sum(
            engine != "cold" or digest != reference_digest(netlist, clocks)
            for netlist, clocks, engine, digest in self.records
        )

    def facts(self, summary: Dict[str, object]) -> Dict[str, object]:
        return {
            "cells": self.cells,
            "cold_analyze_p50_s": summary["op_p50_ms"] / 1e3,
            "cold_cells_per_s": self.cells * summary["ops_per_s"],
        }


class DesWarmRead(DaemonWorkload):
    name = "des_warm_read"
    op_name = "snapshot read"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.records: List[Tuple[str, str]] = []

    def setup(self) -> None:
        network, schedule = generate_des(seed=self.rng.randrange(1, 2**31))
        self.netlist, self.clocks = _write_design(
            network, schedule, self.work / "inputs", "des"
        )
        self.request = {"op": "analyze", "netlist": self.netlist, "clocks": self.clocks}
        self._start_daemon()
        self.published = self.analyze(self.netlist, self.clocks).response

    def op(self, index: int) -> float:
        reply = self.call(self.request)
        response = reply.response
        self.records.append((response.get("engine"), response.get("manifest_digest")))
        return reply.wall

    def check(self) -> int:
        if self.published.get("timing_digest") != reference_digest(
            self.netlist, self.clocks
        ):
            return len(self.records)
        expected = ("snapshot", self.published.get("manifest_digest"))
        return sum(record != expected for record in self.records)

    def facts(self, summary: Dict[str, object]) -> Dict[str, object]:
        facts = {"read_p50_ms": summary["op_p50_ms"], "reads_per_s": summary["ops_per_s"]}
        facts.update(
            (key.replace("op_", "read_"), value)
            for key, value in summary.items()
            if key.startswith("op_p") and key != "op_p50_ms"
        )
        return facts


class DesSynthLoop(DaemonWorkload):
    name = "des_synth_loop"
    op_name = "edit (mutate scale_cell with analysis; re-read timed apart)"
    #: Two trials, each with its revert.
    min_ops = 4
    op_multiple = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.candidates = upsize_candidates(SYNTH_CLOCK_SCALE)
        #: (cell, factor, rebuilt, edit analysis, re-read answer)
        self.records: List[Tuple[str, float, bool, dict, dict]] = []
        self.read_walls: List[float] = []
        self._trial: Optional[str] = None
        self._rebuilds = 0

    def setup(self) -> None:
        network, schedule = generate_des()
        self.netlist, self.clocks = _write_design(
            network, schedule.scaled(SYNTH_CLOCK_SCALE), self.work / "inputs", "des"
        )
        self._start_daemon()
        self.analyze(self.netlist, self.clocks)

    def op(self, index: int) -> float:
        # A trial speeds up one slow-path cell, drawn with the weight
        # Algorithm 3 ranks it by; the next edit reverts it, so every
        # trial starts from the same violating design.
        if index % 2 == 0:
            names, scores = self.candidates
            cell = self.rng.choices(names, weights=scores)[0]
            factor = SYNTH_SPEEDUP
            self._trial = cell
        else:
            cell = self._trial
            factor = 1.0 / SYNTH_SPEEDUP
        edit = self.call(
            {
                "op": "mutate",
                "netlist": self.netlist,
                "clocks": self.clocks,
                "action": "scale_cell",
                "cell": cell,
                "factor": factor,
                "analyze": True,
            }
        )
        if not edit.response.get("ok"):
            raise RuntimeError(f"mutate failed: {edit.response.get('error')}")
        read = self.analyze(self.netlist, self.clocks)
        self.read_walls.append(read.wall)
        rebuilds = edit.response.get("rebuilds", 0)
        self.records.append(
            (
                cell,
                factor,
                rebuilds > self._rebuilds,
                edit.response.get("analysis", {}),
                read.response,
            )
        )
        self._rebuilds = rebuilds
        return edit.wall

    def check(self) -> int:
        failed = [False] * len(self.records)
        for i, (_, _, _, analysis, read) in enumerate(self.records):
            # The re-read must be the edit's published answer, byte for
            # byte apart from the engine that served it.
            failed[i] = _without_engine(analysis) != _without_engine(read)
        sample = {0}
        while len(sample) < min(SYNTH_ORACLE_SAMPLE, len(self.records)):
            sample.add(self.rng.randrange(len(self.records)))
        for i in sorted(sample):
            edits = [(cell, factor) for cell, factor, *_ in self.records[: i + 1]]

            def delays(network, edits=edits):
                delay_map = estimate_delays(network)
                for cell, factor in edits:
                    delay_map = delay_map.with_scaled_cell(cell, factor)
                return delay_map

            expected = reference_digest(self.netlist, self.clocks, delays)
            if self.records[i][3].get("timing_digest") != expected:
                failed[i] = True
        return sum(failed)

    def facts(self, summary: Dict[str, object]) -> Dict[str, object]:
        edits = len(self.records)
        reads = self.read_walls
        facts = {
            "edit_p50_s": summary["op_p50_ms"] / 1e3,
            "read_p50_ms": 1e3 * percentile(reads, 50),
            # Input properties: edits that changed a control path (the
            # model is rebuilt), edits that left DES violating, and
            # trials that brought it back within the edge.
            "control_edit_share": sum(r[2] for r in self.records) / edits,
            "past_edge_share": sum(bool(r[3].get("slow_paths")) for r in self.records)
            / edits,
            "trial_fix_share": sum(
                not r[3].get("slow_paths") for r in self.records[::2]
            ) / len(self.records[::2]),
        }
        tail = tail_percentile(len(reads))
        if tail:
            facts[f"read_p{tail}_ms"] = 1e3 * percentile(reads, tail)
        return facts


def _without_engine(response: dict) -> str:
    return json.dumps(
        {k: v for k, v in response.items() if k != "engine"}, sort_keys=True
    )


class AluBatchRerun(Workload):
    name = "alu_batch_rerun"
    op_name = "batch re-run after a one-gate edit"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.engine: Optional[BatchEngine] = None
        #: (design index, its netlist text at the re-run, all outcomes)
        self.records: List[Tuple[int, str, list]] = []
        self.computed: List[int] = []

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/corpus")
        self.designs: List[dict] = []
        self.jobs: List[BatchJob] = []
        for k in range(ALU_CORPUS):
            network, schedule = generate_alu(seed=rng.randrange(1, 2**31))
            netlist, clocks = _write_design(
                network, schedule, self.work / "inputs", f"alu{k}"
            )
            self.designs.append(json.loads(Path(netlist).read_text()))
            self.jobs.append(BatchJob(name=f"alu{k}", netlist=netlist, clocks=clocks))
        # `repro-sta batch --cache-dir D --workers 2`: the result cache
        # in D, the cluster cache in D/clusters, their CLI entry bounds.
        cache_dir = self.work / "cache"
        self.engine = BatchEngine(
            cache=ResultCache(cache_dir, max_entries=256),
            cluster_cache=ClusterCache(cache_dir / "clusters", max_entries=4096),
            max_workers=min(BATCH_WORKERS, os.cpu_count() or 1),
            serial=self.tracer is not None,
        )
        report = self.engine.run(self.jobs)
        if report.computed != len(self.jobs):
            raise RuntimeError(f"cold batch fill: {report.to_dict()}")
        self.answers = {
            o.job.name: manifest_digest(o.manifest) for o in report.outcomes
        }
        self.swappable = [
            [i for i, cell in enumerate(d["cells"]) if cell["spec"] in ("INV", "BUF")]
            for d in self.designs
        ]

    def op(self, index: int) -> float:
        with self.untimed():
            design = self.rng.randrange(len(self.designs))
            # Each edit swaps a gate no earlier edit touched, so the
            # edited netlist is always new to the result cache.
            cells = self.swappable[design]
            cell = self.designs[design]["cells"][
                cells.pop(self.rng.randrange(len(cells)))
            ]
            cell["spec"] = "BUF" if cell["spec"] == "INV" else "INV"
            text = json.dumps(self.designs[design], indent=2)
            Path(self.jobs[design].netlist).write_text(text)
        started = time.perf_counter()
        report = self.engine.run(self.jobs)
        wall = time.perf_counter() - started
        self.computed.append(report.computed)
        self.records.append((design, text, report.outcomes))
        return wall

    def check(self) -> int:
        failed = 0
        answers = dict(self.answers)
        # The edited netlist's bytes at the re-run, so the reference
        # manifest hashes the same input the job did.
        reference = self.work / "reference.json"
        for design, text, outcomes in self.records:
            name = self.jobs[design].name
            ok = True
            for outcome in outcomes:
                if outcome.job.name == name:
                    reference.write_text(text)
                    ok &= outcome.status == "computed" and timing_digest(
                        outcome.manifest
                    ) == reference_digest(str(reference), outcome.job.clocks)
                    answers[name] = manifest_digest(outcome.manifest)
                else:
                    ok &= (
                        outcome.status == "cached"
                        and manifest_digest(outcome.manifest) == answers[outcome.job.name]
                    )
            failed += not ok
        return failed

    def peak_rss_mb(self) -> float:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (self_kb + worker_kb) / 1024.0

    def stop(self) -> None:
        self.engine = None

    def facts(self, summary: Dict[str, object]) -> Dict[str, object]:
        return {
            "batch_rerun_p50_s": summary["op_p50_ms"] / 1e3,
            "jobs": len(self.jobs),
            "computed_per_rerun": sum(self.computed) / len(self.computed),
        }


WORKLOADS = {
    w.name: w for w in (DesCold, DesWarmRead, DesSynthLoop, AluBatchRerun)
}
