"""The ConVGPU daemon as deployed, measured end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wrapper_cycle --seed 1 --seconds 16 --trace 0

``--workload all`` runs every workload in turn.  The server is spawned
exactly as an operator would run it (see ``deploy.py``) and driven from
this one process over the real wire (see ``drive.py``): one thread,
closed loop, at most the control connection and one container connection
open at a time.  The generator and the server share one CPU.

Workloads:

- ``wrapper_cycle``: one container, one blocking connection; each op is
  ``alloc_request`` (awaiting the grant), ``alloc_commit``,
  ``alloc_release`` - the paper's Fig. 4 shape.
- ``pipelined_alloc``: windows of 32 pipelined ``alloc_request`` then the
  32 commits and 32 releases, on one connection.
- ``container_churn``: container lifecycles - register under-assigned,
  allocate until a request pauses, exit the previous holder (which
  resumes the request), finish, free, ``process_exit``.
- ``routed_cycle``: ``wrapper_cycle`` through the router of
  ``repro daemon --shards 2``.

Every workload but ``container_churn`` spends the last half of its
``--seconds`` on churn lifecycles beside its cycle container, so every
end-to-end metric is measured on every workload.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced chunks of the same workload, then times each layer's
public functions in process on the op stream the wire saw, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the exit
code is non-zero when any output check failed.

The timed phase runs in 20 ms slices between readings of a reference
round trip on the same CPU (see ``meter.py``).  Every
end-to-end time but ``setup_s`` is in ``ref_rtt``, multiples of that
reference round trip, because the shared host's speed swings 1.8x within
seconds and raw times of whole runs spread by 20-35%:

- ``cycle_time``: wall time per request -> commit -> release cycle;
- ``alloc_rtt_p50``/``_p90``: ``alloc_request`` round trip (a window's on
  ``pipelined_alloc``), nearest-rank over every sample;
- ``lifecycle_time``: wall time per churn lifecycle;
- ``resume_p50``/``_p75``: holder's ``container_exit`` sent -> paused
  container's grant received (p90 is printed, not gated: see below);
- ``daemon_cpu_per_op``: CPU of every server process per op (cycle, or
  lifecycle on ``container_churn``);
- ``setup_s`` (seconds, median of 3 spawns) and ``daemon_rss_mb`` (MB,
  read after a fixed number of ops) are as measured.

The same figures in us and per second are printed above the table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import layers  # noqa: E402
from deploy import Deployment  # noqa: E402
from drive import ChurnStats, CheckFailed, NoSpans, Session, Spans  # noqa: E402
from gen import MAIN_LIMIT, MiB, CycleStream, Lifecycles  # noqa: E402
from meter import SLICE_S, Meter, Tally  # noqa: E402
from repro.errors import ReproError  # noqa: E402

perf = time.perf_counter

#: workload -> (deployment, driver)
WORKLOADS = {
    "wrapper_cycle": ("direct", "cycles"),
    "pipelined_alloc": ("direct", "windows"),
    "container_churn": ("direct", "churn"),
    "routed_cycle": ("sharded", "cycles"),
}
#: Spawns per run; setup_s is their median.
SETUPS = 3
#: Share of --seconds the cycle workloads spend on churn lifecycles.
PROBE_SHARE = 0.5
#: Ops of the main phase after which the server's RSS is read.  The RSS
#: grows with ops done (about 1 MB per 1000 cycles), so reading it after
#: a fixed amount of work, not at the end, keeps a faster host from
#: showing a larger RSS.  Each is reached in under half the main phase
#: of a 20 s run on a 2-vCPU VM in its slow periods.
RSS_AT_OPS = {"cycles": 6000, "windows": 16000, "churn": 400}
#: Unmeasured driving before the timed phase, so lazy set-up is done.
WARMUP_S = 0.5
#: Untraced/traced chunks of the traced run, in ABBA order so a drift
#: over the run (state growing on container_churn) falls on both equally.
TRACE_CHUNKS = 12
#: A generator busier than this share of wall time may be the bottleneck.
SATURATED = 0.9
SATURATION_WARNING = "WARNING: generator saturated; throughput may be the client's"
#: Unit of every end-to-end time but setup_s: multiples of the reference
#: round trip measured beside each slice (see meter.py).
REF_UNIT = "ref_rtt"


class Run:
    """One deployment of one workload, driven and checked."""

    def __init__(self, workload: str, seed: int, run_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.kind, self.driver = WORKLOADS[workload]
        self.deployment: Deployment | None = None
        self.session: Session | None = None
        self.client = None
        self.stream: CycleStream | None = None
        self.lifecycles: Lifecycles | None = None
        self.holders: dict[int, str] = {}
        self.sessions: list[Session] = []
        #: Server RSS once the main phase has done RSS_AT_OPS ops.
        self.rss_kb: int | None = None

    def setup(self, index: int) -> float:
        """Spawn the server and do the workload's registrations; returns seconds."""
        began = perf()
        self.deployment = Deployment(
            self.kind, os.path.join(self.run_dir, f"setup{index}"), SRC
        )
        self.session = Session(self.deployment)
        self.sessions.append(self.session)
        if self.driver == "churn":
            self.lifecycles = Lifecycles(self.seed, "churn")
            self.holders = self.session.seat_holders(self.lifecycles, 1)
        else:
            max_size = 24 * MiB if self.driver == "windows" else 256 * MiB
            self.stream = CycleStream(self.seed, self.workload, max_size)
            path, _ = self.session.register(self.stream.container_id, MAIN_LIMIT)
            self.client = self.session.connect(path)
        return perf() - began

    @property
    def attempted(self) -> int:
        return sum(session.attempted for session in self.sessions)

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.session is not None:
            self.session.close()
        if self.deployment is not None:
            self.deployment.stop()
            self.deployment = None

    def drive(self, seconds: float, churn: ChurnStats, rtts: list[float]) -> int:
        """Run the workload for ``seconds``; returns ops (cycles or lifecycles)."""
        deadline = perf() + seconds
        session = self.session
        if self.driver == "churn":
            before = churn.lifecycles
            while perf() < deadline:
                session.lifecycle(self.lifecycles.next(), self.holders, churn)
            return churn.lifecycles - before
        run = session.cycles if self.driver == "cycles" else session.windows
        done = run(self.client, self.stream, deadline, rtts)
        # A round trip after the last notifications: the daemon has done
        # all the work before its CPU is sampled.
        session.check_free(self.client, self.stream.container_id, self.stream.pid)
        return done

    def start_probe(self) -> None:
        """Seat the churn holders beside the cycle container."""
        self.client.close()  # keeps the generator at two connections
        self.client = None
        self.lifecycles = Lifecycles(self.seed, "probe")
        shards = 2 if self.kind == "sharded" else 1
        self.holders = self.session.seat_holders(self.lifecycles, shards)

    def probe(self, seconds: float, churn: ChurnStats) -> float:
        """Churn lifecycles beside the cycle container; returns seconds taken."""
        self.start_probe()
        began = perf()
        while perf() < began + seconds:
            self.session.lifecycle(self.lifecycles.next(), self.holders, churn)
        return perf() - began

    def sliced(
        self, phase: str, seconds: float, tally: Tally, meter: Meter,
        churn: ChurnStats, rtts: list[float],
    ) -> None:
        """Drive ``phase`` for ``seconds`` in slices between readings of ``meter``.

        ``main`` is the workload's own load; ``probe`` is churn lifecycles
        beside a cycle container (after :meth:`start_probe`).
        """
        deployment, session = self.deployment, self.session
        cycling = phase == "main" and self.driver != "churn"
        run = session.cycles if self.driver == "cycles" else session.windows
        reading = meter.read()
        done_ops = 0
        deadline = perf() + seconds
        while perf() < deadline:
            lifecycles, cycles = churn.lifecycles, churn.cycles
            marks = len(churn.rtts), len(churn.resume_s), len(rtts)
            cpu0, began = deployment.cpu_seconds(), perf()
            end = min(deadline, began + SLICE_S)
            if cycling:
                ops = run(self.client, self.stream, end, rtts)
                wall = perf() - began
                # A round trip after the slice's notifications: the server
                # has done the slice's work before its CPU is read.
                session.check_free(self.client, self.stream.container_id, self.stream.pid)
                counts = {"ops": ops, "cycles": ops}
                samples = {"rtt": rtts[marks[2]:]}
            else:
                while perf() < end:
                    session.lifecycle(self.lifecycles.next(), self.holders, churn)
                wall = perf() - began
                done = churn.lifecycles - lifecycles
                counts = {"ops": done, "lifecycles": done, "cycles": churn.cycles - cycles}
                samples = {
                    "rtt": churn.rtts[marks[0]:], "resume": churn.resume_s[marks[1]:]
                }
            cpu = deployment.cpu_seconds() - cpu0
            before, reading = reading, meter.read()
            tally.add(phase, wall, cpu, (before + reading) / 2, counts, samples)
            done_ops += counts["ops"]
            if phase == "main" and self.rss_kb is None and (
                done_ops >= RSS_AT_OPS[self.driver]
            ):
                self.rss_kb = deployment.resources()["rss_kb"]

    def verify(self) -> None:
        """Final mem_get_info of every open container, then offline restore()."""
        session = self.session
        if self.client is not None:
            session.check_free(self.client, self.stream.container_id, self.stream.pid)
            self.client.close()
            self.client = None
        for cid in self.holders.values():
            client = session.connect(session.paths[cid])
            try:
                session.check_free(client, cid, 0)
            finally:
                client.close()
        expected = {
            cid: (record.limit, record.used) for cid, record in session.containers.items()
        }
        session.close()
        deployment, self.deployment = self.deployment, None
        code = deployment.stop()
        if code != 0:
            raise CheckFailed(f"server exited with {code}: {deployment.log_tail()}")
        restored = deployment.restored_open_containers()
        if restored != expected:
            raise CheckFailed(f"restore() gave {restored}, stream implies {expected}")


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setups = []
    for index in range(SETUPS):
        if index:
            run.teardown()
        setups.append(run.setup(index))
    run.drive(WARMUP_S, ChurnStats(), [])
    meter = Meter()
    try:
        tally, churn, rtts = Tally(), ChurnStats(), []
        probe_s = 0.0 if run.driver == "churn" else seconds * PROBE_SHARE
        client0, began = time.process_time(), perf()
        run.sliced("main", seconds - probe_s, tally, meter, churn, rtts)
        wall = perf() - began
        client_cpu = time.process_time() - client0
        if run.rss_kb is None:  # a host too slow to reach RSS_AT_OPS
            run.rss_kb = run.deployment.resources()["rss_kb"]
        probe = "main"
        if probe_s:
            probe = "probe"
            run.start_probe()
            run.sliced(probe, probe_s, tally, meter, churn, rtts)
    finally:
        meter.close()
    run.verify()
    ops = tally.count("main", "ops")

    def figures(scaled: bool) -> list[float]:
        return [
            tally.per("main", "wall", "cycles", scaled),
            tally.percentile("main", "rtt", 0.50, scaled),
            tally.percentile("main", "rtt", 0.90, scaled),
            tally.per(probe, "wall", "lifecycles", scaled),
            tally.percentile(probe, "resume", 0.50, scaled),
            tally.percentile(probe, "resume", 0.75, scaled),
            tally.per("main", "cpu", "ops", scaled),
        ]

    names = ("cycle_time", "alloc_rtt_p50", "alloc_rtt_p90", "lifecycle_time",
             "resume_p50", "resume_p75", "daemon_cpu_per_op")
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name, value in zip(names, figures(True)):
        metrics[name] = (value, REF_UNIT)
    metrics["daemon_rss_mb"] = (run.rss_kb / 1024, "MB")
    cycle_s, p50, p90, lifecycle_s, resume50, resume75, cpu_s = figures(False)
    notes = [
        f"samples: alloc_rtt {tally.samples('main', 'rtt')}, "
        f"resume {tally.samples(probe, 'resume')}, "
        f"lifecycles {tally.count(probe, 'lifecycles')}, ops {ops}, "
        f"slices {len(tally.slices['main']) + len(tally.slices['probe'])}",
        f"{REF_UNIT}: median reference round trip {tally.ref_us():.1f} us",
        f"raw: cycles_per_s {1 / cycle_s:.1f}, alloc_rtt_p50_us {p50 * 1e6:.1f}, "
        f"alloc_rtt_p90_us {p90 * 1e6:.1f}, containers_per_s {1 / lifecycle_s:.2f}, "
        f"resume_p50_us {resume50 * 1e6:.1f}, resume_p75_us {resume75 * 1e6:.1f}, "
        f"daemon_cpu_us_per_op {cpu_s * 1e6:.1f}",
        # Printed, not gated: on container_churn about 1% of requests wait
        # behind a journal snapshot, so p99 sits on that knee and swings.
        f"alloc_rtt_p99 {tally.percentile('main', 'rtt', 0.99, True):.2f} {REF_UNIT} "
        f"(not gated)",
        # Printed, not gated: a resume crosses two or three server threads
        # (and the router) on one shared CPU, and beyond its p75 it waits
        # on whichever of them the host delays: in ten runs per workload
        # p90 spread 0.19-1.0 of its median where p50 spread 0.03-0.13.
        f"resume_p90 {tally.percentile(probe, 'resume', 0.90, True):.2f} {REF_UNIT} "
        f"(not gated)",
        f"client.cpu_us_per_op {client_cpu / max(ops, 1) * 1e6:.1f} "
        f"(generator busy {client_cpu / wall:.0%} of wall time)",
    ]
    if client_cpu / wall > SATURATED:
        notes.append(SATURATION_WARNING)
    return metrics, notes


def traced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    run.setup(0)
    deployment = run.deployment
    run.drive(WARMUP_S, ChurnStats(), [])
    spans = Spans()
    per_mode = {False: [0.0, 0, 0.0], True: [0.0, 0, 0.0]}  # wall, ops, client cpu
    churn, rtts = ChurnStats(), []
    before = deployment.resources()
    journal0 = deployment.journal_bytes()
    probe_s = 0.0 if run.driver == "churn" else seconds * PROBE_SHARE
    for chunk in range(TRACE_CHUNKS):
        tracing = chunk % 4 in (1, 2)
        run.session.spans = spans if tracing else NoSpans()
        client0, began = time.process_time(), perf()
        ops = run.drive((seconds - probe_s) / TRACE_CHUNKS, churn, rtts)
        totals = per_mode[tracing]
        totals[0] += perf() - began
        totals[1] += ops
        totals[2] += time.process_time() - client0
    run.session.spans = NoSpans()
    ops = per_mode[False][1] + per_mode[True][1]
    after = deployment.resources()
    journal_growth = deployment.journal_bytes() - journal0
    if probe_s:
        run.probe(probe_s, churn)
    run.verify()
    ops_log = run.session.ops
    untraced_wall, untraced_ops, untraced_cpu = per_mode[False]
    traced_wall, traced_ops, _ = per_mode[True]
    metrics = {}
    metrics.update(layers.protocol_costs(ops_log))
    metrics["transport.null_rtt_us"] = layers.null_rtt_us(run.run_dir, SRC)
    metrics["client.cpu_us_per_op"] = untraced_cpu / untraced_ops * 1e6
    metrics.update(layers.scheduler_costs(ops_log))
    metrics["journal.durable_wait_us"] = layers.durable_wait_us(
        ops_log, os.path.join(run.run_dir, "inprocess.journal")
    )
    metrics["journal.bytes_per_op"] = journal_growth / ops
    metrics["control.register_ms"] = statistics.median(churn.register_s) * 1e3
    metrics["control.exit_ms"] = statistics.median(churn.exit_s) * 1e3
    direct_p50, routed_p50 = hop_probe(run)
    metrics["router.hop_us"] = routed_p50 - direct_p50
    metrics["daemon.threads"] = after["threads"]
    metrics["daemon.fds"] = after["fds"]
    metrics["daemon.rss_kb_per_kop"] = (after["rss_kb"] - before["rss_kb"]) / ops * 1e3
    metrics["unattributed_us"] = direct_p50 - (
        metrics["transport.null_rtt_us"]
        + metrics["scheduler.request_us"]
        + metrics["journal.durable_wait_us"]
    )
    metrics["trace.overhead"] = (traced_wall / traced_ops) / (untraced_wall / untraced_ops)
    units = {"journal.bytes_per_op": "B", "daemon.threads": "count",
             "daemon.fds": "count", "daemon.rss_kb_per_kop": "kB",
             "scheduler.release_us.growth": "ratio", "trace.overhead": "ratio"}
    result = {}
    for name, value in metrics.items():
        unit = units.get(name) or ("ms" if name.endswith("_ms") else "us")
        result[name] = (value, unit)
    notes = [f"hop probe: direct p50 {direct_p50:.1f} us, routed p50 {routed_p50:.1f} us"]
    if untraced_cpu / untraced_wall > SATURATED:
        notes.append(SATURATION_WARNING)
    notes.append(f"{'span':28} {'count':>8} {'total ms':>10} {'self us/call':>13}")
    for name, count, total, self_time in spans.table():
        notes.append(f"{name:28} {count:8d} {total * 1e3:10.1f} {self_time / count * 1e6:13.1f}")
    return result, notes


def hop_probe(run: Run, chunks: int = 4, chunk_s: float = 0.3) -> tuple[float, float]:
    """p50 wrapper-cycle round trip, direct and routed, from alternating chunks."""
    sides = []
    try:
        for kind in ("direct", "sharded"):
            deployment = Deployment(kind, os.path.join(run.run_dir, f"hop-{kind}"), SRC)
            sides.append([deployment, None, None, None, []])
            session = Session(deployment)
            stream = CycleStream(run.seed, f"hop-{kind}", 256 * MiB)
            path, _ = session.register(stream.container_id, MAIN_LIMIT)
            session.close()  # keeps the generator at two connections
            sides[-1][1:4] = session, session.connect(path), stream
        for _ in range(chunks):
            for _, session, client, stream, rtts in sides:
                session.cycles(client, stream, perf() + chunk_s, rtts)
        for _, session, client, stream, _ in sides:
            session.check_free(client, stream.container_id, stream.pid)
    finally:
        for deployment, _, client, _, _ in sides:
            if client is not None:
                client.close()
            deployment.stop()
    direct, routed = (statistics.median(side[4]) * 1e6 for side in sides)
    return direct, routed


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run of one workload; prints its table and, last, its JSON result."""
    run_dir = os.path.join(".perfbench", f"{workload}-{seed}-{os.getpid()}")
    run = Run(workload, seed, run_dir)
    failed = 0
    metrics: dict = {}
    try:
        measure = traced if trace else end_to_end
        metrics, notes = measure(run, seconds)
    except (CheckFailed, ReproError) as exc:
        failed, notes = 1, [f"CHECK FAILED: {type(exc).__name__}: {exc}"]
    finally:
        run.teardown()
    print(f"== {workload} seed {seed}, {seconds:g} s, trace {trace}")
    for line in notes:
        print(line)
    print(f"error_rate {failed / max(run.attempted, 1):.6f} ({failed} of {run.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:14.4f} {unit}")
    if not failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # One CPU for the generator and, by inheritance, every server process.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(
        run_workload(workload, args.seed, args.seconds, args.trace)
        for workload in workloads
    )


if __name__ == "__main__":
    sys.exit(main())
