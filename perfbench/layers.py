"""Per-layer costs for the traced run, timed from the benchmark's own files.

Each function calls one layer's public API with the workload's own
inputs (the op stream :class:`drive.Session` recorded on the wire), so a
layer's cost is measured on the traffic the end-to-end numbers came from.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from repro.core.scheduler import GpuMemoryScheduler, SchedulerJournal, make_policy
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient

from deploy import spawn
from drive import CheckFailed, check_load_shape
from gen import MiB, TOTAL

perf = time.perf_counter
_VERB_METRIC = {
    "register": "scheduler.register_us",
    "request": "scheduler.request_us",
    "commit": "scheduler.commit_us",
    "release": "scheduler.release_us",
    "exit": "scheduler.exit_us",
}


def _us(seconds: float) -> float:
    return seconds * 1e6


# -- ipc.protocol -------------------------------------------------------------


def _frames(ops: list[tuple]) -> tuple[list[dict], list[dict]]:
    """The request and reply messages the op stream put on the wire."""
    requests: list[dict] = []
    replies: list[dict] = []
    for seq, op in enumerate(ops, 1):
        kind, _, cid = op[:3]
        if kind == "register":
            request = protocol.make_request(
                protocol.MSG_REGISTER_CONTAINER, seq, container_id=cid, limit=op[3]
            )
            reply = protocol.make_reply(
                request, assigned=op[3], limit=op[3], socket_dir=f".perfbench/{cid[:12]}"
            )
        elif kind == "request":
            request = protocol.make_request(
                protocol.MSG_ALLOC_REQUEST, seq, container_id=cid, pid=op[3],
                size=op[4], api="cudaMalloc",
            )
            reply = protocol.make_reply(request, decision="grant")
        elif kind == "commit":
            request = protocol.make_request(
                protocol.MSG_ALLOC_COMMIT, seq, container_id=cid, pid=op[3],
                address=op[4], size=op[5],
            )
            reply = None
        elif kind == "release":
            request = protocol.make_request(
                protocol.MSG_ALLOC_RELEASE, seq, container_id=cid, pid=op[3],
                address=op[4],
            )
            reply = None
        elif kind == "exit":
            request = protocol.make_request(
                protocol.MSG_CONTAINER_EXIT, seq, container_id=cid
            )
            reply = protocol.make_reply(request, reclaimed=3 * 1024 * MiB)
        else:  # process_exit
            request = protocol.make_request(
                protocol.MSG_PROCESS_EXIT, seq, container_id=cid, pid=op[3]
            )
            reply = None
        requests.append(request)
        if reply is not None:
            replies.append(reply)
    return requests, replies


def protocol_costs(ops: list[tuple], limit: int = 4000, repeats: int = 7) -> dict[str, float]:
    """Binary encode / decode / validate cost per frame, median of repeats."""
    requests, replies = _frames(ops[:limit])
    messages = requests + replies
    encoded = [protocol.encode_binary(message) for message in messages]
    costs: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        began = perf()
        for message in messages:
            protocol.encode_binary(message)
        costs["protocol.encode_us"].append((perf() - began) / len(messages))
        began = perf()
        for frame in encoded:
            protocol.decode_binary(frame)
        costs["protocol.decode_us"].append((perf() - began) / len(encoded))
        decoded = [protocol.decode_binary(frame) for frame in encoded[: len(requests)]]
        began = perf()
        for message in decoded:
            protocol.validate_request(message)
        costs["protocol.validate_us"].append((perf() - began) / len(decoded))
    return {name: _us(statistics.median(values)) for name, values in costs.items()}


# -- core.scheduler -----------------------------------------------------------


def _scheduler() -> GpuMemoryScheduler:
    # What the daemon CLI builds: the default pool and policy, wall clock.
    return GpuMemoryScheduler(TOTAL, make_policy("FIFO"), clock=time.time)


def _apply(scheduler: GpuMemoryScheduler, op: tuple, resumed: list) -> None:
    kind, _, cid = op[:3]
    if kind == "register":
        scheduler.register_container(cid, op[3])
    elif kind == "request":
        decision = scheduler.request_allocation(
            cid, op[3], op[4], api="cudaMalloc", on_resume=resumed.append
        )
        if decision.paused != op[5] or not (decision.paused or decision.granted):
            raise CheckFailed(f"in-process {op}: decided {decision!r}")
    elif kind == "commit":
        scheduler.commit_allocation(cid, op[3], op[4], op[5])
    elif kind == "release":
        scheduler.release_allocation(cid, op[3], op[4])
    elif kind == "exit":
        scheduler.container_exit(cid)
    else:
        scheduler.process_exit(cid, op[3])


def scheduler_costs(ops: list[tuple]) -> dict[str, float]:
    """Replay the op stream on in-process schedulers (one per shard, no journal).

    The replay must decide exactly as the daemon did over the wire.
    """
    schedulers: dict[int, GpuMemoryScheduler] = {}
    times: dict[str, list[float]] = defaultdict(list)
    resumed: list[dict] = []
    for op in ops:
        scheduler = schedulers.get(op[1])
        if scheduler is None:
            scheduler = schedulers[op[1]] = _scheduler()
        began = perf()
        _apply(scheduler, op, resumed)
        times[op[0]].append(perf() - began)
    paused = sum(1 for op in ops if op[0] == "request" and op[5])
    if len(resumed) != paused or any(r.get("decision") != "grant" for r in resumed):
        raise CheckFailed(f"in-process replay resumed {len(resumed)} of {paused} pauses")
    metrics = {
        metric: _us(statistics.median(times[verb]))
        for verb, metric in _VERB_METRIC.items()
    }
    releases = times["release"]
    tenth = max(1, len(releases) // 10)
    metrics["scheduler.release_us.growth"] = statistics.median(
        releases[-tenth:]
    ) / statistics.median(releases[:tenth])
    return metrics


# -- core.scheduler.journal ---------------------------------------------------


def durable_wait_us(ops: list[tuple], path: str, limit: int = 4000) -> float:
    """Median time from a verb's return until ``wait_durable()`` returns.

    The journal is configured as ``repro daemon --journal-path`` builds it;
    the verb runs inside a batch, so its own durability wait is deferred
    to the timed call.  Ops of the first op's shard only: one journal
    belongs to one scheduler.
    """
    scheduler = _scheduler()
    journal = SchedulerJournal(path, compact_at_bytes=None)
    journal.attach(scheduler)
    waits: list[float] = []
    resumed: list[dict] = []
    try:
        check_load_shape()
        shard = ops[0][1]
        for op in ops:
            if op[1] != shard:
                continue
            scheduler.begin_batch()
            _apply(scheduler, op, resumed)
            began = perf()
            journal.wait_durable()
            waits.append(perf() - began)
            scheduler.commit_batch()
            if len(waits) >= limit:
                break
    finally:
        journal.close()
    return _us(statistics.median(waits))


# -- ipc.unix_socket + ipc.loop -----------------------------------------------


def null_rtt_us(run_dir: str, src_dir: str, count: int = 4000) -> float:
    """p50 round trip of an alloc frame through a grant-at-once server."""
    path = os.path.join(run_dir, "null.sock")
    server = spawn(
        [sys.executable, os.path.join(os.path.dirname(__file__), "nullserver.py"), path],
        src_dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        if server.stdout.readline().strip() != b"ready":
            raise RuntimeError("null server did not start")
        client = UnixSocketClient(path)
        try:
            check_load_shape()
            rtts: list[float] = []
            for index in range(count):
                began = perf()
                reply = client.call(
                    protocol.MSG_ALLOC_REQUEST, container_id="0123456789abcdef",
                    pid=4242, size=index * 4096 + 4096, api="cudaMalloc",
                )
                rtts.append(perf() - began)
                if reply.get("decision") != "grant":
                    raise CheckFailed(f"null server replied {reply}")
        finally:
            client.close()
    finally:
        server.stdin.close()
        server.wait(timeout=30)
        server.stdout.close()
    return _us(statistics.median(rtts[count // 10:]))
