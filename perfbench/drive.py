"""The load generator: one thread, closed loop, over the real wire.

Every reply is checked against a model of what the daemon must hold,
built only from the generated stream: grants where a grant is due,
pause-then-grant where the container is under-assigned, the bytes a
``container_exit`` reclaims, and ``mem_get_info`` at the end.  Every
state-changing call is also appended to :attr:`Session.ops`, the op
stream the traced run replays in process.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.core.scheduler.daemon import CONTAINER_SOCKET_NAME
from repro.errors import TransportError
from repro.ipc import protocol
from repro.ipc.unix_socket import UnixSocketClient

from gen import OVERHEAD, TOTAL, WINDOW, CycleStream, Lifecycle, Lifecycles

perf = time.perf_counter
#: The host's nproc, read at import: run.py pins itself to one CPU later.
NPROC = len(os.sched_getaffinity(0))


class CheckFailed(Exception):
    """A reply or final state differs from what the stream implies."""


def check_load_shape() -> None:
    """At most ``nproc`` threads and ``nproc`` open connections here.

    Connections are the process's socket fds beyond stdio (which the
    caller may have made a socket).
    """
    threads = threading.active_count()
    sockets = 0
    for fd in os.listdir("/proc/self/fd"):
        if int(fd) <= 2:
            continue
        try:
            sockets += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            continue  # the listing's own fd, already closed
    if threads > NPROC or sockets > NPROC:
        raise RuntimeError(
            f"load shape exceeded: {threads} threads, {sockets} connections, "
            f"nproc {NPROC}"
        )


class Spans:
    """In-memory spans recorded around the generator's calls into each layer."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, parent, start, end]

    def open(self, name: str, parent: int = -1) -> int:
        self.records.append([name, parent, perf(), 0.0])
        return len(self.records) - 1

    def close(self, index: int) -> None:
        self.records[index][3] = perf()

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, count, total seconds, self seconds) per span name."""
        child_time = [0.0] * len(self.records)
        for name, parent, start, end in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        rows: dict[str, list] = {}
        for (name, _, start, end), children in zip(self.records, child_time):
            row = rows.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return [(name, *row) for name, row in rows.items()]


@dataclass
class Container:
    """What the daemon must hold for one open container."""

    limit: int
    shard: int
    assigned: int
    used: int = 0


class NoSpans:
    """The untraced run's stand-in for :class:`Spans`."""

    def open(self, name: str, parent: int = -1) -> int:
        return -1

    def close(self, index: int) -> None:
        pass


class Session:
    """Connections to one deployment plus the model of its state."""

    def __init__(self, deployment) -> None:
        self.deployment = deployment
        self.spans: Spans | NoSpans = NoSpans()
        self.reserved: dict[int, int] = defaultdict(int)  # shard -> bytes
        self.containers: dict[str, Container] = {}
        self.ops: list[tuple] = []
        #: Ops begun: cycles, or lifecycles; a failed op counts too.
        self.attempted = 0
        self.paths: dict[str, str] = {}  # container id -> its socket
        self.ctl = self.connect(deployment.control)

    def connect(self, path: str) -> UnixSocketClient:
        # A reply that never comes fails the run instead of hanging it.
        client = UnixSocketClient(path, timeout=30.0)
        check_load_shape()
        return client

    def close(self) -> None:
        self.ctl.close()

    # -- control plane --------------------------------------------------------

    def register(self, cid: str, limit: int) -> tuple[str, float]:
        """Register; returns the container socket and the call's seconds."""
        began = perf()
        reply = self.ctl.call(
            protocol.MSG_REGISTER_CONTAINER, container_id=cid, limit=limit
        )
        elapsed = perf() - began
        shard = reply.get("shard", 0)
        if self.deployment.kind == "sharded" and shard not in (0, 1):
            raise CheckFailed(f"register {cid}: bad shard in {reply}")
        expected = min(limit, TOTAL - self.reserved[shard])
        if (
            reply.get("status") != "ok"
            or reply.get("assigned") != expected
            or reply.get("limit") != limit
        ):
            raise CheckFailed(f"register {cid}: expected {expected}, got {reply}")
        self.reserved[shard] += expected
        self.containers[cid] = Container(limit, shard, expected)
        self.ops.append(("register", shard, cid, limit))
        path = self.paths[cid] = os.path.join(reply["socket_dir"], CONTAINER_SOCKET_NAME)
        return path, elapsed

    def _closed(self, cid: str, reply: dict) -> None:
        record = self.containers.pop(cid)
        del self.paths[cid]
        if reply.get("status") != "ok" or reply.get("reclaimed") != record.assigned:
            raise CheckFailed(f"exit {cid}: expected {record.assigned} back, got {reply}")
        self.reserved[record.shard] -= record.assigned
        self.ops.append(("exit", record.shard, cid))

    def exit(self, cid: str) -> None:
        self._closed(
            cid, self.ctl.call(protocol.MSG_CONTAINER_EXIT, container_id=cid)
        )

    # -- data plane -----------------------------------------------------------

    def _commit(self, client, cid: str, pid: int, address: int, size: int) -> None:
        record = self.containers[cid]
        record.used += size + (OVERHEAD if record.used == 0 else 0)
        client.notify(
            protocol.MSG_ALLOC_COMMIT, container_id=cid, pid=pid,
            address=address, size=size,
        )
        self.ops.append(("commit", record.shard, cid, pid, address, size))

    def _release(self, client, cid: str, pid: int, address: int, size: int) -> None:
        record = self.containers[cid]
        record.used -= size
        client.notify(
            protocol.MSG_ALLOC_RELEASE, container_id=cid, pid=pid, address=address
        )
        self.ops.append(("release", record.shard, cid, pid, address))

    def _request(self, client, cid: str, pid: int, size: int) -> float:
        began = perf()
        reply = client.call(
            protocol.MSG_ALLOC_REQUEST, container_id=cid, pid=pid, size=size,
            api="cudaMalloc",
        )
        elapsed = perf() - began
        if reply.get("status") != "ok" or reply.get("decision") != "grant":
            raise CheckFailed(f"alloc {cid} size {size}: expected grant, got {reply}")
        self.ops.append(("request", self.containers[cid].shard, cid, pid, size, False))
        return elapsed

    def check_free(self, client, cid: str, pid: int) -> None:
        """``mem_get_info`` must show exactly the model's free bytes."""
        record = self.containers[cid]
        free = record.limit - record.used
        reply = client.call(protocol.MSG_MEM_GET_INFO, container_id=cid, pid=pid)
        if reply.get("free") != free or reply.get("total") != record.limit:
            raise CheckFailed(f"mem_get_info {cid}: expected free {free}, got {reply}")

    # -- workloads --------------------------------------------------------------

    def cycles(
        self, client, stream: CycleStream, deadline: float, rtts: list[float]
    ) -> int:
        """Blocking request -> commit -> release cycles until ``deadline``."""
        cid, pid, spans = stream.container_id, stream.pid, self.spans
        done = 0
        while perf() < deadline:
            self.attempted += 1
            size, address = stream.next()
            root = spans.open("cycle")
            span = spans.open("wire.alloc_request", root)
            rtts.append(self._request(client, cid, pid, size))
            spans.close(span)
            span = spans.open("wire.alloc_commit", root)
            self._commit(client, cid, pid, address, size)
            spans.close(span)
            span = spans.open("wire.alloc_release", root)
            self._release(client, cid, pid, address, size)
            spans.close(span)
            spans.close(root)
            done += 1
        return done

    def windows(
        self, client, stream: CycleStream, deadline: float, rtts: list[float]
    ) -> int:
        """Pipelined windows of WINDOW requests, then their commits and releases."""
        cid, pid, spans = stream.container_id, stream.pid, self.spans
        record = self.containers[cid]
        shard = record.shard
        done = 0
        while perf() < deadline:
            self.attempted += WINDOW
            window = [stream.next() for _ in range(WINDOW)]
            root = spans.open("window")
            span = spans.open("wire.alloc_window", root)
            began = perf()
            seqs = client.pipeline_send(
                [
                    (protocol.MSG_ALLOC_REQUEST, {
                        "container_id": cid, "pid": pid, "size": size,
                        "api": "cudaMalloc",
                    })
                    for size, _ in window
                ]
            )
            replies = client.pipeline_collect(seqs)
            rtts.append(perf() - began)
            spans.close(span)
            span = spans.open("wire.commit_release_window", root)
            for (size, _), reply in zip(window, replies):
                if reply.get("status") != "ok" or reply.get("decision") != "grant":
                    raise CheckFailed(f"window alloc {size}: expected grant, got {reply}")
                self.ops.append(("request", shard, cid, pid, size, False))
            record.used = record.used or OVERHEAD  # commits and releases cancel out
            notes = []
            for size, address in window:
                notes.append((protocol.MSG_ALLOC_COMMIT, {
                    "container_id": cid, "pid": pid, "address": address, "size": size,
                }))
                self.ops.append(("commit", shard, cid, pid, address, size))
            for size, address in window:
                notes.append((protocol.MSG_ALLOC_RELEASE, {
                    "container_id": cid, "pid": pid, "address": address,
                }))
                self.ops.append(("release", shard, cid, pid, address))
            client.pipeline_send(notes)
            spans.close(span)
            spans.close(root)
            done += WINDOW
        return done

    def seat_holders(self, lifecycles: Lifecycles, shards: int) -> dict[int, str]:
        """Register one holder per shard: the first container each newcomer displaces."""
        holders: dict[int, str] = {}
        while len(holders) < shards:
            life = lifecycles.next()
            self.register(life.container_id, life.limit)
            shard = self.containers[life.container_id].shard
            if shard in holders:
                self.exit(life.container_id)
            else:
                holders[shard] = life.container_id
        return holders

    def lifecycle(self, life: Lifecycle, holders: dict[int, str], stats: "ChurnStats") -> None:
        """Register, allocate until paused, exit the holder, finish, free, exit the pid."""
        spans = self.spans
        self.attempted += 1
        root = spans.open("lifecycle")
        cid, pid = life.container_id, life.pid
        span = spans.open("control.register", root)
        path, elapsed = self.register(cid, life.limit)
        stats.register_s.append(elapsed)
        record = self.containers[cid]
        shard = record.shard
        spans.close(span)
        span = spans.open("wire.connect", root)
        client = self.connect(path)
        spans.close(span)
        try:
            resumed = False
            for index, size in enumerate(life.sizes):
                effective = size + (OVERHEAD if index == 0 else 0)
                if not resumed and record.used + effective > record.assigned:
                    span = spans.open("wire.pause_resume", root)
                    self._pause_then_resume(client, life, size, holders[shard], stats)
                    resumed = True
                else:
                    span = spans.open("wire.alloc_request", root)
                    stats.rtts.append(self._request(client, cid, pid, size))
                spans.close(span)
                self._commit(client, cid, pid, life.address(index), size)
                stats.cycles += 1
            if not resumed:
                raise CheckFailed(f"{cid}: stream never paused (generator bug)")
            span = spans.open("wire.release_all", root)
            for index, size in enumerate(life.sizes):
                self._release(client, cid, pid, life.address(index), size)
            client.notify(protocol.MSG_PROCESS_EXIT, container_id=cid, pid=pid)
            record.used = 0
            self.ops.append(("process_exit", shard, cid, pid))
            self.check_free(client, cid, pid)
            spans.close(span)
        finally:
            client.close()
        holders[shard] = cid
        stats.lifecycles += 1
        spans.close(root)

    def _pause_then_resume(
        self, client, life: Lifecycle, size: int, holder: str, stats: "ChurnStats"
    ) -> None:
        cid, pid = life.container_id, life.pid
        record = self.containers[cid]
        seqs = client.pipeline_send([
            (protocol.MSG_ALLOC_REQUEST, {
                "container_id": cid, "pid": pid, "size": size, "api": "cudaMalloc",
            }),
            (protocol.MSG_MEM_GET_INFO, {"container_id": cid, "pid": pid}),
        ])
        # The mem_get_info reply arriving first proves the request is withheld.
        try:
            info = client.pipeline_collect(seqs[1:])[0]
        except TransportError as exc:
            raise CheckFailed(f"{cid}: request of {size} answered, expected a pause ({exc})")
        if info.get("free") != record.limit - record.used:
            raise CheckFailed(f"{cid}: paused mem_get_info {info}, model {record}")
        self.ops.append(("request", record.shard, cid, pid, size, True))
        began = perf()
        exit_seqs = self.ctl.pipeline_send(
            [(protocol.MSG_CONTAINER_EXIT, {"container_id": holder})]
        )
        grant = client.pipeline_collect(seqs[:1])[0]
        resumed = perf()
        exit_reply = self.ctl.pipeline_collect(exit_seqs)[0]
        stats.exit_s.append(perf() - began)
        stats.resume_s.append(resumed - began)
        if grant.get("status") != "ok" or grant.get("decision") != "grant":
            raise CheckFailed(f"{cid}: expected the resumed grant, got {grant}")
        self._closed(holder, exit_reply)
        # Redistribution hands the paused container what it lacks.
        grown = min(record.limit - record.assigned, TOTAL - self.reserved[record.shard])
        record.assigned += grown
        self.reserved[record.shard] += grown


class ChurnStats:
    """What the lifecycles measured, one list entry per event."""

    def __init__(self) -> None:
        self.lifecycles = 0
        self.cycles = 0
        self.rtts: list[float] = []
        self.resume_s: list[float] = []
        self.register_s: list[float] = []
        self.exit_s: list[float] = []
