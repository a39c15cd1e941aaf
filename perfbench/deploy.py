"""Spawn the server exactly as an operator would, and sample its resources.

Two deployments, both with the ``repro daemon`` CLI's defaults (group
commit without fsync, ``--codec auto``, ``--io loop``, the metrics
endpoint on an ephemeral port):

- ``direct``: ``python -m repro daemon --journal-path <dir>/daemon.journal``;
- ``sharded``: ``python -m repro daemon --shards 2`` (router + supervisor
  in one process, one child process per shard, one journal per shard).

Paths handed to the server are relative to the working directory, so
every socket path stays under the AF_UNIX length limit however deep the
checkout is.

The caller pins itself to one CPU first (``run.py`` does), and every
server process inherits that pin: each hand-off between generator and
server threads is then a switch on one CPU rather than a cross-CPU
wake-up, whose latency on a small shared virtual machine swings with the
host's load.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from repro.core.scheduler.journal import restore


def spawn(argv: list[str], src_dir: str, **kwargs) -> subprocess.Popen:
    """Start a server process that imports ``src_dir``."""
    return subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": src_dir}, **kwargs)


class Deployment:
    """One running server: its processes, control socket and journals."""

    def __init__(self, kind: str, run_dir: str, src_dir: str) -> None:
        if kind not in ("direct", "sharded"):
            raise ValueError(f"unknown deployment {kind!r}")
        self.kind = kind
        self.base_dir = run_dir
        os.makedirs(run_dir)
        argv = [sys.executable, "-m", "repro", "daemon", "--base-dir", run_dir]
        if kind == "direct":
            self.journals = [os.path.join(run_dir, "daemon.journal")]
            argv += ["--journal-path", self.journals[0]]
        else:
            self.journals = [
                os.path.join(run_dir, "shards", f"shard-{i}.journal")
                for i in range(2)
            ]
            argv += ["--shards", "2"]
        self._log = open(os.path.join(run_dir, "server.log"), "wb")
        self.process = spawn(argv, src_dir, stdout=subprocess.PIPE, stderr=self._log)
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if ": " not in line:
            self.stop()
            raise RuntimeError(f"{kind} server did not start: {self.log_tail()}")
        endpoints = json.loads(line.split(": ", 1)[1])
        self.control = endpoints["control"]
        self.pids = [self.process.pid] + [
            shard["pid"] for shard in endpoints.get("shard_endpoints", {}).values()
        ]
        # The kernel's CPUCLOCK_SCHED clock of another process: ((~pid) << 3) | 2.
        self._cpu_clocks = [((~pid) << 3) | 2 for pid in self.pids]

    def log_tail(self, limit: int = 2000) -> str:
        self._log.flush()
        with open(self._log.name, "rb") as fh:
            return fh.read()[-limit:].decode("utf-8", "replace")

    # -- resource sampling --------------------------------------------------

    def cpu_seconds(self) -> float:
        """User + system CPU of every server process so far, to the nanosecond.

        Read from each process's CPU-time clock (``clock_getcpuclockid``),
        which is exact where ``/proc/<pid>/stat`` counts whole ticks.
        """
        return sum(time.clock_gettime(clock) for clock in self._cpu_clocks)

    def resources(self) -> dict[str, float]:
        """RSS (kB), threads and open fds summed over the server processes."""
        rss_kb = threads = fds = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        rss_kb += int(line.split()[1])
                    elif line.startswith("Threads:"):
                        threads += int(line.split()[1])
            fds += len(os.listdir(f"/proc/{pid}/fd"))
        return {"rss_kb": rss_kb, "threads": threads, "fds": fds}

    def journal_bytes(self) -> int:
        return sum(os.path.getsize(path) for path in self.journals if os.path.exists(path))

    # -- teardown -----------------------------------------------------------

    def stop(self) -> int:
        """SIGTERM the server and wait for every process to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()
        # Shards are the router's children; wait until they are gone too.
        deadline = time.monotonic() + 30
        for pid in self.pids[1:]:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                os.kill(pid, signal.SIGKILL)
        return self.process.returncode

    def restored_open_containers(self) -> dict[str, tuple[int, int]]:
        """Offline ``restore()`` of every journal: open container -> (limit, used)."""
        found: dict[str, tuple[int, int]] = {}
        for path in self.journals:
            for record in restore(path).containers():
                found[record.container_id] = (record.limit, record.used)
        return found
