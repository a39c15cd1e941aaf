"""Timed samples, each also read in units of a reference round trip.

The CPU this benchmark runs on is a share of a busy host, and how fast
it runs swings with the neighbours' load: on a 2-vCPU VM a fixed
pure-Python loop took 22 to 70 ms from one quarter second to the next,
and one run of ``wrapper_cycle`` moved between two levels of p50 round
trip, about 240 and 450 us, every few seconds.  A run of ten seconds
catches an arbitrary mix of those levels, so wall and CPU times of whole
runs spread by 20-35% between runs of the same code.

So the timed phase is cut into slices of :data:`SLICE_S`.  Before the
first slice and after each one, the generator makes
:data:`REF_ROUND_TRIPS` round trips to ``refserver.py`` (the benchmark's
own process on the same CPU, over a pipe, doing a fixed unit of
interpreter, dict and codec work) and keeps their median.  A slice's
``ref`` is the mean of the readings on either side of it, and every time
measured in the slice is also divided by it: the result is in
``ref_rtt``, multiples of the reference round trip on the same CPU at
the same moment, and it stays put while the host's speed moves.
Smoothing readings over more slices made runs spread more, not less:
the host's speed changes faster than that.  In ten runs of 20 s per
workload on that VM, the quartile spread of each time, as a share of
its median, was 0.11-0.28 raw and 0.03-0.11 in ``ref_rtt`` for the main
phase; the churn probe of the cycle workloads spread up to 0.20.  Raw
values are printed beside them.

A change to the program moves the numerator only: the reference server
imports nothing from it.  It shares the CPU and its caches with the
server, though, so a server that evicts more of them also slows the
next reading a little.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from collections import defaultdict

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
#: Length of one slice of load between two reference readings.
SLICE_S = 0.02
#: Reference round trips per reading; the reading is their median.
REF_ROUND_TRIPS = 9
_REQUEST = json.dumps({
    "type": "alloc_request", "seq": 1, "size": 123456,
    "container_id": "0123456789abcdef",
}).encode()


class Meter:
    """The reference server and its pipes; :meth:`read` is one reading."""

    def __init__(self) -> None:
        inbox, self._to_ref = os.pipe()
        self._from_ref, outbox = os.pipe()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "refserver.py"), str(inbox), str(outbox)],
            pass_fds=(inbox, outbox),
        )
        os.close(inbox)
        os.close(outbox)
        if os.read(self._from_ref, 64) != b"ready":
            self.close()
            raise RuntimeError("reference server did not start")
        os.write(self._to_ref, _REQUEST)
        self._reply = os.read(self._from_ref, 4096)

    def read(self) -> float:
        """Median seconds of :data:`REF_ROUND_TRIPS` reference round trips."""
        times = []
        for _ in range(REF_ROUND_TRIPS):
            began = perf()
            os.write(self._to_ref, _REQUEST)
            reply = os.read(self._from_ref, 4096)
            times.append(perf() - began)
            if reply != self._reply:
                raise RuntimeError(f"reference server answered {reply!r}")
        times.sort()
        return times[len(times) // 2]

    def close(self) -> None:
        if self._to_ref >= 0:
            os.close(self._to_ref)
            self._to_ref = -1
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        if self._from_ref >= 0:
            os.close(self._from_ref)
            self._from_ref = -1


class Tally:
    """Slices of one timed phase: counts, times and samples with their ``ref``."""

    def __init__(self) -> None:
        #: phase -> [(wall s, server cpu s, ref s, counts, samples)]
        self.slices: dict[str, list[tuple]] = defaultdict(list)

    def add(
        self, phase: str, wall: float, cpu: float, ref: float,
        counts: dict[str, int], samples: dict[str, list[float]],
    ) -> None:
        self.slices[phase].append((wall, cpu, ref, counts, samples))

    def count(self, phase: str, name: str) -> int:
        return sum(counts.get(name, 0) for _, _, _, counts, _ in self.slices[phase])

    def per(self, phase: str, what: str, name: str, scaled: bool) -> float:
        """Wall (``what='wall'``) or server CPU time of ``phase`` per ``name`` counted."""
        index = 0 if what == "wall" else 1
        total = sum(
            row[index] / (row[2] if scaled else 1.0) for row in self.slices[phase]
        )
        return total / max(self.count(phase, name), 1)

    def percentile(self, phase: str, name: str, q: float, scaled: bool) -> float:
        """Nearest-rank percentile of the ``name`` samples of ``phase``."""
        values = sorted(
            value / (ref if scaled else 1.0)
            for _, _, ref, _, samples in self.slices[phase]
            for value in samples.get(name, ())
        )
        if not values:
            raise ValueError(f"no {name} samples in {phase}")
        return values[max(0, math.ceil(q * len(values)) - 1)]

    def samples(self, phase: str, name: str) -> int:
        return sum(len(s.get(name, ())) for _, _, _, _, s in self.slices[phase])

    def ref_us(self) -> float:
        """Median reference round trip over every slice, in us."""
        refs = sorted(row[2] for rows in self.slices.values() for row in rows)
        return refs[len(refs) // 2] * 1e6
