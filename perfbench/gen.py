"""Seeded generation of every input the benchmark sends.

The same ``--seed`` gives the same container ids, limits, pids, sizes and
addresses.  The daemon receives only frames built from these values.

Sizes are chosen so that no operation fails on a correct server:

- a cycle container's one outstanding window always fits its limit;
- every churn container's limit exceeds what is unreserved while the
  previous holder lives (so it is under-assigned and pauses), yet fits
  the pool once the holder exits (so it always resumes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MiB = 1 << 20
#: The ``repro daemon`` default ``--total-memory`` (per shard when sharded).
TOTAL = 4096 * MiB
#: The scheduler's first-allocation charge per pid (CONTEXT_OVERHEAD_CHARGE).
OVERHEAD = 66 * MiB
#: Limit of the long-lived container a cycle workload drives.  It leaves
#: 3 GiB of the pool for the churn lifecycles run alongside it.
MAIN_LIMIT = 1024 * MiB
#: Pipelined window: requests in flight on one connection.
WINDOW = 32
#: Churn limits: any two sum above TOTAL (so a newcomer is under-assigned
#: while a holder lives) and each fits TOTAL - MAIN_LIMIT.
CHURN_LIMIT_MIB = (2112, 3072)
CHURN_SIZE = (16 * MiB, 384 * MiB)
_ADDRESS_BASE = 0x7F00_0000_0000


def _container_id(rng: random.Random, taken: set[str]) -> str:
    # The daemon names a container's directory after its first 12 chars.
    while True:
        cid = f"{rng.getrandbits(64):016x}"
        if cid[:12] not in taken:
            taken.add(cid[:12])
            return cid


class CycleStream:
    """One container's endless request -> commit -> release cycles."""

    def __init__(self, seed: int, tag: str, max_size: int) -> None:
        self._rng = random.Random(f"{seed}:{tag}")
        self.container_id = _container_id(self._rng, set())
        self.pid = self._rng.randint(100, 1 << 22)
        self._max_size = max_size
        self._count = 0

    def next(self) -> tuple[int, int]:
        """The next cycle's (size, address)."""
        self._count += 1
        size = self._rng.randint(4096, self._max_size)
        return size, _ADDRESS_BASE + self._count * 4096


@dataclass
class Lifecycle:
    container_id: str
    limit: int
    pid: int
    sizes: list[int]

    def address(self, index: int) -> int:
        return _ADDRESS_BASE + index * 4096


class Lifecycles:
    """Endless churn containers; each fills its limit exactly."""

    def __init__(self, seed: int, tag: str) -> None:
        self._rng = random.Random(f"{seed}:{tag}")
        self._taken: set[str] = set()

    def next(self) -> Lifecycle:
        rng = self._rng
        cid = _container_id(rng, self._taken)
        limit = rng.randint(*CHURN_LIMIT_MIB) * MiB
        pid = rng.randint(100, 1 << 22)
        sizes: list[int] = []
        used = OVERHEAD
        while True:
            size = rng.randint(*CHURN_SIZE)
            if used + size >= limit - CHURN_SIZE[0]:
                sizes.append(limit - used)
                return Lifecycle(cid, limit, pid, sizes)
            sizes.append(size)
            used += size
