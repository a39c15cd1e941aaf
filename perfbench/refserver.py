"""The reference server: one fixed unit of daemon-like work per round trip.

Usage: ``python3 perfbench/refserver.py <read-fd> <write-fd>`` (spawned by
``meter.Meter`` with both pipe ends passed down).  Writes ``ready`` once
its table is built, then answers each request frame until the read end
closes.  Each answer decodes a JSON frame, fills a small dict, looks up
entries of a 100k-entry table, and encodes a JSON reply: interpreter,
allocator, cache and pipe work of the kind the daemon does per frame,
with nothing of the program under test in it.  Standard library only.
"""

import json
import os
import sys

TABLE = 100_000


def main() -> None:
    inbox, outbox = int(sys.argv[1]), int(sys.argv[2])
    table = {f"c{i:07d}": [i, str(i)] for i in range(TABLE)}
    keys = list(table)
    os.write(outbox, b"ready")
    while True:
        frame = os.read(inbox, 4096)
        if not frame:
            return
        message = json.loads(frame)
        state = {f"c{i}": message["size"] + i for i in range(20)}
        total = sum(state.values())
        for i in range(30):
            total += table[keys[(message["seq"] * 7919 + i * 104729) % TABLE]][0]
        message["total"] = total
        os.write(outbox, json.dumps(message).encode())


if __name__ == "__main__":
    main()
