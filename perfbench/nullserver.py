"""The transport floor: a UnixSocketServer on an IoLoop that grants at once.

Usage: ``python3 perfbench/nullserver.py <socket-path>`` (``src`` on
``PYTHONPATH``).  Prints ``ready`` once listening and serves until stdin
closes.  The handler does no scheduling, so a round trip through it costs
only framing, codec, the loop's hand-offs and the socket itself.
"""

import sys

from repro.ipc import protocol
from repro.ipc.loop import DEFAULT_IO_WORKERS, IoLoop
from repro.ipc.unix_socket import UnixSocketServer


def _grant(message, reply_handle):
    return protocol.make_reply(message, decision="grant")


def main() -> None:
    loop = IoLoop(workers=DEFAULT_IO_WORKERS).start()
    server = UnixSocketServer(sys.argv[1], _grant, loop=loop).start()
    print("ready", flush=True)
    sys.stdin.read()
    server.stop()
    loop.stop()


if __name__ == "__main__":
    main()
