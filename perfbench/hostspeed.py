"""Host-speed reference for the end-to-end timings.

Shared hosts run the same Python code at speeds that drift by up to 2x
over seconds to minutes: a CPU second buys less work while other tenants
load the same cores and caches. The benchmark therefore times, in CPU
seconds, a fixed reference that touches no specdec code between its
iterations and set-ups, and reports end-to-end timings in reference
seconds: measured CPU seconds x reference time / (median reference time
nearby). A host twice as slow doubles both, so the ratio cancels the
drift, while a change to specdec moves only the measured seconds. The raw
timings and the factor are kept in the full result file.

There are two references, each like the work it scales: a dict loop
(`sample`) for the in-process decodes, and JSON round trips over a socket
to the oracle server's process (`EchoClient.sample`) for the decodes that
talk to it.
"""

from __future__ import annotations

import gc
import json
import random
import socket
import socketserver
import threading
from time import process_time, process_time_ns
from typing import Callable

# About the time of one sample on the 2-vCPU Xeon host the benchmark was
# defined on, when it ran fastest; it only sets the scale of the reported
# numbers.
REFERENCE_S = 0.055

# The loop counts 4-gram continuations in a dict of dicts keyed by tuples:
# the same kind of work as the n-gram store, without calling specdec. Over
# 64 symbols nearly every context is new, so the table grows to some
# 120,000 rows and about 30 MB, near a decode-mixed decode's heap. Smaller
# tables tracked the decodes' slowdowns worse: over the same eight 50-s
# decode-mixed runs, scaling by a 10-MB table left `tokens_per_s` a spread
# of 0.06 and the step gaps 0.07, by this one 0.04 and 0.02.
_RNG = random.Random(0)
_SEQ = [_RNG.randrange(64) for _ in range(120_000)]


def sample() -> float:
    """CPU seconds one pass of the reference loop takes now."""
    seq = _SEQ
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = process_time()
        table: dict[tuple[int, int, int, int], dict[int, int]] = {}
        for i in range(4, len(seq)):
            ctx = (seq[i - 4], seq[i - 3], seq[i - 2], seq[i - 1])
            row = table.get(ctx)
            if row is None:
                table[ctx] = row = {}
            row[seq[i]] = row.get(seq[i], 0) + 1
        return process_time() - t0
    finally:
        if enabled:
            gc.enable()


# The socket reference, for the decodes that talk to an oracle server: the
# client sends newline-delimited JSON requests over a TCP connection to a
# handler in the server process that parses each one and replies with a
# list as long as the request's, as the oracle protocol does. ECHO_SMALL
# one-token round trips weigh like a baseline decode's verify calls and
# ECHO_BULK round trips of a BULK-token list like a rollback's replay.
# Its CPU time, client and server together, tracked the TCP decodes' CPU
# time where the dict loop above did not (see README.md). The times below
# set the scale only: about the fastest the dict loop's host speed implies.
ECHO_REFERENCE = {"small_cpu": 0.010, "cpu": 0.020}
ECHO_SMALL, ECHO_BULK = 200, 20
_BULK = [_RNG.randrange(256) for _ in range(1_500)]


class _EchoHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for line in self.rfile:
            req = json.loads(line)
            if req == "cpu":
                reply = process_time_ns()
            else:
                tokens = req["tokens"]
                reply = {"ok": True, "predictions": [t ^ 1 for t in tokens]}
            self.wfile.write(json.dumps(reply).encode() + b"\n")
            self.wfile.flush()


class _EchoServer(socketserver.ThreadingTCPServer):
    daemon_threads = True


def serve_echo() -> tuple[str, Callable[[], None]]:
    """Start the socket reference's server in a thread of this process on
    an ephemeral port of 127.0.0.1; its "HOST:PORT" and a function that
    shuts it down."""
    server = _EchoServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def shutdown() -> None:
        server.shutdown()
        server.server_close()
        thread.join()

    return f"{host}:{port}", shutdown


class EchoClient:
    """One connection to a `serve_echo` server."""

    def __init__(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        self._sock = socket.create_connection((host, int(port)), timeout=30)
        self._file = self._sock.makefile("rwb")

    def _request(self, payload):
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()
        return json.loads(self._file.readline())

    def sample(self) -> dict[str, float]:
        """CPU seconds, this process's and the server process's together,
        that one pass of the socket reference takes now: of its one-token
        round trips alone (`small_cpu`) and of the whole pass (`cpu`)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = process_time()
            s0 = self._request("cpu")
            for i in range(ECHO_SMALL):
                self._request({"op": "extend", "tokens": [i & 255]})
            s1 = self._request("cpu")
            c1 = process_time()
            for _ in range(ECHO_BULK):
                self._request({"op": "extend", "tokens": _BULK})
            s2 = self._request("cpu")
            c2 = process_time()
            return {"small_cpu": c1 - c0 + (s1 - s0) / 1e9, "cpu": c2 - c0 + (s2 - s0) / 1e9}
        finally:
            if enabled:
                gc.enable()

    def close(self) -> None:
        self._file.close()
        self._sock.close()
