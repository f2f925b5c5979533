"""Oracle server process for the tcp-shuffled workload.

Reads one JSON line on stdin, {"prompt": [...], "target": [...], "eos": N},
serves a fresh ReplayOracle of that script per connection on an ephemeral
port of 127.0.0.1, and the socket reference of hostspeed.py on another, and
prints {"address": "HOST:PORT", "echo_address": "HOST:PORT", "cpu_ns": N},
N being the CPU time the process has used to get ready. Each later stdin
line "stats" is answered with the requests served so far, the time the
oracles spent in them and the CPU time of the whole server process; end of
stdin shuts the server down.

Usage: python3 perfbench/oracle_server.py < script.json
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from time import perf_counter_ns, process_time_ns

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specdec.oracle import ReplayOracle  # noqa: E402
from specdec.server import OracleServer  # noqa: E402

import hostspeed  # noqa: E402


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.handle_ns = 0

    def add(self, ns: int) -> None:
        with self.lock:
            self.requests += 1
            self.handle_ns += ns

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "handle_ns": self.handle_ns,
                    "cpu_ns": process_time_ns()}


class TimedOracle:
    """Times the extend and reset requests the server hands its oracle."""

    def __init__(self, inner, stats: Stats) -> None:
        self._inner = inner
        self._stats = stats

    def extend(self, tokens):
        t0 = perf_counter_ns()
        try:
            return self._inner.extend(tokens)
        finally:
            self._stats.add(perf_counter_ns() - t0)

    def reset(self):
        t0 = perf_counter_ns()
        try:
            self._inner.reset()
        finally:
            self._stats.add(perf_counter_ns() - t0)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def main() -> int:
    script = json.loads(sys.stdin.readline())
    prompt, target, eos = script["prompt"], script["target"], script["eos"]
    stats = Stats()
    server = OracleServer(lambda: TimedOracle(ReplayOracle(prompt, target, eos), stats))
    server.start_background()
    echo_address, stop_echo = hostspeed.serve_echo()
    try:
        print(json.dumps({"address": server.address, "echo_address": echo_address,
                          "cpu_ns": process_time_ns()}), flush=True)
        for line in sys.stdin:
            if line.strip() == '"stats"':
                print(json.dumps(stats.snapshot()), flush=True)
    finally:
        stop_echo()
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
