"""Newline-delimited JSON oracle server.

Each connection gets its own oracle instance from the factory; connections
never share cache state. Requests are handled strictly in order, one reply
line per request line, each written with one `sendall`; a successful
`extend` reply is formatted without `json.dumps`, byte-identical to it.
Malformed requests get an error reply and the connection stays open; a
request line longer than MAX_LINE_BYTES gets an error reply and the
connection is closed. At most MAX_CONNECTIONS
connections are served at once; one over the cap gets an error line and is
closed without a thread being started for it.

An `extend` may carry `"at": L`: the oracle is truncated to L consumed
tokens and then extended, so a client rolls back a rejected draft in the
same round trip that verifies the next one. `info` says `"at": true`;
clients refuse a server that does not. The served oracle must have
`truncate_cache`, as the oracle contract requires.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading
from typing import Callable

log = logging.getLogger("specdec.server")

__all__ = ["OracleServer", "MAX_LINE_BYTES", "MAX_CONNECTIONS"]


# Bounds a line in both directions: the server refuses a longer request and
# `ExternalOracle` a longer reply, so neither peer's memory grows without
# limit. The largest line an in-repo peer sends is the prompt prefill, one
# `extend` of the whole prompt, and its reply; every later one is a verify
# batch of at most k_draft + 1 ids. The benchmark's TCP decode and the
# bundled demo config both prefill 600 ids. An id of up to 7 digits plus its
# ", " separator takes at most 9 bytes, so 1 MiB holds over 116,000 ids,
# some 190 times that.
MAX_LINE_BYTES = 1 << 20

# Each served connection holds a thread and an oracle instance; the cap
# bounds both. Read when a server is built.
MAX_CONNECTIONS = 64


def _line(reply: dict) -> bytes:
    return json.dumps(reply).encode("utf-8") + b"\n"


def _handle_request(oracle, payload: bytes, vocab_size: int, truncate) -> bytes:
    """The reply line to one request line; `vocab_size` and `truncate` (the
    oracle's `truncate_cache`) are read from the oracle once per
    connection, as a wrapped oracle forwards each lookup at some cost."""
    try:
        req = json.loads(payload)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError on non-UTF-8
        return _line({"ok": False, "error": f"malformed json: {exc}"})
    if not isinstance(req, dict) or "op" not in req:
        return _line({"ok": False, "error": "request must be an object with an 'op' field"})
    op = req["op"]
    try:
        if op == "extend":
            tokens = req.get("tokens")
            # type(), not isinstance(): JSON true and false load as bools, which are ints
            if (
                not isinstance(tokens, list)
                or not tokens
                or not all(type(t) is int and 0 <= t < vocab_size for t in tokens)
            ):
                return _line({
                    "ok": False,
                    "error": f"extend needs a non-empty list of token ids in [0, {vocab_size})",
                })
            at = req.get("at")
            if at is not None:
                consumed = oracle.consumed_len
                if type(at) is not int or not 0 <= at <= consumed:
                    return _line({
                        "ok": False,
                        "error": f"'at' must be an int in [0, {consumed}], got {at!r}",
                    })
                truncate(at)
            ids = ", ".join(map(repr, oracle.extend(tokens)))
            # byte-identical to _line({"ok": True, "predictions": ...}) for int predictions
            return ('{"ok": true, "predictions": [%s]}\n' % ids).encode()
        if op == "reset":
            oracle.reset()
            return _line({"ok": True})
        if op == "info":
            eos = oracle.eos if oracle.eos is not None else -1
            return _line({"ok": True, "vocab_size": vocab_size, "eos": eos, "at": True})
        return _line({"ok": False, "error": f"unknown op {op!r}"})
    except Exception as exc:  # noqa: BLE001 - report, keep the connection alive
        return _line({"ok": False, "error": f"{type(exc).__name__}: {exc}"})


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        oracle = self.server.oracle_factory()  # type: ignore[attr-defined]
        log.info("connection from %s:%s", *self.client_address)
        vocab_size, truncate = oracle.vocab_size, oracle.truncate_cache
        send = self.connection.sendall
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not line:
                break
            if len(line) > MAX_LINE_BYTES:
                send(_line({"ok": False, "error": f"request line over {MAX_LINE_BYTES} bytes"}))
                break
            send(_handle_request(oracle, line, vocab_size, truncate))


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler) -> None:
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            log.warning("refused %s:%s: %d connections open", *client_address[:2], MAX_CONNECTIONS)
            error = {"ok": False, "error": f"server busy: {MAX_CONNECTIONS} connections open"}
            try:
                request.sendall(_line(error))
            except OSError:
                pass  # the client is gone; nothing to tell it
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


class OracleServer:
    """Threaded TCP server speaking the oracle wire protocol."""

    def __init__(self, oracle_factory: Callable[[], object], host: str = "127.0.0.1", port: int = 0):
        self._server = _TCPServer((host, port), _Handler)
        self._server.oracle_factory = oracle_factory  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        log.info("listening on %s", self.address)
        self._server.serve_forever()

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
