"""Newline-delimited JSON oracle server.

Each connection gets its own oracle instance from the factory; connections
never share cache state. A connection whose oracle the factory fails to
build gets one error line naming the failure and is closed. Requests are
handled strictly in order, one reply line per request line, each written
with one `sendall`. An `extend` request as `ExternalOracle` spells it is
read without json, and the reply to it written and read without json (see
`_EXTEND_REQUEST`); every other spelling takes the json path. Malformed
requests get an error reply and the connection stays open; a request line
longer than MAX_LINE_BYTES gets an error reply and the connection is
closed. At most MAX_CONNECTIONS connections are served at once; one over
the cap gets an error line and is closed without a thread being started
for it. A connection holds at most MAX_CONSUMED_TOKENS tokens: an `extend`
that would take it past them gets an error reply and changes nothing. A
reply that cannot be sent within SEND_TIMEOUT_S, because the client reads
none, drops the connection, and so does a client that sends nothing for
IDLE_TIMEOUT_S.

A server answers two ops, `extend` and `info`. An `extend` may carry
`"at": L`: the oracle is truncated to L consumed tokens and then extended,
so a client rolls back a rejected draft in the same round trip that
verifies the next one, and restarts a decode with `"at": 0` on its prefill.
An `at` that is not an int, or that `truncate_cache` refuses, gets an error
reply and changes nothing.
`info` says `"at": true`; clients refuse a server that does not. The served
oracle must have `truncate_cache`, as the oracle contract requires.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import socketserver
import struct
import threading
from typing import Callable

log = logging.getLogger("specdec.server")

__all__ = ["OracleServer", "MAX_LINE_BYTES", "MAX_CONNECTIONS", "MAX_CONSUMED_TOKENS",
           "SEND_TIMEOUT_S", "IDLE_TIMEOUT_S"]


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

# Bounds the tokens one connection's oracle holds, so that a client cannot
# grow its memory one line at a time, and with MAX_CONNECTIONS the server's:
# a MarkovOracle holding 64 Ki ids fresh from the wire traces 2.3 MiB, so 64
# full connections hold some 150 MiB. 64 Ki is some 40 times the most a
# 600-token prompt with 1,000 new tokens at k_draft 7 holds. Read when a
# connection opens.
MAX_CONSUMED_TOKENS = 1 << 16

# Bounds one blocked send, so a client that never reads its replies cannot
# hold a thread and a slot: SO_SNDTIMEO, as a Python timeout costs a poll per
# call. `sendall` then raises BlockingIOError. Read when a connection opens.
SEND_TIMEOUT_S = 10.0

# Bounds one wait for a request, so clients that connect and send nothing
# cannot hold every slot: SO_RCVTIMEO, for the same reason. `recv` then
# raises BlockingIOError. Read when a connection opens.
IDLE_TIMEOUT_S = 60.0

# Seconds between the accept loop's checks for a shutdown request, and so
# the most `OracleServer.shutdown` waits for the loop to end; socketserver's
# default of 0.5 s made every shutdown take half a second. The loop costs
# one wakeup per check.
_POLL_S = 0.05

# Bytes asked of one recv. A verify line is some 60 bytes and a 600-token
# prefill's about 3 KB, so one recv almost always holds a whole line.
_RECV_BYTES = 1 << 16


def _timeval(seconds: float) -> bytes:
    """`seconds` as the struct timeval that SO_RCVTIMEO and SO_SNDTIMEO take."""
    return struct.pack("ll", int(seconds), int(seconds % 1 * 1e6))


# The two hot lines, each written by one peer and read by the other without
# json: an `extend` request exactly as `ExternalOracle` writes it, and a
# prediction reply exactly as `_handle_request` writes it. Both spellings are
# json.dumps's for int ids, and each pattern admits only that spelling of
# non-negative ints of at most 18 digits, so int() is cheap and never
# refuses. Any other line, and any id or position the pattern does not
# admit, is read by json.loads and checked in full.
_EXTEND_REQUEST = '{"op": "extend", "tokens": [%s]}\n'
_EXTEND_AT_REQUEST = '{"op": "extend", "tokens": [%s], "at": %d}\n'
_EXTEND_REPLY = '{"ok": true, "predictions": [%s]}\n'
_INT = rb"(?:0|[1-9][0-9]{0,17})"
_EXTEND_REQUEST_RE = re.compile(
    rb'\{"op": "extend", "tokens": \[(%s(?:, %s)*)\](?:, "at": (%s))?\}\n?' % (_INT, _INT, _INT)
)
_EXTEND_REPLY_RE = re.compile(rb'\{"ok": true, "predictions": \[(%s(?:, %s)*)\]\}\n' % (_INT, _INT))


def _line(reply: dict) -> bytes:
    return json.dumps(reply).encode("utf-8") + b"\n"


class _Connection:
    """One connection's oracle, with its `vocab_size` and `truncate_cache`
    read once, as a wrapped oracle forwards each lookup at some cost, and
    the count of tokens it holds."""

    __slots__ = ("oracle", "vocab_size", "truncate", "held", "cap")

    def __init__(self, oracle) -> None:
        self.oracle, self.vocab_size, self.truncate = oracle, oracle.vocab_size, oracle.truncate_cache
        self.held, self.cap = 0, MAX_CONSUMED_TOKENS


def _handle_request(conn: _Connection, payload: bytes) -> bytes:
    """The reply line to one request line."""
    try:
        fast = _EXTEND_REQUEST_RE.fullmatch(payload)
        if fast is not None:
            tokens = list(map(int, fast[1].split(b", ")))
            if max(tokens) < conn.vocab_size:  # else the json path words the refusal
                at = fast[2]
                return _extend(conn, tokens, None if at is None else int(at))
        return _handle_json(conn, payload)
    except Exception as exc:  # noqa: BLE001 - report, keep the connection alive
        return _line({"ok": False, "error": f"{type(exc).__name__}: {exc}"})


def _handle_json(conn: _Connection, payload: bytes) -> bytes:
    """The reply line to a request line that the fast pattern does not admit."""
    vocab_size = conn.vocab_size
    try:
        req = json.loads(payload)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError on non-UTF-8
        return _line({"ok": False, "error": f"malformed json: {exc}"})
    if not isinstance(req, dict) or "op" not in req:
        return _line({"ok": False, "error": "request must be an object with an 'op' field"})
    op = req["op"]
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
        if at is not None and type(at) is not int:
            return _line({"ok": False, "error": f"'at' must be an int, got {at!r}"})
        return _extend(conn, tokens, at)
    if op == "info":
        eos = conn.oracle.eos if conn.oracle.eos is not None else -1
        return _line({"ok": True, "vocab_size": vocab_size, "eos": eos, "at": True})
    return _line({"ok": False, "error": f"unknown op {op!r}"})


def _extend(conn: _Connection, tokens: list[int], at: int | None) -> bytes:
    """The reply to an `extend` of checked `tokens`, after truncating to
    `at` unless it is None. One that would hold more than the connection's
    cap is refused first. The oracle contract has `truncate` refuse a
    position out of range with ValueError before any change, which
    `_handle_request` words as the error reply. The count is set before
    the oracle extends, so one that fails counts high, never low."""
    held = (conn.held if at is None else at) + len(tokens)
    if held > conn.cap:
        error = f"extend would hold {held} tokens, over the cap of {conn.cap}"
        return _line({"ok": False, "error": error})
    if at is not None:
        conn.truncate(at)
    conn.held = held
    return (_EXTEND_REPLY % ", ".join(map(repr, conn.oracle.extend(tokens)))).encode()


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        """Serve one connection. A client that resets it, goes away
        mid-reply, reads no reply for SEND_TIMEOUT_S or sends nothing for
        IDLE_TIMEOUT_S ends it with one log line, not a traceback."""
        peer = "%s:%s" % self.client_address[:2]
        sock = self.request
        recv, send = sock.recv, sock.sendall
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, _timeval(SEND_TIMEOUT_S))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, _timeval(IDLE_TIMEOUT_S))
            try:
                oracle = self.server.oracle_factory()  # type: ignore[attr-defined]
            except Exception as exc:  # noqa: BLE001 - blame the server, not the transport
                log.exception("oracle factory failed for %s", peer)
                error = f"oracle factory failed: {type(exc).__name__}: {exc}"
                send(_line({"ok": False, "error": error}))
                return
            log.info("connection from %s", peer)
            conn = _Connection(oracle)
            buf = bytearray()  # received bytes after the last newline
            while chunk := recv(_RECV_BYTES):
                # One whole line, the common case, is answered without a copy.
                # The length check matters only for a MAX_LINE_BYTES set
                # below _RECV_BYTES.
                if not buf and chunk.find(b"\n") == len(chunk) - 1 and len(chunk) <= MAX_LINE_BYTES:
                    send(_handle_request(conn, chunk))
                    continue
                start, end = 0, len(buf)  # the bytes before `end` hold no newline
                buf += chunk
                # answer each line up to the last newline, or to one over the bound
                while (end := buf.find(b"\n", end) + 1) and end - start <= MAX_LINE_BYTES:
                    send(_handle_request(conn, bytes(buf[start:end])))
                    start = end
                del buf[:start]
                if len(buf) > MAX_LINE_BYTES:
                    send(_line({"ok": False, "error": f"request line over {MAX_LINE_BYTES} bytes"}))
                    return
            if buf:  # a last line with no newline before the client's EOF
                send(_handle_request(conn, bytes(buf)))
        except OSError as exc:  # the oracle's errors are replies; this is the socket's
            log.info("connection from %s dropped: %s", peer, exc)


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
        # Whether a serve_forever runs or is about to: socketserver's shutdown
        # waits for one to end, and one that never reached its loop never does.
        self._serving = False

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        log.info("listening on %s", self.address)
        try:
            self._serving = True
            self._server.serve_forever(_POLL_S)
        finally:  # ended by shutdown, or by an exception such as KeyboardInterrupt
            self._serving = False

    def start_background(self) -> None:
        self._serving = True
        self._thread = threading.Thread(target=self._server.serve_forever, args=(_POLL_S,), daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop serving, if a serve_forever runs, and close the listening socket."""
        if self._serving:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
