"""Deterministic autoregressive model oracles and the latency cost model.

An oracle owns a cache of consumed tokens. `extend(tokens)` consumes the
batch and returns one greedy prediction per consumed position; for the same
total consumed prefix the predictions are identical no matter how the
prefix was chunked into calls. `truncate_cache(length)` keeps only the
cache's first `length` tokens, and `reset()` is `truncate_cache(0)`: one
rollback primitive, which in-process oracles apply in O(1) and
`ExternalOracle` by sending the position with its next `extend`. Every
oracle refuses a `length` that is not a plain int in [0, consumed] with
`ValueError`, before any state changes.

The contract has no way to read the consumed length: the decoder tracks it
itself and calls `truncate_cache` only after a verify that rejected a
drafted token, to drop the rejected tail, and a caller that needs the
length counts the tokens it sent, as the decoder does.
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
from dataclasses import dataclass, fields

from .server import _EXTEND_AT_REQUEST, _EXTEND_REPLY_RE, _EXTEND_REQUEST, MAX_LINE_BYTES

__all__ = [
    "OracleError",
    "OracleConnectError",
    "OracleTransportError",
    "OracleProtocolError",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "simulate_cost",
    "ReplayOracle",
    "MarkovOracle",
    "ExternalOracle",
]


class OracleError(Exception):
    """Base class for oracle failures."""


class OracleConnectError(OracleError):
    """Could not establish a connection to an external oracle."""


class OracleTransportError(OracleError):
    """Connection failed mid-conversation."""


class OracleProtocolError(OracleError):
    """The remote peer violated the wire protocol."""


# Seconds `ExternalOracle` waits to connect and for each reply.
_TIMEOUT_S = 10.0

# A verify reply is some 60 bytes and a 600-token prefill's about 3 KB, so
# one recv of this size almost always holds the whole reply line.
_RECV_BYTES = 1 << 16


def _is_finite_number(value) -> bool:
    """Whether `value` is a finite float, or an int that a float holds
    exactly; a bool is an int, but neither. A nan or inf cost would make
    every simulated time nan or inf, and 2**53 + 1 or 10**400 would be
    stored as another number or not at all."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and float(value) == value
    except OverflowError:  # an int past the largest float
        return False


@dataclass(frozen=True)
class CostModel:
    """Affine per-call latency in abstract time units.

    verify_per_token defaults well below verify_base: batched verification
    of a few extra tokens costs almost the same as a single-token step.
    """

    prefill_per_token: float = 0.002
    verify_base: float = 1.0
    verify_per_token: float = 0.05

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_finite_number(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0")
            # an int is stored as the float a trace header writes: 1 as 1.0
            object.__setattr__(self, f.name, float(value))


DEFAULT_COST_MODEL = CostModel()


def simulate_cost(cost_model: CostModel, call_kind: str, batch_len: int) -> float:
    """Simulated latency of one model call over `batch_len` tokens."""
    if batch_len < 1:
        raise ValueError(f"batch_len must be >= 1, got {batch_len}")
    if call_kind == "prefill":
        return cost_model.prefill_per_token * batch_len
    if call_kind == "verify":
        return cost_model.verify_base + cost_model.verify_per_token * batch_len
    raise ValueError(f"unknown call kind {call_kind!r}")


def _check_batch(tokens: list[int]) -> None:
    if not tokens:
        raise ValueError("extend requires at least one token")


def _check_position(length: int, consumed: int) -> None:
    # type(), not isinstance(): a bool is an int, and the server refuses one as "at"
    if type(length) is not int or not 0 <= length <= consumed:
        raise ValueError(f"cannot truncate cache of {consumed} to {length!r}")


class ReplayOracle:
    """Teacher-forcing oracle that reads a fixed script.

    The prediction after consuming c tokens is script[c] where script is
    prompt + target, and eos once the script is exhausted. Predictions
    depend only on the consumed count, never on token values, so a decoder
    fed wrong tokens is pulled back on script and acceptance statistics
    are exactly measurable.
    """

    def __init__(self, prompt: list[int], target: list[int], eos: int) -> None:
        if not target:
            raise ValueError("replay target must be non-empty")
        # type(), not isinstance(): a bool is an int; past its end the script reads eos
        if type(eos) is not int:
            raise ValueError(f"replay eos must be an integer, got {eos!r}")
        self._script: list[int] = list(prompt) + list(target)
        self.eos = eos
        self.vocab_size = max(max(self._script), eos) + 1
        self._consumed = 0

    def extend(self, tokens: list[int]) -> list[int]:
        _check_batch(tokens)
        base = self._consumed
        end = self._consumed = base + len(tokens)
        preds = self._script[base + 1 : end + 1]
        if len(preds) < len(tokens):  # past the script's end
            preds += [self.eos] * (len(tokens) - len(preds))
        return preds

    def reset(self) -> None:
        self._consumed = 0

    def truncate_cache(self, length: int) -> None:
        _check_position(length, self._consumed)
        self._consumed = length


class MarkovOracle:
    """Greedy fixed-order Markov predictor over a training corpus.

    Ties break to the smallest token id. Contexts never seen in the corpus
    map to a seeded-hash token, so different seeds explore different
    trajectories while staying fully deterministic. It has no eos.
    """

    def __init__(self, corpus: list[int], order: int, seed: int) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(corpus) <= order:
            raise ValueError(f"corpus of length {len(corpus)} too short for order {order}")
        self.order = order
        self.eos = None
        self.vocab_size = max(corpus) + 1
        self._seed_key = str(seed).encode("ascii")
        self._consumed: list[int] = []
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        for i in range(len(corpus) - order):
            ctx = tuple(corpus[i : i + order])
            nxt = corpus[i + order]
            row = counts.setdefault(ctx, {})
            row[nxt] = row.get(nxt, 0) + 1
        # precomputed greedy choice per context
        self._best: dict[tuple[int, ...], int] = {
            ctx: max(row.items(), key=lambda kv: (kv[1], -kv[0]))[0] for ctx, row in counts.items()
        }

    def _predict(self) -> int:
        ctx = tuple(self._consumed[-self.order :])
        hit = self._best.get(ctx)
        if hit is not None:
            return hit
        digest = hashlib.blake2b(
            b",".join(b"%d" % t for t in ctx), digest_size=8, key=self._seed_key
        ).digest()
        return int.from_bytes(digest, "big") % self.vocab_size

    def extend(self, tokens: list[int]) -> list[int]:
        _check_batch(tokens)
        preds = []
        for tok in tokens:
            self._consumed.append(tok)
            preds.append(self._predict())
        return preds

    def reset(self) -> None:
        self._consumed.clear()

    def truncate_cache(self, length: int) -> None:
        _check_position(length, len(self._consumed))
        del self._consumed[length:]


def _split_endpoint(endpoint: str, name: str = "endpoint") -> tuple[str, int]:
    """The host and port of a "HOST:PORT" string. A port must be ASCII
    digits naming 0..65535; anything else is refused with
    `OracleConnectError`, which calls the string `name`."""
    host, _, port = endpoint.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise OracleConnectError(f"bad {name} {endpoint!r}; expected HOST:PORT with a port of 0..65535")
    return host, int(port)


class ExternalOracle:
    """Client for the newline-delimited JSON oracle protocol.

    One request in flight per connection. Each request is one line written
    with one `sendall`, and its reply line is read with `recv`. An `extend`
    reply spelled exactly as `OracleServer` writes it, with one prediction
    per token sent, is read without json; any other goes through
    `_reply`'s checks. A reply line over `MAX_LINE_BYTES` is refused with
    `OracleProtocolError` and the socket closed, so a server that never
    sends a newline cannot grow the client's memory without limit.

    `truncate_cache`, and so `reset`, checks the position locally and sends
    nothing: it records it, and the next `extend` carries it as `"at"`, so
    the server truncates and extends in one round trip; a position the
    server refuses shows up as an error of that `extend`. The only other
    request is the `info` handshake that `__init__` sends.
    A server whose `info` does not say `"at": true` is refused with
    `OracleProtocolError`: it would ignore the position and answer for the
    wrong prefix. So is one whose `vocab_size` and `eos` are not plain ints
    with `vocab_size >= 1` and `-1 <= eos < vocab_size` (-1: no eos).
    """

    def __init__(self, endpoint: str) -> None:
        host, port = _split_endpoint(endpoint)
        try:
            self._sock = socket.create_connection((host, port), timeout=_TIMEOUT_S)
        except OSError as exc:
            raise OracleConnectError(f"cannot connect to {endpoint}: {exc}") from exc
        self._consumed = 0
        self._at: int | None = None  # truncation the next extend carries
        try:
            info = self._reply(self._exchange(b'{"op": "info"}\n'))
            vocab_size, eos = info.get("vocab_size"), info.get("eos")
            # type(), not isinstance(): JSON true and false load as bools, which are ints
            if not (type(vocab_size) is int and type(eos) is int
                    and vocab_size >= 1 and -1 <= eos < vocab_size):
                raise OracleProtocolError(f"bad info reply: {info!r}")
            if info.get("at") is not True:
                raise OracleProtocolError(f"server does not offer 'at' truncation: {info!r}")
        except BaseException:
            self.close()
            raise
        self.vocab_size = vocab_size
        self.eos = None if eos < 0 else eos

    def _exchange(self, line: bytes) -> bytes | bytearray:
        """Send one request line and return its reply line."""
        try:
            self._sock.sendall(line)
            return self._read_line()
        except OSError as exc:
            raise OracleTransportError(
                f"transport failure after {self._consumed} consumed tokens: {exc}"
            ) from exc

    def _reply(self, reply_line: bytes | bytearray) -> dict:
        """The checked reply object of a reply line."""
        try:
            reply = json.loads(reply_line)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError on non-UTF-8
            raise OracleProtocolError(f"unparseable reply: {bytes(reply_line[:200])!r}") from exc
        if not isinstance(reply, dict) or "ok" not in reply:
            raise OracleProtocolError(f"malformed reply: {reply!r}")
        if not reply["ok"]:
            raise OracleError(f"server error: {reply.get('error', 'unspecified')}")
        return reply

    def _read_line(self) -> bytes | bytearray:
        """The reply line. One request is in flight, so its reply ends the
        bytes received: they are read up to the first chunk that holds a
        newline, and the reply's reader refuses any bytes after that
        newline."""
        chunk = self._sock.recv(_RECV_BYTES)
        if chunk.endswith(b"\n"):
            return chunk  # the whole reply in one segment, the common case
        buf = bytearray(chunk)
        while b"\n" not in chunk:
            if not chunk:
                if buf:
                    raise OracleProtocolError(f"reply cut short: {bytes(buf[:200])!r}")
                raise OracleTransportError(
                    f"server closed the connection after {self._consumed} consumed tokens"
                )
            chunk = self._sock.recv(_RECV_BYTES)
            buf += chunk
            if len(buf) > MAX_LINE_BYTES:
                self.close()  # mid-line: the stream cannot be resynced
                raise OracleProtocolError(f"reply line over {MAX_LINE_BYTES} bytes")
        return buf

    def extend(self, tokens: list[int]) -> list[int]:
        _check_batch(tokens)
        # Byte-identical to json.dumps for int ids. repr, not str: a str id
        # stays a quoted string and a bool reads True, which the server
        # refuses, so neither is ever taken as an id.
        ids = ", ".join(map(repr, tokens))
        if self._at is None:
            line = _EXTEND_REQUEST % ids
        else:
            line = _EXTEND_AT_REQUEST % (ids, self._at)
        reply_line = self._exchange(line.encode())
        fast = _EXTEND_REPLY_RE.fullmatch(reply_line)
        preds = None if fast is None else list(map(int, fast[1].split(b", ")))
        if preds is None or len(preds) != len(tokens):
            preds = self._reply(reply_line).get("predictions")
            # type(), not isinstance(): JSON true and false load as bools, which are ints
            if not isinstance(preds, list) or len(preds) != len(tokens) or not all(
                type(p) is int for p in preds
            ):
                raise OracleProtocolError(f"bad predictions for batch of {len(tokens)}: {preds!r}")
        self._at = None
        self._consumed += len(tokens)
        return preds

    def reset(self) -> None:
        self.truncate_cache(0)

    def truncate_cache(self, length: int) -> None:
        _check_position(length, self._consumed)
        self._at = length
        self._consumed = length

    def close(self) -> None:
        self._sock.close()
