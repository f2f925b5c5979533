"""Deterministic autoregressive model oracles and the latency cost model.

An oracle owns a cache of consumed tokens. `extend(tokens)` consumes the
batch and returns one greedy prediction per consumed position; for the same
total consumed prefix the predictions are identical no matter how the
prefix was chunked into calls. `reset()` empties the cache, and
`truncate_cache(length)` keeps only its first `length` tokens; the decoder
rolls back rejected draft tokens with it. Both are part of the contract:
in-process oracles truncate in O(1), `ExternalOracle` by sending the
position with its next `extend`.
"""

from __future__ import annotations

import hashlib
import json
import socket
from dataclasses import dataclass, field

from .server import MAX_LINE_BYTES

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
    "OracleSpec",
    "make_oracle",
]


class OracleError(Exception):
    """Base class for oracle failures."""


class OracleConnectError(OracleError):
    """Could not establish a connection to an external oracle."""


class OracleTransportError(OracleError):
    """Connection failed mid-conversation."""


class OracleProtocolError(OracleError):
    """The remote peer violated the wire protocol."""


# A verify reply is some 60 bytes and a 600-token prefill's about 3 KB, so
# one recv of this size almost always holds the whole reply line.
_RECV_BYTES = 1 << 16


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
        for name in ("prefill_per_token", "verify_base", "verify_per_token"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def to_json(self) -> dict:
        return {
            "prefill_per_token": self.prefill_per_token,
            "verify_base": self.verify_base,
            "verify_per_token": self.verify_per_token,
        }


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
        self._script: list[int] = list(prompt) + list(target)
        self.eos = eos
        self.prompt_len = len(prompt)
        self.vocab_size = max(self._script + [eos]) + 1
        self._consumed = 0

    @property
    def consumed_len(self) -> int:
        return self._consumed

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
        if not (0 <= length <= self._consumed):
            raise ValueError(f"cannot truncate cache of {self._consumed} to {length}")
        self._consumed = length


class MarkovOracle:
    """Greedy fixed-order Markov predictor over a training corpus.

    Ties break to the smallest token id. Contexts never seen in the corpus
    map to a seeded-hash token, so different seeds explore different
    trajectories while staying fully deterministic.
    """

    def __init__(self, corpus: list[int], order: int, seed: int, eos: int | None = None) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(corpus) <= order:
            raise ValueError(f"corpus of length {len(corpus)} too short for order {order}")
        self.order = order
        self.seed = seed
        self.eos = eos
        self.vocab_size = max(corpus) + 1
        if eos is not None:
            self.vocab_size = max(self.vocab_size, eos + 1)
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

    @property
    def consumed_len(self) -> int:
        return len(self._consumed)

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
        if not (0 <= length <= len(self._consumed)):
            raise ValueError(f"cannot truncate cache of {len(self._consumed)} to {length}")
        del self._consumed[length:]


class ExternalOracle:
    """Client for the newline-delimited JSON oracle protocol.

    One request in flight per connection. Each request is one line written
    with one `sendall`, and its reply line is read with `recv`. A reply line
    over `MAX_LINE_BYTES` is refused with `OracleProtocolError` and the
    socket closed, so a server that never sends a newline cannot grow the
    client's memory without limit.

    `truncate_cache` sends nothing: it records the position, and the next
    `extend` carries it as `"at"`, so the server truncates and extends in
    one round trip; a bad position shows up as an error of that `extend`.
    A server whose `info` does not say `"at": true` is refused with
    `OracleProtocolError`: it would ignore the position and answer for the
    wrong prefix.
    """

    def __init__(self, endpoint: str, *, timeout: float = 10.0) -> None:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise OracleConnectError(f"bad endpoint {endpoint!r}; expected HOST:PORT")
        try:
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        except OSError as exc:
            raise OracleConnectError(f"cannot connect to {endpoint}: {exc}") from exc
        self.endpoint = endpoint
        self._consumed = 0
        self._at: int | None = None  # truncation the next extend carries
        try:
            info = self._request({"op": "info"})
            try:
                self.vocab_size = int(info["vocab_size"])
                eos = int(info["eos"])
            except (KeyError, TypeError, ValueError) as exc:
                raise OracleProtocolError(f"bad info reply: {info!r}") from exc
            if info.get("at") is not True:
                raise OracleProtocolError(f"server does not offer 'at' truncation: {info!r}")
        except BaseException:
            self.close()
            raise
        self.eos = None if eos < 0 else eos

    @property
    def consumed_len(self) -> int:
        return self._consumed

    def _request(self, payload: dict) -> dict:
        return self._exchange(json.dumps(payload).encode("utf-8") + b"\n")

    def _exchange(self, line: bytes) -> dict:
        """Send one request line and return its checked reply object."""
        try:
            self._sock.sendall(line)
            reply_line = self._read_line()
        except OSError as exc:
            raise OracleTransportError(
                f"transport failure after {self._consumed} consumed tokens: {exc}"
            ) from exc
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
        newline, and `json.loads` refuses any bytes after that newline."""
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
        # Byte-identical to json.dumps for int ids and positions. repr, not
        # str: a str id stays a quoted string and a bool reads True, which
        # the server refuses, so neither is ever taken as an id.
        ids = ", ".join(map(repr, tokens))
        if self._at is None:
            line = '{"op": "extend", "tokens": [%s]}\n' % ids
        else:
            line = '{"op": "extend", "tokens": [%s], "at": %r}\n' % (ids, self._at)
        preds = self._exchange(line.encode()).get("predictions")
        # type(), not isinstance(): JSON true and false load as bools, which are ints
        if not isinstance(preds, list) or len(preds) != len(tokens) or not all(
            type(p) is int for p in preds
        ):
            raise OracleProtocolError(f"bad predictions for batch of {len(tokens)}: {preds!r}")
        self._at = None
        self._consumed += len(tokens)
        return preds

    def reset(self) -> None:
        self._request({"op": "reset"})
        self._consumed = 0
        self._at = None

    def truncate_cache(self, length: int) -> None:
        if not (0 <= length <= self._consumed):
            raise ValueError(f"cannot truncate cache of {self._consumed} to {length}")
        self._at = length
        self._consumed = length

    def close(self) -> None:
        self._sock.close()


@dataclass(frozen=True)
class OracleSpec:
    """Factory description of an oracle, serializable for traces/sweeps."""

    kind: str  # replay | markov | external
    prompt: tuple[int, ...] | None = None
    target: tuple[int, ...] | None = None
    corpus: tuple[int, ...] | None = None
    order: int | None = None
    seed: int | None = None
    endpoint: str | None = None
    eos: int | None = None
    source: dict | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "eos": self.eos}
        if self.source is not None:
            out["source"] = self.source
            if self.kind == "replay":
                out["prompt_len"] = len(self.prompt or ())
                out["target_len"] = len(self.target or ())
        elif self.kind == "replay":
            out["prompt"] = list(self.prompt or ())
            out["target"] = list(self.target or ())
        elif self.kind == "markov":
            out["corpus"] = list(self.corpus or ())
        if self.kind == "markov":
            out["order"] = self.order
            out["seed"] = self.seed
        if self.kind == "external":
            out["endpoint"] = self.endpoint
        return out


def make_oracle(spec: OracleSpec):
    """Build a fresh oracle instance from its spec."""
    if spec.kind == "replay":
        if spec.prompt is None or spec.target is None or spec.eos is None:
            raise ValueError("replay spec needs prompt, target, and eos")
        return ReplayOracle(list(spec.prompt), list(spec.target), spec.eos)
    if spec.kind == "markov":
        if spec.corpus is None or spec.order is None or spec.seed is None:
            raise ValueError("markov spec needs corpus, order, and seed")
        return MarkovOracle(list(spec.corpus), spec.order, spec.seed, eos=spec.eos)
    if spec.kind == "external":
        if not spec.endpoint:
            raise ValueError("external spec needs an endpoint")
        return ExternalOracle(spec.endpoint)
    raise ValueError(f"unknown oracle kind {spec.kind!r}")
