import contextlib
import gc
import json
import logging
import select
import socket
import struct
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.oracle import (
    ExternalOracle,
    MarkovOracle,
    OracleConnectError,
    OracleError,
    OracleProtocolError,
    OracleTransportError,
    ReplayOracle,
)
from specdec.bundled import bundled_bytes
from specdec.decoding import DecodeOptions, speculative_decode
from specdec import server as server_module
from specdec.server import (
    _EXTEND_REPLY,
    _EXTEND_REPLY_RE,
    _EXTEND_REQUEST_RE,
    MAX_LINE_BYTES,
    OracleServer,
    _Connection,
    _handle_request,
)
from specdec.tokenizer import byte_vocab, encode


@pytest.fixture(scope="module")
def markov_server():
    corpus = [i % 7 for i in range(50)]
    server = OracleServer(lambda: MarkovOracle(corpus, order=2, seed=5))
    server.start_background()
    yield server, corpus
    server.shutdown()


def raw_exchange(address, lines):
    host, port = address.rsplit(":", 1)
    replies = []
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        f = sock.makefile("rwb")
        for line in lines:
            f.write(line + b"\n")
            f.flush()
            replies.append(json.loads(f.readline()))
    return replies


def test_info_reports_vocab_and_eos(markov_server):
    server, corpus = markov_server
    replies = raw_exchange(server.address, [b'{"op":"info"}'])
    assert replies[0] == {"ok": True, "vocab_size": max(corpus) + 1, "eos": -1, "at": True}


def test_server_without_at_is_refused_and_the_socket_closed():
    # A server that ignored `at` would answer for the untruncated prefix.
    lst = socket.socket()
    lst.bind(("127.0.0.1", 0))
    lst.listen(1)
    host, port = lst.getsockname()
    client_closed = threading.Event()

    def old_server():
        conn, _ = lst.accept()
        f = conn.makefile("rwb")
        f.readline()  # info
        f.write(json.dumps({"ok": True, "vocab_size": 10, "eos": -1}).encode() + b"\n")
        f.flush()
        if f.readline() == b"":
            client_closed.set()
        f.close()
        conn.close()

    threading.Thread(target=old_server, daemon=True).start()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OracleProtocolError, match="'at'"):
            ExternalOracle(f"{host}:{port}")
        gc.collect()  # an unclosed socket warns when it is collected
    assert client_closed.wait(5)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    lst.close()


def test_extend_reset_round_trip_matches_in_process(markov_server):
    server, corpus = markov_server
    remote = ExternalOracle(server.address)
    local = MarkovOracle(corpus, order=2, seed=5)
    assert remote.extend([1, 2, 3]) == local.extend([1, 2, 3])
    remote.reset()
    local.reset()
    assert remote.extend([4, 5]) == local.extend([4, 5])
    remote.close()


def test_malformed_json_keeps_connection_open(markov_server):
    server, _ = markov_server
    replies = raw_exchange(
        server.address,
        [b"this is not json", b'{"op":"info"}\xff', b'{"op":"info"}'],
    )
    assert [r["ok"] for r in replies] == [False, False, True]  # still served after bad lines
    assert "malformed" in replies[0]["error"]
    assert "utf-8" in replies[1]["error"]


def test_unknown_op_and_bad_extend_are_reported(markov_server):
    server, _ = markov_server
    replies = raw_exchange(
        server.address,
        [b'{"op":"frobnicate"}', b'{"op":"extend","tokens":[]}', b'{"op":"extend","tokens":"x"}',
         b'{"op":"reset"}'],  # a restart is "at": 0 on the next extend
    )
    assert all(r["ok"] is False for r in replies)
    assert replies[-1]["error"] == "unknown op 'reset'"


def test_readme_wire_block_requests_are_answered_in_order():
    # every request line of README's wire block, fed in order to one oracle
    # whose vocab covers the ids shown, gets an "ok" reply with the keys shown
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Wire protocol\n", 1)[1].split("```", 2)[1]
    shown = [line[3:].split("<-") for line in block.splitlines() if line.startswith("-> ")]
    assert len(shown) >= 3
    oracle = MarkovOracle(list(range(256)), order=1, seed=0)
    for request, reply in shown:
        line = _handle_request(_Connection(oracle), request.strip().encode())
        got, want = json.loads(line), json.loads(reply)
        assert got["ok"] is True and got.keys() == want.keys(), request
        if "predictions" not in want:
            assert got == want, request


def test_connections_do_not_share_cache(markov_server):
    server, corpus = markov_server
    a = ExternalOracle(server.address)
    b = ExternalOracle(server.address)
    local = MarkovOracle(corpus, order=2, seed=5)
    a.extend([1, 1, 1, 1])
    # b's cache must be unaffected by a's traffic
    assert b.extend([1, 2, 3]) == local.extend([1, 2, 3])
    a.close()
    b.close()


def test_replay_oracle_served(markov_server_unused=None):
    server = OracleServer(lambda: ReplayOracle([1, 2], [5, 6, 7], eos=9))
    server.start_background()
    try:
        remote = ExternalOracle(server.address)
        assert remote.eos == 9
        local = ReplayOracle([1, 2], [5, 6, 7], eos=9)
        assert remote.extend([1, 2, 5]) == local.extend([1, 2, 5])
        remote.close()
    finally:
        server.shutdown()


def test_connect_error_is_distinct():
    with pytest.raises(OracleConnectError):
        ExternalOracle("127.0.0.1:1")
    with pytest.raises(OracleConnectError):
        ExternalOracle("not-an-endpoint")


@pytest.mark.parametrize("endpoint", ["127.0.0.1:65536", "127.0.0.1:99999", "127.0.0.1:\u00b2", ":7711"])
def test_bad_endpoint_is_refused_before_a_socket_opens(monkeypatch, endpoint):
    # 99999 would wrap to port 34463, and "²" passes str.isdigit
    def never(*args, **kwargs):
        raise AssertionError(f"connected to {endpoint!r}")

    monkeypatch.setattr(socket, "create_connection", never)
    with pytest.raises(OracleConnectError, match=f"bad endpoint {endpoint!r}; expected HOST:PORT"):
        ExternalOracle(endpoint)


def test_protocol_violation_is_distinct():
    # a server that answers with garbage
    lst = socket.socket()
    lst.bind(("127.0.0.1", 0))
    lst.listen(1)
    host, port = lst.getsockname()

    def bad_server():
        conn, _ = lst.accept()
        f = conn.makefile("rwb")
        while True:
            line = f.readline()
            if not line:
                break
            f.write(b"garbage garbage\n")
            f.flush()
        f.close()
        conn.close()

    t = threading.Thread(target=bad_server, daemon=True)
    t.start()
    with pytest.raises(OracleProtocolError):
        ExternalOracle(f"{host}:{port}")
    lst.close()


def test_transport_error_mid_stream_names_position():
    lst = socket.socket()
    lst.bind(("127.0.0.1", 0))
    lst.listen(1)
    host, port = lst.getsockname()

    def one_shot_server():
        conn, _ = lst.accept()
        f = conn.makefile("rwb")
        f.readline()  # info
        f.write(json.dumps({"ok": True, "vocab_size": 10, "eos": -1, "at": True}).encode() + b"\n")
        f.flush()
        f.readline()  # first extend
        f.write(json.dumps({"ok": True, "predictions": [1, 2]}).encode() + b"\n")
        f.flush()
        f.close()
        conn.close()  # die before the second request

    t = threading.Thread(target=one_shot_server, daemon=True)
    t.start()
    remote = ExternalOracle(f"{host}:{port}")
    assert remote.extend([4, 4]) == [1, 2]
    with pytest.raises(OracleTransportError, match="2 consumed"):
        remote.extend([5])
    remote.close()
    lst.close()


def test_wrong_prediction_count_is_protocol_error():
    lst = socket.socket()
    lst.bind(("127.0.0.1", 0))
    lst.listen(1)
    host, port = lst.getsockname()

    def short_server():
        conn, _ = lst.accept()
        f = conn.makefile("rwb")
        f.readline()
        f.write(json.dumps({"ok": True, "vocab_size": 10, "eos": -1, "at": True}).encode() + b"\n")
        f.flush()
        f.readline()
        f.write(json.dumps({"ok": True, "predictions": [1]}).encode() + b"\n")
        f.flush()
        f.readline()  # until the client closes
        f.close()
        conn.close()

    threading.Thread(target=short_server, daemon=True).start()
    remote = ExternalOracle(f"{host}:{port}")
    with pytest.raises(OracleProtocolError):
        remote.extend([4, 4])
    remote.close()
    lst.close()


INFO_LINE = json.dumps({"ok": True, "vocab_size": 10, "eos": -1, "at": True}).encode() + b"\n"


def one_connection_server(script):
    """Serve one connection: for each step of `script`, read one request
    line into the returned list, then send the step's bytes, or call the
    step with the socket. Then read until the client closes and set the
    returned event."""
    lst = socket.socket()
    lst.bind(("127.0.0.1", 0))
    lst.listen(1)
    host, port = lst.getsockname()
    requests, client_closed = [], threading.Event()

    def serve():
        with lst:
            conn, _ = lst.accept()
        with conn, conn.makefile("rb") as f:
            for step in script:
                line = f.readline()
                if not line:
                    return
                requests.append(line)
                if callable(step):
                    step(conn)
                else:
                    conn.sendall(step)
            with contextlib.suppress(OSError):
                while f.readline():
                    pass
            client_closed.set()

    threading.Thread(target=serve, daemon=True).start()
    return f"{host}:{port}", requests, client_closed


def test_extend_lines_are_json_dumps_byte_for_byte(markov_server):
    replies = [json.dumps({"ok": True, "predictions": [1] * n}).encode() + b"\n" for n in (600, 2)]
    endpoint, requests, _ = one_connection_server([INFO_LINE, *replies])
    remote = ExternalOracle(endpoint)
    prefill = [0, 9, 255, 7_654_321, *range(596)]
    remote.extend(prefill)
    remote.truncate_cache(598)
    remote.extend([3, 4])
    remote.close()
    assert requests[1:] == [
        json.dumps({"op": "extend", "tokens": prefill}).encode() + b"\n",
        json.dumps({"op": "extend", "tokens": [3, 4], "at": 598}).encode() + b"\n",
    ]
    # and the server's extend reply, read off the socket
    server, corpus = markov_server
    tokens = [t % 7 for t in prefill]
    host, port = server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock, sock.makefile("rb") as f:
        sock.sendall(json.dumps({"op": "extend", "tokens": tokens}).encode() + b"\n")
        expected = MarkovOracle(corpus, order=2, seed=5).extend(tokens)
        assert f.readline() == json.dumps({"ok": True, "predictions": expected}).encode() + b"\n"


class _OneByteAtATime:
    """A socket whose recv returns at most one byte."""

    def __init__(self, sock) -> None:
        self._sock = sock

    def recv(self, _bufsize):
        return self._sock.recv(1)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_reply_in_one_byte_segments_decodes(markov_server):
    server, corpus = markov_server
    remote = ExternalOracle(server.address)
    remote._sock = _OneByteAtATime(remote._sock)
    local = MarkovOracle(corpus, order=2, seed=5)
    assert remote.extend([1, 2, 3, 4, 5, 6]) == local.extend([1, 2, 3, 4, 5, 6])
    remote.truncate_cache(2)
    local.truncate_cache(2)
    assert remote.extend([0]) == local.extend([0])
    remote.reset()
    local.reset()
    assert remote.extend([1, 2]) == local.extend([1, 2])
    remote.close()


@pytest.mark.parametrize("reply", [b'{"ok": true, "predictions": [1', b'{"ok": true, "predictions": [1]}'])
def test_reply_cut_by_eof_is_protocol_error(reply):
    def send_and_close(conn):
        conn.sendall(reply)
        conn.shutdown(socket.SHUT_WR)

    endpoint, _, _ = one_connection_server([INFO_LINE, send_and_close])
    remote = ExternalOracle(endpoint)
    with pytest.raises(OracleProtocolError, match="cut short"):
        remote.extend([4])
    remote.close()


def _info_line(fields) -> bytes:
    return json.dumps({"ok": True, **fields, "at": True}).encode() + b"\n"


@pytest.mark.parametrize("fields", [
    {"vocab_size": "12", "eos": 5},
    {"vocab_size": 12, "eos": True},
    {"vocab_size": 7.9, "eos": 3},
    {"vocab_size": 12, "eos": 3.5},
    {"vocab_size": 0, "eos": 5},
    {"vocab_size": 0, "eos": -1},
    {"vocab_size": 12, "eos": 12},
    {"vocab_size": 12, "eos": -2},
    {"vocab_size": None, "eos": -1},
    {"eos": -1},
    {"vocab_size": 12},
], ids=repr)
def test_bad_info_reply_is_refused_and_the_socket_closed(fields):
    endpoint, _, client_closed = one_connection_server([_info_line(fields)])
    with pytest.raises(OracleProtocolError, match="^bad info reply: "):
        ExternalOracle(endpoint)
    assert client_closed.wait(5)


@pytest.mark.parametrize("vocab_size, eos, expected_eos", [(1, -1, None), (1, 0, 0), (12, 11, 11)])
def test_info_reply_at_its_bounds_is_read(vocab_size, eos, expected_eos):
    endpoint, _, _ = one_connection_server([_info_line({"vocab_size": vocab_size, "eos": eos})])
    remote = ExternalOracle(endpoint)
    assert (remote.vocab_size, remote.eos) == (vocab_size, expected_eos)
    remote.close()


def test_over_long_reply_line_is_refused_and_the_socket_closed():
    def stream_without_newline(conn):
        chunk = b" " * (1 << 16)
        with contextlib.suppress(OSError):  # the client closes mid-stream
            for _ in range(MAX_LINE_BYTES // len(chunk) + 8):
                conn.sendall(chunk)

    endpoint, _, client_closed = one_connection_server([INFO_LINE, stream_without_newline])
    remote = ExternalOracle(endpoint)
    with pytest.raises(OracleProtocolError, match="over"):
        remote.extend([4])
    assert remote._sock.fileno() == -1  # closed by the client itself
    assert client_closed.wait(5)
    remote.close()


@pytest.mark.parametrize("reply", [b'{"ok": true, "predictions": [true]}\n',
                                   b'{"ok": true, "predictions": ["1"]}\n',
                                   b'{"ok": true, "predictions": [1.0]}\n',
                                   b'{"ok": true, "predictions": [1]}\n{"ok": true}\n',
                                   b'\xff\n'])
def test_bad_reply_is_protocol_error(reply):
    endpoint, _, _ = one_connection_server([INFO_LINE, reply])
    remote = ExternalOracle(endpoint)
    with pytest.raises(OracleProtocolError):
        remote.extend([4])
    remote.close()


@pytest.mark.parametrize("bad", [True, False, "1", "0", "1, 2", 1.0])
def test_bool_or_str_token_is_refused_and_never_taken_as_an_id(markov_server, bad):
    server, corpus = markov_server
    remote = ExternalOracle(server.address)
    local = MarkovOracle(corpus, order=2, seed=5)
    assert remote.extend([1, 2]) == local.extend([1, 2])
    with pytest.raises(OracleError):
        remote.extend([3, bad])
    # the refused request consumed nothing
    assert remote.extend([3]) == local.extend([3])
    remote.close()


def test_server_side_oracle_error_is_reported(markov_server):
    server, _ = markov_server
    remote = ExternalOracle(server.address)
    with pytest.raises(OracleError):
        # negative ids are rejected by request validation server-side
        remote.extend([-1])
    remote.close()


def test_bad_token_ids_are_rejected_and_connection_stays_open(markov_server):
    server, corpus = markov_server
    replies = raw_exchange(
        server.address,
        [
            b'{"op":"extend","tokens":[true]}',
            b'{"op":"extend","tokens":[1,false]}',
            b'{"op":"extend","tokens":[7]}',  # vocab_size is 7
            b'{"op":"extend","tokens":[1.0]}',
            b'{"op":"extend","tokens":[1,2]}',
        ],
    )
    assert [r["ok"] for r in replies] == [False, False, False, False, True]
    assert "[0, 7)" in replies[2]["error"]
    # the rejected requests consumed nothing
    assert replies[4]["predictions"] == MarkovOracle(corpus, order=2, seed=5).extend([1, 2])


def test_bad_at_is_rejected_and_leaves_the_cache_alone(markov_server):
    server, corpus = markov_server
    bad = [b"true", b"1.0", b'"1"', b"-1", b"4", b"[1]"]  # 3 tokens consumed
    replies = raw_exchange(
        server.address,
        [b'{"op":"extend","tokens":[1,2,3]}']
        + [b'{"op":"extend","tokens":[4],"at":' + at + b"}" for at in bad]
        + [b'{"op":"extend","tokens":[4],"at":3}', b'{"op":"extend","tokens":[5],"at":1}'],
    )
    assert [r["ok"] for r in replies[1:-2]] == [False] * len(bad)
    local = MarkovOracle(corpus, order=2, seed=5)
    local.extend([1, 2, 3])
    assert replies[-2]["predictions"] == local.extend([4])
    local.truncate_cache(1)
    assert replies[-1]["predictions"] == local.extend([5])


def test_over_long_request_line_is_refused_and_connection_closed(markov_server):
    server, _ = markov_server
    host, port = server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        f = sock.makefile("rwb")
        # a line exactly at the limit is still served
        line = b'{"op":"info"}'
        f.write(line + b" " * (MAX_LINE_BYTES - len(line) - 1) + b"\n")
        f.flush()
        assert json.loads(f.readline())["ok"] is True
        f.write(b" " * MAX_LINE_BYTES + b"\n")
        f.flush()
        reply = json.loads(f.readline())
        assert reply["ok"] is False and "over" in reply["error"]
        assert f.readline() == b""  # closed


def test_connections_over_the_cap_are_refused(monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    corpus = [i % 7 for i in range(50)]
    server = OracleServer(lambda: MarkovOracle(corpus, order=2, seed=5))
    server.start_background()
    try:
        first = ExternalOracle(server.address)
        with pytest.raises(OracleError):
            ExternalOracle(server.address)
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            f = sock.makefile("rwb")
            reply = json.loads(f.readline())
            assert reply["ok"] is False and "busy" in reply["error"]
            assert f.readline() == b""  # closed
        local = MarkovOracle(corpus, order=2, seed=5)
        assert first.extend([1, 2, 3]) == local.extend([1, 2, 3])
        first.close()
        # the slot frees once the server's handler sees the close
        deadline = time.monotonic() + 5
        while True:
            try:
                later = ExternalOracle(server.address)
                break
            except OracleError:
                assert time.monotonic() < deadline, "slot not freed after the first client closed"
                time.sleep(0.01)
        assert later.extend([1, 2, 3]) == MarkovOracle(corpus, order=2, seed=5).extend([1, 2, 3])
        later.close()
    finally:
        server.shutdown()


def test_a_client_that_reads_no_reply_is_dropped_and_its_slot_freed(monkeypatch, caplog):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    monkeypatch.setattr(server_module, "SEND_TIMEOUT_S", 0.05)  # read when a connection opens
    corpus = [i % 7 for i in range(50)]
    server = OracleServer(lambda: MarkovOracle(corpus, order=2, seed=5))
    server.start_background()
    host, port = server.address.rsplit(":", 1)
    try:
        with caplog.at_level(logging.INFO, logger="specdec.server"), socket.socket() as flood:
            flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # replies back up soon
            flood.connect((host, int(port)))
            flood.setblocking(False)
            requests = b'{"op": "info"}\n' * 1000
            # Send requests and read no reply until the server drops the
            # connection, which a send then reports.
            deadline = time.monotonic() + 10
            while True:
                assert time.monotonic() < deadline, "a client that reads nothing was never dropped"
                try:
                    flood.send(requests)
                except BlockingIOError:
                    select.select([], [flood], [], 0.05)
                except (ConnectionResetError, BrokenPipeError):
                    break
            assert any("dropped" in r.getMessage() for r in caplog.records)
        # the slot is free: a fresh client is served
        deadline = time.monotonic() + 5
        while True:
            try:
                later = ExternalOracle(server.address)
                break
            except OracleError:
                assert time.monotonic() < deadline, "slot not freed after the client was dropped"
                time.sleep(0.01)
        assert later.extend([1, 2, 3]) == MarkovOracle(corpus, order=2, seed=5).extend([1, 2, 3])
        later.close()
    finally:
        server.shutdown()


def test_truncate_cache_is_checked_locally_and_sent_lazily(markov_server):
    server, corpus = markov_server
    remote = ExternalOracle(server.address)
    local = MarkovOracle(corpus, order=2, seed=5)
    remote.extend([1, 2, 3])
    local.extend([1, 2, 3])
    with pytest.raises(ValueError):
        remote.truncate_cache(4)
    with pytest.raises(ValueError):
        remote.truncate_cache(-1)
    remote.truncate_cache(2)
    remote.truncate_cache(1)  # the later position wins
    local.truncate_cache(1)
    assert remote.extend([6, 0]) == local.extend([6, 0])
    remote.truncate_cache(2)
    remote.reset()  # a reset is truncate_cache(0): the later position wins
    assert remote.extend([2]) == MarkovOracle(corpus, order=2, seed=5).extend([2])
    remote.close()


@pytest.mark.parametrize("position", [True, 1.0, "1"])
def test_truncate_cache_refuses_non_int_positions(markov_server, position):
    server, corpus = markov_server
    remote = ExternalOracle(server.address)
    local = MarkovOracle(corpus, order=2, seed=5)
    remote.extend([1, 2, 3])
    local.extend([1, 2, 3])
    with pytest.raises(ValueError):
        remote.truncate_cache(position)
    # nothing is pending: the next extend continues the untruncated prefix
    assert remote.extend([6, 0]) == local.extend([6, 0])
    remote.close()


class _CountingOracle:
    """Counts the extend and reset calls a served oracle receives."""

    def __init__(self, inner, counts) -> None:
        self._inner = inner
        self._counts = counts

    def extend(self, tokens):
        self._counts["extend"] += 1
        return self._inner.extend(tokens)

    def reset(self):
        self._counts["reset"] += 1
        self._inner.reset()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_speculative_decode_over_tcp_matches_in_process():
    vocab = byte_vocab()
    ids = encode(bundled_bytes("shuffled.txt"), vocab, "byte")
    prompt, target = ids[:300], ids[300:]
    opts = DecodeOptions(n_max=5, k_draft=7, max_new_tokens=400)
    for make in (
        lambda: ReplayOracle(prompt, target, vocab.eos),
        lambda: MarkovOracle(ids, order=3, seed=11),
    ):
        counts = {"extend": 0, "reset": 0}
        server = OracleServer(lambda: _CountingOracle(make(), counts))
        server.start_background()
        try:
            remote = ExternalOracle(server.address)
            over_tcp = speculative_decode(remote, prompt, opts)
            remote.close()
        finally:
            server.shutdown()
        in_process = speculative_decode(make(), prompt, opts)
        assert over_tcp.output == in_process.output
        assert over_tcp.steps == in_process.steps
        assert over_tcp.totals == in_process.totals
        rollbacks = sum(1 for s in in_process.steps if s.accepted_count < len(s.drafted))
        assert rollbacks > 0
        # one request per model call: rollbacks and the restart ride on the
        # next extend, so the served oracle is never reset
        assert counts == {"extend": in_process.totals.llm_calls, "reset": 0}


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.lists(st.integers(0, 6), min_size=1, max_size=5)),
        st.tuples(st.just("truncate"), st.integers(0, 1_000)),
        st.tuples(st.just("reset"), st.none()),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(script=_OPS)
def test_extend_truncate_reset_scripts_match_in_process(markov_server, script):
    server, corpus = markov_server
    remote = ExternalOracle(server.address)
    local = MarkovOracle(corpus, order=2, seed=5)
    consumed = 0  # tracked here, as the decoder tracks it
    try:
        for op, arg in script:
            if op == "extend":
                assert remote.extend(arg) == local.extend(arg)
                consumed += len(arg)
            elif op == "reset":
                remote.reset()
                local.reset()
                consumed = 0
            else:
                # one past the end is out of range for both
                length = arg % (consumed + 2)
                if length > consumed:
                    with pytest.raises(ValueError):
                        remote.truncate_cache(length)
                else:
                    remote.truncate_cache(length)
                    local.truncate_cache(length)
                    consumed = length
        # a rollback that ended the script is checked by the next extend
        assert remote.extend([0]) == local.extend([0])
    finally:
        remote.close()


def _oracle():
    """A fresh oracle that has consumed [1, 2, 3]. Its order is above any
    length a test line leaves it at, so a probe's predictions tell apart
    both the length and the tokens of what it has consumed."""
    oracle = MarkovOracle([i % 7 for i in range(50)], order=16, seed=5)
    oracle.extend([1, 2, 3])
    return oracle


def _probe(oracle) -> list[int]:
    """The predictions of one more extend: the test's view of the oracle's
    state, which the oracle contract has no other way to read."""
    return oracle.extend([0] * 8)


UNCHANGED = _probe(_oracle())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    request=st.fixed_dictionaries(
        {"op": st.sampled_from(["extend", "reset", "info", "truncate"]) | _JSON},
        optional={"tokens": _JSON | st.lists(st.integers(-2, 9), max_size=4), "at": _JSON},
    )
)
def test_handle_request_answers_every_request(request):
    oracle = _oracle()
    line = _handle_request(_Connection(oracle), json.dumps(request).encode())
    reply = json.loads(line)
    assert isinstance(reply["ok"], bool)
    assert line == json.dumps(reply).encode() + b"\n"  # every reply line is json.dumps's
    if not reply["ok"]:
        assert isinstance(reply["error"], str)
        assert _probe(oracle) == UNCHANGED  # a refused request changes nothing
    elif request["op"] == "extend":
        assert all(0 <= p < 7 for p in reply["predictions"])


def test_a_failing_oracle_factory_is_blamed_on_the_server(monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
    corpus = [i % 7 for i in range(50)]
    builds = []

    def factory():
        builds.append(None)
        if len(builds) == 1:
            raise MemoryError("no room")
        return MarkovOracle(corpus, order=2, seed=5)

    server = OracleServer(factory)
    server.start_background()
    try:
        with pytest.raises(OracleError) as refused:
            ExternalOracle(server.address)
        assert type(refused.value) is OracleError  # not a transport error
        assert str(refused.value) == "server error: oracle factory failed: MemoryError: no room"
        # the one slot is released: the next connection is served
        deadline = time.monotonic() + 5
        while True:
            try:
                later = ExternalOracle(server.address)
                break
            except OracleError:
                assert time.monotonic() < deadline, "slot not freed after the factory failed"
                time.sleep(0.01)
        assert later.extend([1, 2, 3]) == MarkovOracle(corpus, order=2, seed=5).extend([1, 2, 3])
        later.close()
    finally:
        server.shutdown()


def test_a_server_that_never_served_shuts_down_and_closes_its_socket():
    server = OracleServer(lambda: MarkovOracle([i % 7 for i in range(50)], order=2, seed=5))
    listening = server._server.socket
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=5)  # a hang fails here instead of holding the suite
    assert not stopper.is_alive(), "shutdown blocked on a server that never served"
    assert listening.fileno() == -1


def test_a_client_reset_is_one_log_line_and_the_next_connection_is_served(caplog, capfd):
    server = OracleServer(lambda: MarkovOracle([i % 7 for i in range(50)], order=2, seed=5))
    server.start_background()
    host, port = server.address.rsplit(":", 1)
    try:
        with caplog.at_level(logging.INFO, logger="specdec.server"):
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                peer = "%s:%s" % sock.getsockname()[:2]
                sock.sendall(b'{"op": "info"}\n')
                assert json.loads(sock.makefile("rb").readline())["ok"]  # the handler is reading
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            deadline = time.monotonic() + 5
            while not any("dropped" in r.getMessage() for r in caplog.records):
                assert time.monotonic() < deadline, "the reset was not logged"
                time.sleep(0.01)
            assert raw_exchange(server.address, [b'{"op": "info"}'])[0]["ok"]
    finally:
        server.shutdown()
    named = [r.getMessage() for r in caplog.records if peer in r.getMessage()]
    assert len(named) == 2 and named[0] == f"connection from {peer}"
    assert named[1].startswith(f"connection from {peer} dropped: ")
    assert "Traceback" not in capfd.readouterr().err


def _answers(lines):
    """The reply to each line, and the probe of the oracle it leaves, from a
    fresh `_oracle()`."""
    answers = []
    for line in lines:
        oracle = _oracle()
        answers.append((_handle_request(_Connection(oracle), line), _probe(oracle)))
    return answers


_IDS = st.integers(0, 6) | st.integers(7, 10**30) | st.integers(-3, -1)
_AT = st.integers(-2, 5) | st.integers(10**17, 10**20) | _JSON


@settings(max_examples=300, deadline=None)
@given(
    request=st.fixed_dictionaries(
        {"op": st.sampled_from(["extend", "reset", "info"]) | _JSON},
        optional={"tokens": _JSON | st.lists(_IDS, max_size=5), "at": _AT},
    )
    | st.fixed_dictionaries(
        {"op": st.just("extend"), "tokens": st.lists(st.integers(0, 6), min_size=1, max_size=5)},
        optional={"at": st.integers(-2, 5)},
    )
    | st.fixed_dictionaries(
        {"op": st.just("extend"), "tokens": st.lists(_IDS, min_size=1, max_size=5)}, optional={"at": _AT}
    )
)
def test_canonical_and_compact_requests_are_answered_alike(request):
    # The canonical spelling is the one `ExternalOracle` writes, and the
    # server reads an extend in it without json; the compact one always
    # takes the json path.
    canonical = json.dumps(request).encode() + b"\n"
    compact = json.dumps(request, separators=(",", ":")).encode() + b"\n"
    first, second = _answers([canonical, compact])
    assert first == second


_SPELLED_ID = (
    st.integers(0, 6).map(str)
    | st.integers(0, 99).map(lambda i: f"0{i}")  # a leading zero, which JSON refuses
    | st.integers(10**18, 10**40).map(str)  # 19 or more digits
    | st.just("9" * 5000)  # more digits than int() converts
)


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.integers(0, 6).map(str), min_size=1, max_size=5) | st.lists(_SPELLED_ID, min_size=1, max_size=5),
    at=st.none() | st.integers(0, 5).map(str) | _SPELLED_ID,
)
def test_extend_ids_the_fast_pattern_refuses_take_the_json_path(ids, at):
    at_part = "" if at is None else ', "at": ' + at
    canonical = ('{"op": "extend", "tokens": [%s]%s}\n' % (", ".join(ids), at_part)).encode()
    compact = canonical.replace(b", ", b",").replace(b": ", b":")
    first, second = _answers([canonical, compact])
    if any(len(s) > 1 and s[0] == "0" for s in ids + [at or ""]):
        # json's message names a column, which differs between the spellings
        for reply, probe in (first, second):
            assert reply.startswith(b'{"ok": false, "error": "malformed json: ')
            assert probe == UNCHANGED
    else:
        assert first == second


class _ScriptedSocket:
    """Stands in for a connected socket: each line sent is answered with
    the next of `replies`."""

    def __init__(self, replies) -> None:
        self._replies = list(replies)
        self._unread = b""

    def sendall(self, line) -> None:
        self._unread += self._replies.pop(0)

    def recv(self, size) -> bytes:
        chunk, self._unread = self._unread[:size], self._unread[size:]
        return chunk

    def close(self) -> None:
        pass


def _extend_outcome(reply_line, batch):
    """What `ExternalOracle.extend` of `batch` tokens returns, or raises,
    when the server answers `reply_line`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(socket, "create_connection", lambda *_, **__: _ScriptedSocket([INFO_LINE, reply_line]))
        remote = ExternalOracle("scripted:1")
    try:
        return remote.extend([1] * batch)
    except OracleError as exc:
        return type(exc), str(exc)
    finally:
        remote.close()


@settings(max_examples=300, deadline=None)
@given(
    reply=st.fixed_dictionaries(
        {"ok": st.just(True) | _JSON},
        optional={"predictions": st.lists(st.integers(-2, 10**20), max_size=4) | _JSON, "error": _JSON},
    )
    | st.fixed_dictionaries({"ok": st.just(True), "predictions": st.lists(st.integers(0, 10**20), max_size=4)})
    | st.fixed_dictionaries({"ok": st.just(True), "predictions": st.lists(st.integers(0, 300), min_size=2, max_size=2)})
    | _JSON,
    batch=st.integers(1, 4) | st.just(2),
)
def test_canonical_and_compact_replies_read_alike(reply, batch):
    # The canonical spelling is the one the server writes, and the client
    # reads a prediction reply in it without json.
    canonical = json.dumps(reply).encode() + b"\n"
    compact = json.dumps(reply, separators=(",", ":")).encode() + b"\n"
    assert _extend_outcome(canonical, batch) == _extend_outcome(compact, batch)


@pytest.mark.parametrize("reply", [b'{"ok": true, "predictions": [01]}\n',
                                   b'{"ok": true, "predictions": [1, 02]}\n'])
def test_a_prediction_with_a_leading_zero_is_a_protocol_error(reply):
    kind, message = _extend_outcome(reply, len(reply.split(b",")))
    assert kind is OracleProtocolError and "unparseable" in message


def test_the_lines_each_end_writes_take_the_other_ends_fast_path(markov_server):
    # A formatting edit on either end that silently turned a fast path off
    # fails here.
    prefill = [t % 7 for t in range(600)]
    scripted = [(_EXTEND_REPLY % ", ".join(["1"] * n)).encode() for n in (600, 2, 1)]
    endpoint, requests, _ = one_connection_server([INFO_LINE, *scripted])
    remote = ExternalOracle(endpoint)
    remote.extend(prefill)
    remote.truncate_cache(598)
    remote.extend([3, 4])
    remote.truncate_cache(0)
    remote.extend([5])
    remote.close()
    sent = requests[1:]
    assert [bool(_EXTEND_REQUEST_RE.fullmatch(line)) for line in sent] == [True] * 3
    assert [_EXTEND_REQUEST_RE.fullmatch(line)[2] for line in sent] == [None, b"598", b"0"]
    # the server's replies to those very lines match the client's pattern
    server, _ = markov_server
    host, port = server.address.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock, sock.makefile("rb") as f:
        for line, batch in zip(sent, (600, 2, 1)):
            sock.sendall(line)
            reply = _EXTEND_REPLY_RE.fullmatch(f.readline())
            assert reply is not None and len(reply[1].split(b", ")) == batch


@pytest.mark.parametrize("at", ["4", "99", "true", "-1", "1.0"])
@pytest.mark.parametrize("separator", [", ", ","])
def test_an_at_out_of_range_is_refused_in_the_same_words_on_either_path(at, separator):
    line = ('{"op": "extend", "tokens": [4], "at": %s}\n' % at).replace(", ", separator).encode()
    [(reply, probe)] = _answers([line])
    value = json.loads(at)
    if type(value) is int:  # the oracle's own refusal
        error = f"ValueError: cannot truncate cache of 3 to {value}"
    else:  # the server's, before the oracle is touched
        error = f"'at' must be an int, got {value!r}"
    assert reply == json.dumps({"ok": False, "error": error}).encode() + b"\n"
    assert probe == UNCHANGED


def test_the_shipped_caps_bound_the_tokens_the_whole_server_holds():
    # README's bound: MAX_CONNECTIONS oracles, each filled to the shipped
    # MAX_CONSUMED_TOKENS with ids fresh from the wire, hold under 160 MiB
    cap = server_module.MAX_CONSUMED_TOKENS
    corpus = [i % 1999 for i in range(5000)]
    tracemalloc.start()
    try:
        conn = _Connection(MarkovOracle(corpus, order=2, seed=5))
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, cap, cap // 8):
            ids = ", ".join(str(300 + (start + i) % 1699) for i in range(cap // 8))
            reply = _handle_request(conn, b'{"op": "extend", "tokens": [%s]}' % ids.encode())
            assert reply.startswith(b'{"ok": true')
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    refusal = {"ok": False, "error": f"extend would hold {cap + 1} tokens, over the cap of {cap}"}
    assert _handle_request(conn, b'{"op": "extend", "tokens": [1]}') == json.dumps(refusal).encode() + b"\n"
    assert server_module.MAX_CONNECTIONS * held < 160 << 20


@pytest.mark.parametrize("separator", [", ", ","])  # the fast path, then the json path
def test_an_extend_past_the_token_cap_is_refused_and_changes_nothing(monkeypatch, separator):
    monkeypatch.setattr(server_module, "MAX_CONSUMED_TOKENS", 10)  # read when a connection opens
    corpus = [i % 7 for i in range(50)]
    server = OracleServer(lambda: MarkovOracle(corpus, order=16, seed=5))
    server.start_background()

    def extend(tokens, at=None):
        request = {"op": "extend", "tokens": tokens, **({} if at is None else {"at": at})}
        line = json.dumps(request, separators=(separator, separator.replace(",", ":"))).encode()
        assert bool(_EXTEND_REQUEST_RE.fullmatch(line)) is (separator == ", ")
        return line

    try:
        replies = raw_exchange(server.address, [
            extend([1, 2, 3, 4, 5, 6]),
            extend([1, 2, 3, 4, 5]),  # 11 tokens
            extend([0, 0, 0, 0]),  # 10, the cap: the refusal above changed nothing
            extend([0]),  # 11
            extend([1, 2, 3], at=8),  # 11 from an at, refused before the truncate
            extend([0], at=9),  # 10: the oracle still holds 10 tokens to truncate
            extend([1, 2, 3, 4, 5], at=4),  # 9: an at brings the count back under
            extend([0]),
            extend([0]),  # 11
        ])
    finally:
        server.shutdown()
    local = MarkovOracle(corpus, order=16, seed=5)
    expected = [local.extend([1, 2, 3, 4, 5, 6]), None, local.extend([0, 0, 0, 0]), None, None]
    local.truncate_cache(9)
    expected.append(local.extend([0]))
    local.truncate_cache(4)
    expected += [local.extend([1, 2, 3, 4, 5]), local.extend([0]), None]
    for reply, want in zip(replies, expected, strict=True):
        if want is None:
            assert reply == {"ok": False, "error": "extend would hold 11 tokens, over the cap of 10"}
        else:
            assert reply == {"ok": True, "predictions": want}
