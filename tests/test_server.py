import contextlib
import gc
import json
import socket
import threading
import time
import warnings

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
from specdec.server import MAX_LINE_BYTES, OracleServer, _handle_request
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
    assert remote.consumed_len == 0
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
        [b'{"op":"frobnicate"}', b'{"op":"extend","tokens":[]}', b'{"op":"extend","tokens":"x"}'],
    )
    assert all(r["ok"] is False for r in replies)


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
    assert remote.consumed_len == 0
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
        remote._request({"op": "extend", "tokens": [-1]})
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
    assert remote.consumed_len == 1
    local.truncate_cache(1)
    assert remote.extend([6, 0]) == local.extend([6, 0])
    remote.truncate_cache(0)
    remote.reset()  # a reset drops the pending position
    assert remote.extend([2]) == MarkovOracle(corpus, order=2, seed=5).extend([2])
    remote.close()


class _CountingOracle:
    """Counts the extend and reset requests a served oracle receives."""

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
        assert over_tcp.prefill_sim_time == in_process.prefill_sim_time
        rollbacks = sum(1 for s in in_process.steps if s.accepted_count < len(s.drafted))
        assert rollbacks > 0
        # one request per model call: rollbacks ride on the next extend
        assert counts == {"extend": in_process.totals.llm_calls, "reset": 1}


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
    try:
        for op, arg in script:
            if op == "extend":
                assert remote.extend(arg) == local.extend(arg)
            elif op == "reset":
                remote.reset()
                local.reset()
            else:
                # one past the end is out of range for both
                length = arg % (local.consumed_len + 2)
                if length > local.consumed_len:
                    with pytest.raises(ValueError):
                        remote.truncate_cache(length)
                else:
                    remote.truncate_cache(length)
                    local.truncate_cache(length)
            assert remote.consumed_len == local.consumed_len
    finally:
        remote.close()


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
    corpus = [i % 7 for i in range(50)]
    oracle = MarkovOracle(corpus, order=2, seed=5)
    oracle.extend([1, 2, 3])
    line = _handle_request(oracle, json.dumps(request).encode(), 7, oracle.truncate_cache)
    reply = json.loads(line)
    assert isinstance(reply["ok"], bool)
    assert line == json.dumps(reply).encode() + b"\n"  # every reply line is json.dumps's
    if not reply["ok"]:
        assert isinstance(reply["error"], str)
        assert oracle.consumed_len == 3  # a refused request changes nothing
    elif request["op"] == "extend":
        assert all(0 <= p < 7 for p in reply["predictions"])
