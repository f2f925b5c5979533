import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.tokenizer import (
    Vocab,
    byte_vocab,
    corpus_stats,
    decode,
    encode,
    load_vocab,
    read_corpus,
    save_vocab,
    train_bpe,
    word_vocab,
)


def test_encode_empty_is_empty():
    assert encode(b"", byte_vocab(), "byte") == []


def test_byte_mode_is_identity():
    assert encode(b"ab", byte_vocab(), "byte") == [97, 98]


def test_decode_empty():
    assert decode([], byte_vocab()) == b""


def test_decode_bytes():
    assert decode([97, 98], byte_vocab()) == b"ab"


def test_decode_invalid_id_names_position():
    with pytest.raises(ValueError, match="position 1"):
        decode([97, 9999], byte_vocab())


@given(st.binary(max_size=400))
@settings(max_examples=150)
def test_byte_round_trip(data):
    v = byte_vocab()
    assert decode(encode(data, v, "byte"), v) == data


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
@settings(max_examples=100)
def test_bpe_round_trip_ascii(text):
    data = text.encode()
    v = train_bpe(b"the quick brown fox jumps over the lazy dog " * 8, 300)
    assert decode(encode(data, v, "bpe"), v) == data


@given(st.binary(min_size=1, max_size=300), st.integers(258, 400))
@settings(max_examples=50)
def test_bpe_round_trip_on_own_corpus(data, size):
    v = train_bpe(data, size)
    assert decode(encode(data, v, "bpe"), v) == data


def test_train_bpe_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_bpe(b"", 300)


def test_train_bpe_target_too_small_rejected():
    with pytest.raises(ValueError):
        train_bpe(b"abc", 256)


def test_train_bpe_no_merge_budget():
    v = train_bpe(b"aaaa", 257)
    assert v.size == 257
    assert v.eos == 256
    assert v.tokens[256] == b""
    assert all(len(t) == 1 for t in v.tokens[:256])


def test_train_bpe_merges_most_frequent_pair():
    # pair (a,a) occurs 3 times in "aaaa", so "aa" is the first merge
    v = train_bpe(b"aaaa", 258)
    assert b"aa" in v.tokens


def test_train_bpe_pair_count_beats_reverse():
    # (a,b) occurs twice in "abab", (b,a) once
    v = train_bpe(b"abab", 258)
    assert b"ab" in v.tokens
    assert b"ba" not in v.tokens


def test_train_bpe_deterministic():
    corpus = b"banana bandana cabana " * 20
    a = train_bpe(corpus, 280)
    b = train_bpe(corpus, 280)
    assert a.tokens == b.tokens


def test_bpe_unseen_word_splits_into_subwords():
    corpus = (b"the spanish city by the bay has a stadium and a river walk " * 12)
    v = train_bpe(corpus, 320)
    assert v.index_of(b"Bilbao") is None
    ids = encode(b"Bilbao", v, "bpe")
    assert len(ids) >= 2
    assert b"".join(v.tokens[i] for i in ids) == b"Bilbao"


def test_bpe_merges_never_cross_whitespace():
    v = train_bpe(b"x y " * 100, 400)
    for tok in v.tokens[256:-1]:
        assert not (tok.strip() != tok and tok.strip()), f"token {tok!r} mixes word and space"


def test_whitespace_mode_known_and_unknown_words():
    corpus = b"alpha beta gamma alpha"
    v = word_vocab(corpus)
    ids = encode(b"alpha beta", v, "whitespace")
    assert len(ids) == 3  # word, space, word
    assert decode(ids, v) == b"alpha beta"
    # unknown word decomposes to bytes, decode still exact
    ids2 = encode(b"alpha delta", v, "whitespace")
    assert decode(ids2, v) == b"alpha delta"
    assert len(ids2) == 2 + len(b"delta")


def test_corpus_stats_byte_mode():
    st_ = corpus_stats(b"hello world", byte_vocab(), "byte")
    assert st_.word_count == 2
    assert st_.token_count == 11
    assert st_.ratio == 11 / 2


def test_corpus_stats_empty_convention():
    st_ = corpus_stats(b"", byte_vocab(), "byte")
    assert (st_.word_count, st_.token_count, st_.ratio) == (0, 0, 1.0)


def test_corpus_stats_bpe_ratio_at_least_one():
    corpus = (b"pack my box with five dozen liquor jugs " * 30)[:1024]
    v = train_bpe(corpus, 320)
    st_ = corpus_stats(corpus, v, "bpe")
    # independent recount: words by split, tokens by re-encoding
    assert st_.word_count == len(corpus.split())
    assert st_.token_count == len(encode(corpus, v, "bpe"))
    assert st_.ratio >= 1.0


@given(st.lists(st.sampled_from("abcde fgh".split() + [" "]), min_size=1, max_size=60))
@settings(max_examples=60)
def test_bpe_ratio_property(words):
    corpus = " ".join(words).encode()
    if not corpus.strip():
        return
    v = train_bpe(corpus, 300)
    assert corpus_stats(corpus, v, "bpe").ratio >= 1.0


def test_vocab_json_round_trip(tmp_path):
    v = train_bpe(b"roundtrip roundtrip roundtrip", 270)
    path = tmp_path / "vocab.json"
    save_vocab(v, path)
    loaded = load_vocab(path)
    assert loaded.tokens == v.tokens
    assert loaded.eos == v.eos
    payload = json.loads(path.read_text())
    assert set(payload) == {"tokens", "eos"}


@pytest.mark.parametrize("payload, match", [
    ({"tokens": 5}, "tokens must be a list of base64 strings"),
    ({"tokens": "AA=="}, "tokens must be a list of base64 strings"),
    ({"tokens": ["AA==", 7]}, "tokens must be a list of base64 strings"),
    ({"tokens": ["AA==", None]}, "tokens must be a list of base64 strings"),
    ({"tokens": ["A?=="]}, "base64"),
    ({"tokens": ["AA=="], "eos": "x"}, "eos must be an integer or null"),
    ({"tokens": ["AA=="], "eos": True}, "eos must be an integer or null"),
    ({"tokens": ["AA=="], "eos": 0.0}, "eos must be an integer or null"),
    ({"tokens": ["AA=="], "eos": 1}, "out of range"),
])
def test_load_vocab_refuses_a_malformed_file(tmp_path, payload, match):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_vocab(path)


def test_load_vocab_reads_a_file_without_eos(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"tokens": ["AA==", "AQ=="]}))
    assert load_vocab(path) == Vocab(tokens=(b"\x00", b"\x01"), eos=None)


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        from specdec.tokenizer import Vocab

        Vocab(tokens=(b"a", b"a"))


def test_vocab_rejects_bad_eos():
    from specdec.tokenizer import Vocab

    with pytest.raises(ValueError):
        Vocab(tokens=(b"a", b"b"), eos=5)


def test_read_corpus_directory_lexicographic(tmp_path):
    (tmp_path / "b.txt").write_bytes(b"second")
    (tmp_path / "a.txt").write_bytes(b"first")
    assert read_corpus(tmp_path) == b"firstsecond"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        encode(b"x", byte_vocab(), "wordpiece")
