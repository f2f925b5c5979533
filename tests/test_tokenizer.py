import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.tokenizer import (
    MODES,
    Vocab,
    byte_vocab,
    decode,
    encode,
    train_bpe,
    word_vocab,
)

# The 256 one-byte tokens in byte order, with which every vocab begins.
_BYTE_TOKENS = tuple(bytes([b]) for b in range(256))


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


@given(st.lists(st.sampled_from("abcde fgh".split() + [" "]), min_size=1, max_size=60))
@settings(max_examples=60)
def test_bpe_ratio_property(words):
    corpus = " ".join(words).encode()
    if not corpus.strip():
        return
    v = train_bpe(corpus, 300)
    assert len(encode(corpus, v, "bpe")) >= len(corpus.split())  # merges never cross a word


def test_vocab_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate token strings"):
        Vocab(tokens=_BYTE_TOKENS + (b"ab", b"ab"))


def test_vocab_rejects_bad_eos():
    with pytest.raises(ValueError, match="out of range"):
        Vocab(tokens=_BYTE_TOKENS + (b"",), eos=257)


@pytest.mark.parametrize("tokens", [
    # the byte order with the last two bytes swapped
    _BYTE_TOKENS[:254] + (b"\xff", b"\xfe", b""),
    # every byte but "c"
    tuple(t for t in _BYTE_TOKENS if t != b"c") + (b"ab", b""),
    # fewer than 256 tokens, each in its byte's place
    _BYTE_TOKENS[:100],
], ids=["permuted", "gapped", "short"])
def test_vocab_refuses_a_table_that_does_not_start_with_the_256_bytes(tokens):
    with pytest.raises(ValueError, match="^a vocab must list the 256 one-byte tokens first, in byte order$"):
        Vocab(tokens=tokens)


def test_vocab_accepts_a_list_table_in_byte_order():
    vocab = Vocab(tokens=[*_BYTE_TOKENS, b"ab", b""], eos=257)
    assert encode(b"ab ab", vocab, "whitespace") == [256, 32, 256]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        encode(b"x", byte_vocab(), "wordpiece")


@pytest.mark.parametrize("eos", [True, False, 1.0, "1"])
def test_vocab_refuses_an_eos_that_is_not_an_int(eos):
    with pytest.raises(ValueError, match="eos must be an int or None"):
        Vocab(tokens=_BYTE_TOKENS + (b"",), eos=eos)


@pytest.mark.parametrize("ids, bad", [([True, False], "True at position 0"), ([97, False], "False at position 1")])
def test_decode_refuses_a_bool_id(ids, bad):
    with pytest.raises(ValueError, match=f"invalid token id {bad}"):
        decode(ids, byte_vocab())


# References: the per-byte, per-occurrence tokenizer that byte ids as byte
# values, the per-call run memo and run-weighted training must reproduce
# exactly.

_REF_RUN_RE = re.compile(rb"\s+|\S+")


def _ref_merge_run(seg, merged):
    out, i = [], 0
    while i < len(seg):
        if i + 1 < len(seg) and seg[i] + seg[i + 1] == merged:
            out.append(merged)
            i += 2
        else:
            out.append(seg[i])
            i += 1
    return out


def _ref_byte_ids(data, vocab):
    return [vocab.index_of(bytes([b])) for b in data]


def _ref_encode_run_bpe(run, vocab):
    parts = [bytes([b]) for b in run]
    while len(parts) >= 2:
        best_id = None
        for a, b in zip(parts, parts[1:]):
            mid = vocab.index_of(a + b)
            if mid is not None and (best_id is None or mid < best_id):
                best_id = mid
        if best_id is None:
            break
        parts = _ref_merge_run(parts, vocab.tokens[best_id])
    return [vocab.index_of(p) for p in parts]


def _ref_encode(data, vocab, mode):
    if mode == "byte":
        return _ref_byte_ids(data, vocab)
    ids = []
    for run in _REF_RUN_RE.findall(data):
        if mode == "whitespace":
            whole = vocab.index_of(run)
            ids.extend([whole] if whole is not None else _ref_byte_ids(run, vocab))
        else:
            ids.extend(_ref_encode_run_bpe(run, vocab))
    return ids


def _ref_train_bpe(corpus, target_vocab_size):
    tokens = [bytes([i]) for i in range(256)]
    existing = set(tokens)
    segments = [[bytes([b]) for b in run] for run in _REF_RUN_RE.findall(corpus)]
    while len(tokens) + 1 < target_vocab_size:
        counts = {}
        for seg in segments:
            for pair in zip(seg, seg[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        best, best_count = None, 1
        for (a, b), count in counts.items():
            merged = a + b
            if merged in existing:
                continue
            if count > best_count or (count == best_count and best is not None and merged < best):
                best, best_count = merged, count
        if best is None:
            break
        tokens.append(best)
        existing.add(best)
        segments = [_ref_merge_run(seg, best) if len(seg) >= 2 else seg for seg in segments]
    tokens.append(b"")
    return Vocab(tokens=tuple(tokens), eos=len(tokens) - 1)


# Repeated runs from a small alphabet, so that memoised runs and merges occur.
_PIECES = [b"ab", b"ba", b"abc", b"a", b"b", b"c", b" ", b"  ", b"\n", b"\x00", b"\xff", b"\xe9t"]
_runs_text = st.lists(st.sampled_from(_PIECES), max_size=80).map(b"".join)
# Words that recur as whole runs, so that training weights distinct runs.
_words_text = st.lists(st.sampled_from([b"ab", b"abc", b"ba", b"cab", b"b", b"\xe9t"]), max_size=60).map(b" ".join)
_any_bytes = st.one_of(st.binary(max_size=200), _runs_text, _words_text)
_BPE = train_bpe(b"ab abc abc ba ab\n\x00\xff ab c " * 4, 290)
_WORDS = word_vocab(b"ab abc  ba\n\xe9t ab")


@pytest.mark.parametrize("vocab", [byte_vocab(), _WORDS, _BPE], ids=["byte_vocab", "word_vocab", "bpe"])
@given(data=_any_bytes)
@settings(max_examples=80)
def test_encode_matches_reference(vocab, data):
    for mode in MODES:
        assert encode(data, vocab, mode) == _ref_encode(data, vocab, mode)


@given(corpus=_any_bytes.filter(bool), size=st.integers(257, 330))
@settings(max_examples=60)
def test_train_bpe_matches_reference(corpus, size):
    vocab = train_bpe(corpus, size)
    assert vocab == _ref_train_bpe(corpus, size)
    assert encode(corpus, vocab, "bpe") == _ref_encode(corpus, vocab, "bpe")


def test_no_table_or_memo_crosses_vocabs_or_calls():
    # Two BPE vocabs whose merges differ run by run, and a word vocab, over
    # the same inputs in alternation: each encode must match its own
    # reference, whatever was encoded just before.
    other_bpe = train_bpe(b"ba bac bac cab ba " * 4, 280)
    inputs = [b"ab abc ab", b"abc abc\nab", b"", b"cab ba c", b"\xe9t ab ab"] * 3
    for data in inputs:
        for vocab in (byte_vocab(), _BPE, other_bpe, _WORDS):
            for mode in MODES:
                assert encode(data, vocab, mode) == _ref_encode(data, vocab, mode)


@pytest.mark.parametrize("vocab", [byte_vocab(), _WORDS], ids=["identity", "word_vocab"])
def test_each_encode_returns_its_own_list(vocab):
    first, second = encode(b"abc", vocab, "byte"), encode(b"abc", vocab, "byte")
    assert first == second and first is not second
