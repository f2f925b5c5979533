"""Tokenization: byte-level, whitespace-run, and trained byte-pair vocabularies.

All encoders map byte strings to dense integer token ids. A `Vocab` lists
the 256 one-byte tokens first, in byte order, so byte b has id b in every
vocab and byte input encodes as its byte values. Byte and BPE encodings
round-trip losslessly; unknown words in whitespace mode fall back to byte
decomposition so encoding is total.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

__all__ = [
    "Vocab",
    "byte_vocab",
    "word_vocab",
    "train_bpe",
    "encode",
    "decode",
]

MODES = ("byte", "whitespace", "bpe")

# Maximal runs of whitespace / non-whitespace. Merges never cross a run
# boundary, so a subword encoding has at least one token per word.
_RUN_RE = re.compile(rb"\s+|\S+")

# The 256 one-byte token strings in byte order: the first 256 tokens of
# every vocab.
_BYTES = tuple(bytes((b,)) for b in range(256))


@dataclass(frozen=True)
class Vocab:
    """Ordered token table; ids are exactly [0, len(tokens)). The first 256
    tokens are the one-byte strings in byte order, so byte b has id b."""

    tokens: tuple[bytes, ...]
    eos: int | None = None

    def __post_init__(self) -> None:
        if tuple(self.tokens[:256]) != _BYTES:
            raise ValueError("a vocab must list the 256 one-byte tokens first, in byte order")
        index = dict(zip(self.tokens, range(len(self.tokens))))
        if len(index) != len(self.tokens):
            raise ValueError("duplicate token strings in vocab")
        # type(), not isinstance(): a bool is an int but no token id
        if self.eos is not None and type(self.eos) is not int:
            raise ValueError(f"eos must be an int or None, got {self.eos!r}")
        if self.eos is not None and not (0 <= self.eos < len(self.tokens)):
            raise ValueError(f"eos id {self.eos} out of range for vocab of size {len(self.tokens)}")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index_of(self, token: bytes) -> int | None:
        return self._index.get(token)  # type: ignore[attr-defined]


def byte_vocab() -> Vocab:
    """Identity byte vocabulary: id i decodes to byte i, plus an eos token."""
    return Vocab(tokens=_BYTES + (b"",), eos=256)


def word_vocab(corpus: bytes) -> Vocab:
    """Vocabulary for whitespace mode: all bytes, then each distinct run of
    the corpus (words and whitespace runs alike), then eos."""
    tokens: list[bytes] = list(_BYTES)
    seen = set(tokens)
    for run in _RUN_RE.findall(corpus):
        if run not in seen:
            seen.add(run)
            tokens.append(run)
    tokens.append(b"")
    return Vocab(tokens=tuple(tokens), eos=len(tokens) - 1)


def train_bpe(corpus: bytes, target_vocab_size: int) -> Vocab:
    """Greedy pair-merge training within whitespace-delimited runs.

    Repeatedly merges the most frequent adjacent token pair; ties break to
    the lexicographically smallest merged byte string. Stops early when no
    pair occurs twice. Resulting layout: 256 byte tokens, merged tokens in
    merge order, eos last.
    """
    if not corpus:
        raise ValueError("cannot train a BPE vocab on an empty corpus")
    if target_vocab_size < 257:
        raise ValueError("target_vocab_size must be >= 257 (256 byte tokens + eos)")

    tokens: list[bytes] = list(_BYTES)
    existing = set(tokens)
    # Each distinct run is segmented and merged once; its pairs count as
    # often as the run occurs. Counter keeps first-occurrence order.
    occurrences = Counter(_RUN_RE.findall(corpus))
    segments: list[list[bytes]] = [[bytes([b]) for b in run] for run in occurrences]
    weights = list(occurrences.values())

    # pair -> weighted count, and pair -> the segments that hold it
    counts: dict[tuple[bytes, bytes], int] = {}
    holders: dict[tuple[bytes, bytes], set[int]] = defaultdict(set)
    for i, (seg, weight) in enumerate(zip(segments, weights)):
        for pair in zip(seg, seg[1:]):
            counts[pair] = counts.get(pair, 0) + weight
            holders[pair].add(i)
    # (-count, merged, pair) for every pair counted more than once; an entry
    # whose count has changed since is stale and dropped when it surfaces,
    # so the top live entry is the most frequent pair, ties going to the
    # lexicographically smallest merged string.
    heap = [(-count, a + b, (a, b)) for (a, b), count in counts.items() if count > 1]
    heapq.heapify(heap)

    while len(tokens) + 1 < target_vocab_size:
        best: bytes | None = None
        while heap:
            neg, merged, pair = heap[0]
            if counts.get(pair) == -neg and merged not in existing:
                best = merged
                break
            heapq.heappop(heap)
        if best is None:
            break  # pairs occurring once are not worth a vocab slot
        tokens.append(best)
        existing.add(best)
        # `_merge_run` merges every split of `best`, so only the segments
        # holding one of its splits change; their pairs are recounted.
        touched = set().union(*(holders.get((best[:j], best[j:]), ()) for j in range(1, len(best))))
        changed = set()
        for i in touched:
            seg, weight = segments[i], weights[i]
            for pair in zip(seg, seg[1:]):
                counts[pair] -= weight
                holders[pair].discard(i)
                changed.add(pair)
            seg = segments[i] = _merge_run(seg, best)
            for pair in zip(seg, seg[1:]):
                counts[pair] = counts.get(pair, 0) + weight
                holders[pair].add(i)
                changed.add(pair)
        for pair in changed:
            count = counts[pair]
            if count > 1:
                heapq.heappush(heap, (-count, pair[0] + pair[1], pair))
            elif not count:
                del counts[pair], holders[pair]

    tokens.append(b"")
    return Vocab(tokens=tuple(tokens), eos=len(tokens) - 1)


def _merge_run(seg: list[bytes], merged: bytes) -> list[bytes]:
    out: list[bytes] = []
    i = 0
    while i < len(seg):
        if i + 1 < len(seg) and seg[i] + seg[i + 1] == merged:
            out.append(merged)
            i += 2
        else:
            out.append(seg[i])
            i += 1
    return out


def _encode_run_bpe(run: bytes, vocab: Vocab) -> list[int]:
    parts = [bytes([b]) for b in run]
    while len(parts) >= 2:
        # merge the adjacent pair whose concatenation has the smallest id,
        # i.e. the earliest-learned merge
        best_id: int | None = None
        for a, b in zip(parts, parts[1:]):
            mid = vocab.index_of(a + b)
            if mid is not None and (best_id is None or mid < best_id):
                best_id = mid
        if best_id is None:
            break
        parts = _merge_run(parts, vocab.tokens[best_id])
    return list(map(vocab.index_of, parts))


def encode(text: bytes | str, vocab: Vocab, mode: str = "byte") -> list[int]:
    """Encode a byte string to token ids. Total in every mode: a byte's id is
    its value, and unknown whitespace-mode words decompose to byte tokens."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    if mode not in MODES:
        raise ValueError(f"unknown tokenizer mode {mode!r}; expected one of {MODES}")
    if not text:
        return []
    if mode == "byte":
        return list(text)
    ids: list[int] = []
    # bpe: each distinct run is encoded once per call
    memo: dict[bytes, list[int]] = {}
    for run in _RUN_RE.findall(text):
        if mode == "whitespace":
            whole = vocab.index_of(run)
            if whole is not None:
                ids.append(whole)
            else:
                ids.extend(run)
        else:
            run_ids = memo.get(run)
            if run_ids is None:
                run_ids = memo[run] = _encode_run_bpe(run, vocab)
            ids.extend(run_ids)
    return ids


def decode(ids: list[int], vocab: Vocab) -> bytes:
    """Concatenate token strings. Raises on the first invalid id."""
    out = bytearray()
    for pos, token_id in enumerate(ids):
        if type(token_id) is not int or not (0 <= token_id < vocab.size):
            raise ValueError(f"invalid token id {token_id!r} at position {pos}")
        out += vocab.tokens[token_id]
    return bytes(out)
