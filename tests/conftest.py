"""Shared test helpers: independent brute-force oracles kept deliberately
separate from the implementations they check."""

from __future__ import annotations

import random

import pytest


def brute_force_window_counts(seq: list[int], n: int) -> dict[tuple[tuple[int, ...], int], int]:
    """Count every length-n window of seq as (context, next) the slow way."""
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    for i in range(len(seq) - n + 1):
        key = (tuple(seq[i : i + n - 1]), seq[i + n - 1])
        counts[key] = counts.get(key, 0) + 1
    return counts


def greedy_markov_continuation(corpus: list[int], order: int, seed: int,
                               prefix: list[int], steps: int) -> list[int]:
    """Reference next-token iteration over a plain count table; mirrors the
    documented Markov oracle behavior without using its code."""
    import hashlib

    table: dict[tuple[int, ...], dict[int, int]] = {}
    for i in range(len(corpus) - order):
        ctx = tuple(corpus[i : i + order])
        row = table.setdefault(ctx, {})
        row[corpus[i + order]] = row.get(corpus[i + order], 0) + 1
    vocab_size = max(corpus) + 1
    out: list[int] = []
    consumed = list(prefix)
    for _ in range(steps):
        ctx = tuple(consumed[-order:])
        row = table.get(ctx)
        if row:
            best = max(row.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        else:
            digest = hashlib.blake2b(
                b",".join(b"%d" % t for t in ctx), digest_size=8, key=str(seed).encode()
            ).digest()
            best = int.from_bytes(digest, "big") % vocab_size
        out.append(best)
        consumed.append(best)
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
