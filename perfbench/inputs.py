"""Seeded workload inputs.

Every input the benchmark feeds the program is drawn here from the run's
seed: the same seed gives the same bytes and prompts, another seed gives
others. The program under test only ever sees the resulting tokens.
"""

from __future__ import annotations

import random

CORPORA = ("patterned_code.txt", "repetitive.txt", "shuffled.txt")
MIXED_SCRIPT_BYTES = 85_000


def _lines(corpus: bytes) -> list[bytes]:
    return [line if line.endswith(b"\n") else line + b"\n"
            for line in corpus.splitlines(keepends=True)]


def mixed_script(corpora: dict[str, bytes], seed: int, size: int = MIXED_SCRIPT_BYTES) -> bytes:
    """Lines drawn with replacement from every corpus until `size` bytes."""
    pool = [line for name in sorted(corpora) for line in _lines(corpora[name])]
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < size:
        out += rng.choice(pool)
    return bytes(out)


def shuffled_script(corpus: bytes, seed: int) -> bytes:
    """The corpus with its lines in a seeded order."""
    lines = _lines(corpus)
    random.Random(seed).shuffle(lines)
    return b"".join(lines)

