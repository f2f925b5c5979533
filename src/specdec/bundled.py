"""Access to the corpora shipped inside the package."""

from __future__ import annotations

from functools import cache
from importlib import resources
from pathlib import Path

__all__ = ["bundled_names", "bundled_bytes", "resolve_corpus_ref"]

_PREFIX = "bundled:"
_DATA = resources.files("specdec") / "data"


@cache
def _names() -> tuple[str, ...]:
    return tuple(sorted(p.name for p in _DATA.iterdir() if p.name.endswith(".txt")))


def bundled_names() -> list[str]:
    return list(_names())


def bundled_bytes(name: str) -> bytes:
    # only a listed name: a path such as "../cli.py" names no shipped corpus
    if name not in _names():
        raise FileNotFoundError(f"no bundled file {name!r}; available: {bundled_names()}")
    return (_DATA / name).read_bytes()


def resolve_corpus_ref(ref: str) -> bytes:
    """Read corpus bytes from a `bundled:NAME` reference or a filesystem path:
    a file, or a directory whose files are concatenated in lexicographic
    filename order."""
    if ref.startswith(_PREFIX):
        return bundled_bytes(ref[len(_PREFIX):])
    p = Path(ref)
    if p.is_dir():
        return b"".join(f.read_bytes() for f in sorted(p.iterdir()) if f.is_file())
    return p.read_bytes()
