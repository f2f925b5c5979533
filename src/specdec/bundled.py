"""Access to corpora and configs shipped inside the package."""

from __future__ import annotations

from importlib import resources

__all__ = ["bundled_names", "bundled_bytes", "resolve_corpus_ref"]

_PREFIX = "bundled:"


def _data_root():
    return resources.files("specdec") / "data"


def bundled_names() -> list[str]:
    return sorted(p.name for p in _data_root().iterdir() if p.name.endswith(".txt"))


def bundled_bytes(name: str) -> bytes:
    entry = _data_root() / name
    if not entry.is_file():
        raise FileNotFoundError(f"no bundled file {name!r}; available: {bundled_names()}")
    return entry.read_bytes()


def resolve_corpus_ref(ref: str) -> bytes:
    """Read corpus bytes from a `bundled:NAME` reference or a filesystem path."""
    from .tokenizer import read_corpus

    if ref.startswith(_PREFIX):
        return bundled_bytes(ref[len(_PREFIX):])
    return read_corpus(ref)
