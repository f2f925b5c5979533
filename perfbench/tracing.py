"""In-memory span tracer for the benchmark's traced run.

A span has a name, a start, an end (perf_counter ns) and the index of the
span that was open when it started. Spans are recorded by wrapping the
public entry points of each specdec module from the outside (nothing
inside the package changes) and by a `gc.callbacks` hook, whose pauses
become child spans named "gc" of whatever span was open.

The benchmark opens one root span per unit of work. When a root closes,
its spans are folded into per-name totals and the arrays are cleared, so
memory stays bounded; the raw spans of the first two roots are kept and
written out at the end. A span's self time is its duration minus the
parts of it that its child spans (gc included) cover.
"""

from __future__ import annotations

import gc
from array import array
from collections import defaultdict
from time import perf_counter_ns


class Agg:
    __slots__ = ("count", "total_ns", "self_ns", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations: array | None = None


def self_times(starts, ends, parents, gc_spans=()) -> list[int]:
    """Self time of each span: duration minus what its children cover.

    `gc_spans` are extra (start, end, parent) children. Children are
    clipped to their parent; in one thread they never overlap each other.
    """
    covered = [0] * len(starts)
    children = [(s, e, p) for s, e, p in zip(starts, ends, parents)]
    for s, e, p in [*children, *gc_spans]:
        if p >= 0:
            lo, hi = max(s, starts[p]), min(e, ends[p])
            if hi > lo:
                covered[p] += hi - lo
    return [e - s - c for s, e, c in zip(starts, ends, covered)]


class Tracer:
    COLUMNS = ("name", "start", "end", "parent", "gc_start", "gc_end", "gc_parent", "gc_gen")

    def __init__(self, sample: tuple[str, ...] = ()) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = [-1]
        self.gc_start = array("q")
        self.gc_end = array("q")
        self.gc_parent = array("q")
        self.gc_gen = array("q")
        self._gc_open: tuple[int, int, int] | None = None
        self.ignore_gc = False  # set while the benchmark itself collects
        self._sample = set(sample)
        self.kept: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """`fn` recorded as a span named `name` on every call."""
        nid = self.name_id(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.ignore_gc:
            return
        if phase == "start":
            self._gc_open = (perf_counter_ns(), self.stack[-1], info["generation"])
        elif self._gc_open is not None:
            t0, parent, gen = self._gc_open
            self._gc_open = None
            if parent >= 0:
                self.gc_start.append(t0)
                self.gc_end.append(perf_counter_ns())
                self.gc_parent.append(parent)
                self.gc_gen.append(gen)

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- folding -----------------------------------------------------------

    def fold(self, into: dict[str, Agg], gc_into: dict[str, list]) -> None:
        """Add the recorded spans to `into` (per name) and the gc pauses to
        `gc_into`, then clear the arrays. Call only with no span open."""
        if self.stack != [-1]:
            raise RuntimeError("fold called with spans still open")
        gcs = list(zip(self.gc_start, self.gc_end, self.gc_parent))
        selfs = self_times(self.start, self.end, self.parent, gcs)
        for nid, s, e, own in zip(self.name, self.start, self.end, selfs):
            name = self.names[nid]
            agg = into.get(name)
            if agg is None:
                agg = into[name] = Agg()
            agg.count += 1
            agg.total_ns += e - s
            agg.self_ns += own
            if name in self._sample:
                if agg.durations is None:
                    agg.durations = array("q")
                agg.durations.append(e - s)
        for (s, e, _), gen in zip(gcs, self.gc_gen):
            gc_into[f"gen{gen}"].append(e - s)
        if len(self.kept) < 2:
            self.kept.append({key: array("q", getattr(self, key)) for key in self.COLUMNS})
        for key in self.COLUMNS:
            del getattr(self, key)[:]


class Patches:
    """Attribute replacements that `undo` restores in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                            else getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Record spans around the public entry points of every specdec module."""
    from specdec import bundled, decoding, metrics, ngram, oracle, tokenizer
    from oracles import CountingOracle, TruncatingCountingOracle

    def fn(module, attr, name):
        patches.set(module, attr, tracer.wrap(name, getattr(module, attr)))

    def method(cls, attr, name):
        patches.set(cls, attr, tracer.wrap(name, cls.__dict__[attr]))

    method(ngram.NgramStore, "__init__", "ngram.init")
    method(ngram.NgramStore, "update", "ngram.update")
    query = tracer.wrap("ngram.query", ngram.NgramStore.query_multilevel)
    counters = tracer.counters

    def counted_query(self, context_tail, *, min_level=2):
        hit = query(self, context_tail, min_level=min_level)
        counters["ngram.query_hits"] += hit is not None
        return hit

    patches.set(ngram.NgramStore, "query_multilevel", counted_query)

    fn(decoding, "speculative_decode", "decoding.speculative")
    fn(decoding, "baseline_decode", "decoding.baseline")
    fn(decoding, "build_draft", "decoding.draft")
    fn(decoding, "verify_step", "decoding.verify")
    fn(decoding, "_align_oracle", "decoding.rollback")

    for cls in (oracle.ReplayOracle, oracle.ExternalOracle):
        method(cls, "__init__", "oracle.build")
    method(oracle.ExternalOracle, "close", "oracle.close")
    method(CountingOracle, "extend", "oracle.extend")
    method(CountingOracle, "reset", "oracle.reset")
    method(TruncatingCountingOracle, "truncate_cache", "oracle.truncate")

    fn(metrics, "compute_metrics", "metrics.compute_metrics")
    fn(tokenizer, "encode", "tokenizer.encode")
    fn(bundled, "bundled_bytes", "bundled.read")
