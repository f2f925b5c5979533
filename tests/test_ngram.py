import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.decoding import build_draft
from specdec.ngram import NgramStore
from specdec.oracle import CostModel

from conftest import brute_force_window_counts


def _counts(store, n):
    """Order n of `snapshot()` as {(context, next): count}."""
    level = next(l for l in store.snapshot()["levels"] if l["n"] == n)
    return {(tuple(e["context"]), e["next"]): e["count"] for e in level["entries"]}


def _first(store, tail, *, min_level=2):
    """The first drafted (token, level), or None."""
    tokens, levels, _ = store.draft(tail, 1, min_level=min_level)
    return (tokens[0], levels[0]) if tokens else None


def test_initialize_bigram_counts():
    s = NgramStore([1, 2, 1, 2, 1], 2)
    assert _counts(s, 2) == {((1,), 2): 2, ((2,), 1): 2}


def test_initialize_too_short_leaves_tables_empty():
    s = NgramStore([7], 3)
    assert s.snapshot()["levels"] == [{"n": 2, "entries": []}, {"n": 3, "entries": []}]


def test_initialize_trigram_single_window():
    s = NgramStore([1, 2, 3], 3)
    assert _counts(s, 3) == {((1, 2), 3): 1}


def test_initialize_rejects_low_order():
    with pytest.raises(ValueError):
        NgramStore([1, 2], 1)


def test_update_adds_one_window_per_level():
    s = NgramStore([1, 2], 2)
    s.update(3)
    assert _counts(s, 2) == {((1,), 2): 1, ((2,), 3): 1}
    assert s.committed == [1, 2, 3]


def test_update_on_empty_store_counts_nothing():
    s = NgramStore([], 2)
    s.update(5)
    assert s.committed == [5]
    assert s.snapshot()["levels"][0]["entries"] == []


def test_query_returns_count_argmax():
    s = NgramStore([1, 2, 1, 3, 1, 2], 2)
    assert _first(s, [1]) == (2, 2)  # count 2 beats count 1


def test_query_empty_store_absent():
    s = NgramStore([], 2)
    assert s.draft([1], 3) == ([], [], 0)


def test_query_tie_broken_by_recency():
    s = NgramStore([1, 2, 1, 3], 2)
    assert _first(s, [1]) == (3, 2)  # both count 1, (1)->3 reinforced later


def test_query_only_uses_context_tail():
    s = NgramStore([5, 1, 2], 3)
    assert _first(s, [9, 9, 9, 1]) == (2, 2)


def test_query_multilevel_prefers_highest_order():
    s = NgramStore([1, 2, 3, 1, 2, 3], 3)
    assert _first(s, [1, 2]) == (3, 3)


def test_query_multilevel_all_levels_miss():
    s = NgramStore([1, 2, 3, 1, 2, 3], 3)
    assert s.draft([9, 9], 2) == ([], [], 0)


def test_query_multilevel_falls_back_to_bigram():
    s = NgramStore([1, 2], 3)
    assert _first(s, [5, 1]) == (2, 2)


def test_query_multilevel_short_context_skips_high_orders():
    s = NgramStore([1, 2, 3, 1, 2, 3], 4)
    assert _first(s, [2]) == (3, 2)


def test_query_multilevel_min_level_restricts_fallback():
    s = NgramStore([1, 2], 3)
    assert _first(s, [5, 1], min_level=3) is None


def test_count_of_examples():
    s = NgramStore([1, 1, 1], 2)
    assert _counts(s, 2) == {((1,), 1): 2}


def test_counts_match_brute_force_after_updates(rng):
    for _ in range(30):
        n_max = rng.randint(2, 5)
        init = [rng.randrange(8) for _ in range(rng.randint(0, 60))]
        s = NgramStore(init, n_max)
        for _ in range(rng.randint(0, 60)):
            s.update(rng.randrange(8))
        for n in range(2, n_max + 1):
            # every window counted right, and nothing extra stored
            assert _counts(s, n) == brute_force_window_counts(s.committed, n)


@given(
    st.lists(st.integers(0, 15), max_size=200),
    st.lists(st.integers(0, 15), max_size=100),
    st.integers(2, 5),
)
@settings(max_examples=60, deadline=None)
def test_count_equivalence_property(init, updates, n_max):
    s = NgramStore(init, n_max)
    for tok in updates:
        s.update(tok)
    for n in range(2, n_max + 1):
        assert _counts(s, n) == brute_force_window_counts(s.committed, n)


@given(st.lists(st.integers(0, 7), min_size=2, max_size=120), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_query_soundness_property(seq, n_max):
    s = NgramStore(seq, n_max)
    for n in range(2, n_max + 1):
        if len(seq) < n:
            continue
        ctx = tuple(seq[-(n - 1):])
        hit = _first(s, ctx, min_level=n)
        if hit is None:
            continue
        assert hit[1] == n
        counts = _counts(s, n)
        for other in range(8):
            assert counts[ctx, hit[0]] >= counts.get((ctx, other), 0)


@given(st.lists(st.integers(0, 7), min_size=3, max_size=120), st.integers(3, 5))
@settings(max_examples=60, deadline=None)
def test_multilevel_dominance_property(seq, n_max):
    s = NgramStore(seq, n_max)
    tail = seq[-(n_max - 1):]
    hit = _first(s, tail)
    if hit is None:
        return
    for n in range(hit[1] + 1, n_max + 1):
        if len(tail) >= n - 1:
            assert _first(s, tail[len(tail) - (n - 1):], min_level=n) is None


def test_determinism_identical_call_sequences():
    ops = [("u", 3), ("u", 1), ("u", 3), ("u", 2)]
    a = NgramStore([1, 2, 3, 1], 3)
    b = NgramStore([1, 2, 3, 1], 3)
    for _, tok in ops:
        a.update(tok)
        b.update(tok)
    assert a.snapshot() == b.snapshot()
    assert a.draft([3, 1], 4) == b.draft([3, 1], 4)


def test_snapshot_entry_ordering():
    s = NgramStore([3, 1, 3, 2, 3, 1], 2)
    entries = s.snapshot()["levels"][0]["entries"]
    keys = [(tuple(e["context"]), e["next"]) for e in entries]
    assert keys == sorted(keys)


def test_snapshot_is_json_serializable():
    s = NgramStore([1, 2, 3, 4], 3)
    json.dumps(s.snapshot())


# ------------------------------------------- differential against a reference


def _reference_rows(counted, n):
    """Order n windows of `counted` recounted the slow way:
    context -> {next: (count, position of its last occurrence)}."""
    rows = {}
    for i in range(n - 1, len(counted)):
        row = rows.setdefault(tuple(counted[i - n + 1 : i]), {})
        count, _ = row.get(counted[i], (0, -1))
        row[counted[i]] = (count + 1, i)
    return rows


def _reference_argmax(row):
    # (count, last position); positions within a row are distinct
    return max(row, key=row.get)


def _reference_snapshot(ref, n_max):
    """`snapshot()` built from the reference rows of every order."""
    levels = []
    for n in range(2, n_max + 1):
        rows = ref[n]
        entries = [
            {"context": list(ctx), "next": nxt, "count": count}
            for ctx in sorted(rows)
            for nxt, (count, _) in sorted(rows[ctx].items())
        ]
        levels.append({"n": n, "entries": entries})
    return {"n_max": n_max, "levels": levels}


def _chained_draft(ref, n_max, tail, k, min_level):
    """The draft as a chain of reference lookups: each token is the argmax
    at the highest order n >= min_level whose context ends the working tail."""
    working = list(tail)
    draft, levels = [], []
    for _ in range(k):
        for n in range(min(n_max, len(working) + 1), min_level - 1, -1):
            row = ref[n].get(tuple(working[len(working) - (n - 1) :]))
            if row:
                break
        else:
            break
        draft.append(_reference_argmax(row))
        levels.append(n)
        working.append(draft[-1])
    return draft, levels


@st.composite
def store_scripts(draw):
    n_max = draw(st.integers(2, 6))
    tok = st.integers(0, draw(st.integers(0, 5)))
    # a probe looks at the last `length` tokens of committed + extra
    probe = st.tuples(st.just("probe"), st.lists(tok, max_size=3), st.integers(0, n_max + 1),
                      st.integers(1, 8), st.integers(2, n_max + 1))
    batch = st.lists(tok, min_size=1, max_size=4)  # one update(*tokens) call
    ops = st.lists(st.one_of(st.tuples(st.just("update"), batch), probe), max_size=40)
    return n_max, draw(st.lists(tok, max_size=40)), draw(ops)


@given(store_scripts())
@settings(max_examples=150, deadline=None)
def test_store_matches_reference_differential(script):
    n_max, init, ops = script
    store = NgramStore(init, n_max)
    committed = list(init)
    for op in ops:
        if op[0] == "update":
            store.update(*op[1])
            committed.extend(op[1])
            continue
        _, extra, length, k, min_level = op
        tail = (committed + extra)[max(0, len(committed) + len(extra) - length) :]
        ref = {n: _reference_rows(committed, n) for n in range(2, n_max + 1)}
        assert store.snapshot() == _reference_snapshot(ref, n_max)
        expected_hit = None
        for n in range(n_max, 1, -1):
            if len(tail) < n - 1:
                continue
            # a tail of exactly n-1 tokens can neither fall back nor reach a higher order
            ctx = tuple(tail[len(tail) - (n - 1) :])
            row = ref[n].get(ctx)
            hit = (_reference_argmax(row), n) if row else None
            assert _first(store, ctx, min_level=n) == hit
            if expected_hit is None and n >= min_level:
                expected_hit = hit
        assert _first(store, tail, min_level=min_level) == expected_hit
        assert store.query_multilevel(tail, min_level=min_level) == expected_hit
        for fixed in (False, True):
            draft, levels, paid = build_draft(store, tail, k, fixed_level_only=fixed)
            assert (draft, levels) == _chained_draft(ref, n_max, tail, k, n_max if fixed else 2)
            assert paid == len(draft)  # without counts every token pays
    assert store.committed == committed
    ref = {n: _reference_rows(committed, n) for n in range(2, n_max + 1)}
    assert store.snapshot() == _reference_snapshot(ref, n_max)
    # Every counted window, and only those, has one id, and its path holds the
    # rows of its suffixes, longest first: the rows themselves, not copies.
    windows = {tuple(committed[max(0, i - n_max + 1) : i]) for i in range(len(committed))}
    assert set(store._ids) == windows
    assert sorted(store._ids.values()) == list(range(len(store._paths)))
    assert len(store._succ) == len(store._paths)
    for window, i in store._ids.items():
        path = store._paths[i]
        assert len(path) == len(window)
        assert all(row is store._rows[window[j:]] for j, row in enumerate(path))
        if len(window) < n_max - 1:
            assert store._succ[i] is None  # a stream-start window's row is shared
    _assert_successors(store)
    tail = tuple(committed[-(n_max - 1) :])
    assert store._tail == store._ids.get(tail, tail)
    # Rows hold only ints and None, so the collector never traverses them,
    # and a collection untracks every int-tuple key and successor. A path
    # tuple holds dicts, so CPython keeps it tracked: one tracked object per
    # counted window. A young collection is enough: any older tuple was
    # untracked when it was promoted.
    gc.collect(0)
    assert not any(gc.is_tracked(row) for row in store._rows.values())
    assert not any(gc.is_tracked(step) for step in store._succ if step is not None)
    assert not any(gc.is_tracked(key) for key in (*store._rows, *store._ids))


def _assert_successors(store):
    """Every successor a store holds is its full-width window's own-row
    argmax and the id of the window that token leads to."""
    width = store.n_max - 1
    by_id = {i: window for window, i in store._ids.items()}
    for i, step in enumerate(store._succ):
        if step is not None:
            window = by_id[i]
            assert len(window) == width
            top = store._rows[window][None]
            assert step == (top, store._ids[(window + (top,))[-width:]])


def test_successor_is_cleared_when_its_argmax_flips():
    s = NgramStore([1, 2, 1], 2)
    one, two = s._ids[(1,)], s._ids[(2,)]
    assert s._succ[one] is None  # (2) was not counted when (1) was
    assert s._succ[two] == (1, one)  # (1) was
    assert s.draft([1], 2) == ([2, 1], [2, 2], 2)  # resolves (1) -> 2
    assert s._succ[one] == (2, two)
    s.update(3)  # (1) -> 3 ties (1) -> 2 and, reinforced later, wins
    assert s._rows[(1,)][None] == 3
    assert s._succ[one] is None  # cleared, and (3) is not counted yet
    s.update(1)
    assert s.draft([1], 3) == ([3, 1, 3], [2, 2, 2], 3)
    assert s._succ[one] == (3, s._ids[(3,)])
    _assert_successors(s)


# ------------------------------------ the cached walk against the plain walk


class _RefStore:
    """The store as it was before windows had ids: every commit and every
    drafted token builds its context tuple and looks it up."""

    def __init__(self, token_ids, n_max):
        self.n_max = n_max
        self.committed, self._rows, self._paths = [], {}, {}
        self.update(*token_ids)

    def update(self, *tokens):
        seq, rows, paths = self.committed, self._rows, self._paths
        width = 1 - self.n_max
        for nxt in tokens:
            window = tuple(seq[width:])
            seq.append(nxt)
            path = paths.get(window)
            if path is None:
                path = paths[window] = tuple(
                    rows.setdefault(window[i:], {None: nxt}) for i in range(len(window)))
            for row in path:
                count = row[nxt] = row.get(nxt, 0) + 1
                top = row[None]
                if top != nxt and count >= row[top]:
                    row[None] = nxt

    def draft(self, tail, k, *, min_level=2, counts=None, cost_model=None):
        rows, width = self._rows, self.n_max - 1
        ctx = tuple(tail[-width:])
        tokens, levels = [], []
        vp = counts and cost_model.verify_per_token
        if vp:
            hits, reached = counts
            vb = cost_model.verify_base
            expected = cum = 1.0
        for j in range(k):
            m = len(ctx)
            row = rows.get(ctx)
            while row is None and m >= min_level:
                m -= 1
                row = rows.get(ctx[-m:])
            if row is None or m < min_level - 1:
                break
            tok = row[None]
            level = m + 1
            tokens.append(tok)
            levels.append(level)
            if vp:
                cum *= hits[level] / reached[level]
                if cum * (vb + vp * (1 + j)) <= vp * expected:
                    return tokens, levels, j
                expected += cum
            ctx = (ctx + (tok,))[-width:]
        return tokens, levels, len(tokens)


@st.composite
def walk_scripts(draw):
    """A token stream cut into the initial tokens and update batches, with
    drafts from the committed tail interleaved. Streams either repeat a short
    motif with rare noise, so most windows and transitions recur; or repeat
    one context with competing continuations, so its rows' argmaxes flip
    back and forth between drafts; or never repeat a token, so every window
    is new."""
    n_max = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["motif", "competing", "fresh"]))
    if kind == "motif":
        size = draw(st.integers(0, 120))
        motif = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
        noise = draw(st.lists(st.integers(0, 19), min_size=size, max_size=size))
        stream = [t if t >= 18 else motif[i % len(motif)] for i, t in enumerate(noise)]
    elif kind == "competing":
        context = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
        picks = draw(st.lists(st.integers(3, 5), max_size=30))
        stream = [t for pick in picks for t in (*context, pick)]
        size = len(stream)
    else:
        size = draw(st.integers(0, 120))
        stream = list(range(100, 100 + size))
    cut = draw(st.integers(0, size))
    batches, rest = [], stream[cut:]
    while rest:
        n = draw(st.integers(1, 8))
        batches.append(rest[:n])
        rest = rest[n:]
    rate = st.lists(st.integers(1, 30), min_size=n_max + 1, max_size=n_max + 1)
    drafts = st.lists(st.tuples(
        st.integers(1, 8),
        st.integers(2, n_max + 1),
        st.one_of(st.none(), st.tuples(rate, rate)),
        st.sampled_from([0.0, 0.05, 0.5]),
    ), max_size=3)
    ops = [("draft", d) for d in draw(drafts)]
    for batch in batches:
        ops.append(("update", batch))
        ops += [("draft", d) for d in draw(drafts)]
    return n_max, stream[:cut], ops


@given(walk_scripts())
@settings(max_examples=300, deadline=None)
def test_cached_walk_matches_plain_walk(script):
    n_max, init, ops = script
    store = NgramStore(init, n_max)
    ref = _RefStore(init, n_max)
    for kind, arg in ops:
        if kind == "update":
            store.update(*arg)
            ref.update(*arg)
        else:
            k, min_level, counts, vp = arg
            if counts is not None:
                # the decoder's rates: 1 <= hits[l] <= reached[l]
                counts = ([min(h, r) for h, r in zip(*counts)], counts[1])
            kw = dict(min_level=min_level, counts=counts,
                      cost_model=CostModel(verify_per_token=vp))
            expected = ref.draft(ref.committed, k, **kw)
            # from the committed list itself (the cached tail) and from a copy
            assert store.draft(store.committed, k, **kw) == expected
            assert store.draft(list(store.committed), k, **kw) == expected
        assert store.committed == ref.committed
        assert store._rows == ref._rows  # argmax keys included
        assert store.snapshot() == NgramStore.snapshot(ref)
        _assert_successors(store)
        assert store.draft(store.committed, 8) == ref.draft(ref.committed, 8)
        _assert_successors(store)
