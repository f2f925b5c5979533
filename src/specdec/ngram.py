"""Token-level n-gram count tables with highest-order-first fallback lookup.

A store counts every window of orders 2..n_max over the committed token
sequence; `update` commits a batch of tokens at once. `draft` is the one
lookup: it takes each token as a row's count argmax, ties going to the most
recently reinforced token (there is no smoothing or probability output),
from the highest order whose context (the tail plus the tokens drafted so
far) has been seen, and stops at the first context no allowed order has
seen or, given the decoder's acceptance counts and cost model, after the
first token that does not pay for its verify cost.

Rows map a context (n-1 tokens, so its length names the order) to {next:
count}, and each row keeps its own argmax under the key None, which no token
can be. The argmax is kept in O(1) per counted window: the bumped token is
the most recently reinforced one, so it becomes the argmax exactly when its
new count is >= the argmax's count.

Every window the store has counted (the up to n_max-1 tokens before a
committed token) has an int id. By id the store keeps the window's path, the
rows of its suffixes longest first, and a transition map {token: id of the
next window}, created when a transition to a window with an id is first
followed. Ids, rows and transitions are never removed, so neither a path nor
a cached transition goes stale. A full-width context has a row iff its
window has an id. So `_commit` and `draft` step from window to window with
one int-keyed lookup, and build and look up a context tuple only on a
transition not cached yet; a new window creates its own row without looking
for it, and a draft from a full-width context with no id starts its fallback
one order down. The store keeps the id of the window that ends `committed`
(or that window, if it was never counted), which `draft` starts from when
its tail is `committed` itself. `snapshot` reads the rows as they stand.
"""

from __future__ import annotations

__all__ = ["NgramStore"]


class NgramStore:
    """Single-owner mutable store; not internally synchronized.

    `committed` always holds every token fed via the constructor or
    `update`, and only `update` may change it: `draft` trusts the window id
    cached for its end. With `runtime_update=False` updates append to
    `committed` but leave all counts frozen at their post-construction
    state; `runtime_update` is fixed for the life of the store.
    """

    def __init__(self, token_ids: list[int], n_max: int, *, runtime_update: bool = True) -> None:
        if n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {n_max}")
        self.n_max = n_max
        self.runtime_update = runtime_update
        self.committed: list[int] = []
        # a row's None key holds its argmax; every other key is a next token
        self._rows: dict[tuple[int, ...], dict[int | None, int]] = {}
        # window -> its id; by id: the rows of its suffixes, longest first,
        # and {token: id of the next window}, None until a transition is cached
        self._ids: dict[tuple[int, ...], int] = {}
        self._paths: list[tuple[dict[int | None, int], ...]] = []
        self._next: list[dict[int, int] | None] = []
        # the window that ends `committed`: its id, or the window itself if
        # it was never counted
        self._tail: int | tuple[int, ...] = ()
        self._commit(token_ids)

    def update(self, *tokens: int) -> None:
        """Commit `tokens` in order, counting their windows unless the
        store is frozen."""
        if self.runtime_update:
            self._commit(tokens)
        else:
            self.committed.extend(tokens)

    def _commit(self, tokens) -> None:
        seq, rows, ids = self.committed, self._rows, self._ids
        paths, nexts = self._paths, self._next
        width = self.n_max - 1
        cur = self._tail
        if cur.__class__ is tuple:
            window, cur = cur, None  # the n_max-1 tokens before the next token
        for nxt in tokens:
            seq.append(nxt)
            if cur is not None:
                for row in paths[cur]:
                    top = row[None]
                    if top == nxt:
                        row[nxt] += 1
                    else:
                        count = row[nxt] = row.get(nxt, 0) + 1
                        if count >= row[top]:
                            row[None] = nxt
                trans = nexts[cur]
                if trans is not None:
                    nid = trans.get(nxt)
                    if nid is not None:
                        cur = nid
                        continue
                window = tuple(seq[-width:])
                nid = ids.get(window)
                if nid is not None:
                    if trans is None:
                        trans = nexts[cur] = {}
                    trans[nxt] = nid
                cur = nid
                continue
            # A new window is counted and its path collected in one pass; a
            # second pass over the path is slower on text that rarely repeats.
            # A full-width window has a row iff it has an id, so its own row
            # is new, and a new window has no transition to look up.
            m = len(window)
            if m == width:
                path = [{None: nxt, nxt: 1}]
                rows[window] = path[0]
                first = 1
            else:
                path, first = [], 0
            for i in range(first, m):
                ctx = window[i:]
                row = rows.get(ctx)
                if row is None:
                    row = rows[ctx] = {None: nxt, nxt: 1}
                else:
                    top = row[None]
                    if top == nxt:
                        row[nxt] += 1
                    else:
                        count = row[nxt] = row.get(nxt, 0) + 1
                        if count >= row[top]:
                            row[None] = nxt
                path.append(row)
            ids[window] = len(paths)
            paths.append(tuple(path))
            nexts.append(None)
            window = tuple(seq[-width:])
            cur = ids.get(window)
        self._tail = window if cur is None else cur

    def query_multilevel(
        self, context_tail: list[int] | tuple[int, ...], *, min_level: int = 2
    ) -> tuple[int, int] | None:
        """The first (token, level) of `draft(context_tail, 1, min_level=...)`,
        or None when nothing is drafted. Only perfbench's traced run wraps
        it; it goes once that tracer is pointed at `draft` (ROADMAP item 1)."""
        tokens, levels, _ = self.draft(context_tail, 1, min_level=min_level)
        return (tokens[0], levels[0]) if tokens else None

    def draft(
        self, tail: list[int] | tuple[int, ...], k: int, *, min_level: int = 2,
        counts: tuple[list[int], list[int]] | None = None, cost_model=None,
    ) -> tuple[list[int], list[int], int]:
        """Draft up to k tokens greedily; returns (tokens, levels, paid).

        Each token is the argmax after the longest suffix, of n_max-1 down to
        min_level-1 tokens (min_level >= 2), of `tail` plus the tokens drafted
        so far that the store has seen; its level is that suffix's length
        plus one. Drafting stops at the first context with no such suffix,
        and right after the first token that does not pay; that token is
        returned, past `paid`, so the caller can judge it. With `counts` =
        (hits, reached), hits[l] / reached[l] level l's rate, `cum` their
        product so far, E = 1 + the earlier `cum`s and C the `cost_model`
        verify cost of the batch without this token, a token pays iff cum·C >
        verify_per_token·E. Without counts, or with verify_per_token = 0,
        every token pays."""
        rows, ids, paths, nexts = self._rows, self._ids, self._paths, self._next
        width = self.n_max - 1
        if tail is self.committed and self.runtime_update:
            cur = self._tail
            if cur.__class__ is tuple:
                ctx, cur = cur, None
        else:
            ctx = tuple(tail[-width:])
            cur = ids.get(ctx)
        tokens, levels = [], []
        vp = counts and cost_model.verify_per_token
        if vp:
            hits, reached = counts
            vb = cost_model.verify_base
            expected = cum = 1.0
        for j in range(k):
            # m = n-1 context tokens; a context's length names its order
            if cur is not None:
                # a counted window: its own row is the first of its path
                path = paths[cur]
                m = len(path)
                if m < min_level - 1:
                    break
                row = path[0]
            else:
                # a full-width context with no id has no row
                m = len(ctx)
                row = None if m == width else rows.get(ctx)
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
            if cur is not None:
                trans = nexts[cur]
                if trans is not None:
                    nid = trans.get(tok)
                    if nid is not None:
                        cur = nid
                        continue
                ctx = (*tail[-width:], *tokens)[-width:]
                nid = ids.get(ctx)
                if nid is not None:
                    if trans is None:
                        trans = nexts[cur] = {}
                    trans[tok] = nid
                cur = nid
            else:
                ctx = (ctx + (tok,))[-width:]
                cur = ids.get(ctx)
        return tokens, levels, len(tokens)

    def snapshot(self) -> dict:
        """JSON-friendly dump, entries ordered by (context, next) for
        reproducible diffs."""
        levels = {n: [] for n in range(2, self.n_max + 1)}
        for ctx in sorted(self._rows):
            row = self._rows[ctx]
            levels[len(ctx) + 1].extend(
                {"context": list(ctx), "next": nxt, "count": row[nxt]}
                for nxt in sorted(row.keys() - {None})
            )
        return {"n_max": self.n_max, "levels": [{"n": n, "entries": e} for n, e in levels.items()]}
