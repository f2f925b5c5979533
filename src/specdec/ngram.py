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
rows of its suffixes longest first, and, for a full-width window, its
successor: (its own row's argmax, id of the window that token leads to), or
None. Ids and rows are never removed, so a path never goes stale. A
successor points only to a counted window: `_commit` or `draft` sets it when
it first resolves the argmax into a counted window, and `_commit` clears it
exactly when the window's own row changes argmax, which only that window's
commits can do, as a full-width row is no other window's suffix.

So `draft` walks successors with one list read per token at order n_max,
and `_commit` follows a committed argmax with one; anything else (a window
shorter than n_max-1 at the stream's start, a token that is not the argmax,
a successor not set) builds the next context tuple and looks up its id. A
full-width context has a row iff its window has an id, so a new window
creates its own row without looking for it, and a draft from a full-width
context with no id starts its fallback one order down. The store keeps the
id of the window that ends `committed` (or that window, if it was never
counted), which `draft` starts from when its tail is `committed` itself.
`snapshot` reads the rows as they stand.
"""

from __future__ import annotations

__all__ = ["NgramStore"]


class NgramStore:
    """Single-owner mutable store; not internally synchronized.

    `committed` always holds every token fed via the constructor or
    `update`, each counted, and only `update` may change it: `draft` trusts
    the window id cached for its end. A store whose counts must stay frozen
    is one that is fed nothing more.
    """

    def __init__(self, token_ids: list[int], n_max: int) -> None:
        if n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {n_max}")
        self.n_max = n_max
        self.committed: list[int] = []
        # a row's None key holds its argmax; every other key is a next token
        self._rows: dict[tuple[int, ...], dict[int | None, int]] = {}
        # window -> its id; by id: the rows of its suffixes, longest first,
        # and (argmax, id of the next window) or None
        self._ids: dict[tuple[int, ...], int] = {}
        self._paths: list[tuple[dict[int | None, int], ...]] = []
        self._succ: list[tuple[int, int] | None] = []
        # the window that ends `committed`: its id, or the window itself if
        # it was never counted
        self._tail: int | tuple[int, ...] = ()
        self._commit(token_ids)

    def update(self, *tokens: int) -> None:
        """Commit `tokens` in order, counting their windows."""
        self._commit(tokens)

    def _commit(self, tokens) -> None:
        seq, rows, ids = self.committed, self._rows, self._ids
        paths, succ = self._paths, self._succ
        width = self.n_max - 1
        cur = self._tail
        if cur.__class__ is tuple:
            window, cur = cur, None  # the n_max-1 tokens before the next token
        for nxt in tokens:
            seq.append(nxt)
            if cur is not None:
                path = paths[cur]
                own = path[0]
                for row in path:
                    top = row[None]
                    if top == nxt:
                        row[nxt] += 1
                    else:
                        count = row[nxt] = row.get(nxt, 0) + 1
                        if count >= row[top]:
                            row[None] = nxt
                            if row is own:
                                succ[cur] = None
                step = succ[cur]
                if step is not None and step[0] == nxt:
                    cur = step[1]
                    continue
                window = tuple(seq[-width:])
                nid = ids.get(window)
                if nid is not None and own[None] == nxt and len(path) == width:
                    succ[cur] = (nxt, nid)
                cur = nid
                continue
            # A new window is counted and its path collected in one pass; a
            # second pass over the path is slower on text that rarely repeats.
            # A full-width window has a row iff it has an id, so its own row
            # is new, with nxt its argmax: its successor is the next window,
            # if that is counted.
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
            window = tuple(seq[-width:])
            cur = ids.get(window)
            succ.append((nxt, cur) if m == width and cur is not None else None)
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
        n_max = self.n_max
        if min_level > n_max:  # no context is long enough
            return [], [], 0
        rows, ids, paths, succ = self._rows, self._ids, self._paths, self._succ
        width = n_max - 1
        if tail is self.committed:
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
            top_rate = hits[n_max] / reached[n_max]
        for j in range(k):
            # m = n-1 context tokens; a context's length names its order
            if cur is not None:
                step = succ[cur]
                if step is not None:
                    # a full-width window's own argmax and the window it leads to
                    tok, cur = step
                    tokens.append(tok)
                    levels.append(n_max)
                    if vp:
                        cum *= top_rate
                        if cum * (vb + vp * (1 + j)) <= vp * expected:
                            return tokens, levels, j
                        expected += cum
                    continue
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
                ctx = (*tail[-width:], *tokens)[-width:]
                nid = ids.get(ctx)
                if nid is not None and m == width:
                    succ[cur] = (tok, nid)
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
