"""Greedy decoding loops: plain autoregressive baseline and the
draft-and-verify accelerated loop.

The accelerated loop drafts candidate tokens from an n-gram store built
over everything committed so far, then validates the whole draft with one
batched oracle call. Accepted tokens are the longest draft prefix matching
the oracle's own greedy predictions; the prediction at the first mismatch
(or the one after the last draft token, when everything matched) is carried
into the next step. Because every committed token is one the oracle itself
would have produced, the output is token-identical to the baseline loop for
any deterministic oracle.

The engine chooses each step's draft length, with k_draft as its cap: a
token is verified only when it raises the expected number of committed
tokens per unit of verify cost, given this decode's per-level acceptance
rates (the expected-accepted-length argument of Leviathan et al., arXiv
2211.17192). The rule runs inside `NgramStore.draft`'s walk, so no token
after the first one that does not pay is looked up.

Each step commits between 1 and k_draft+1 tokens, so the accelerated loop
never takes more steps (hence more oracle calls) than the baseline.

Both loops start with one prefill (`_prefill`): reset the oracle, extend
it with the whole prompt in one call, and carry its last prediction.

The loop knows how many tokens the oracle has consumed without asking it: a
verify of [carried] + drafted consumes all of it, and the committed prefix
then ends one token (the new carried one) past the accepted draft tokens.
So the oracle holds tokens past the committed prefix exactly when a verify
rejected a drafted token, and only then does the next step call
`truncate_cache`; the loop never asks the oracle for its length.

The accelerated loop logs each step as a few flat appends (drafted tokens
and levels with per-step end offsets, accepted counts). Its
`DecodeResult.steps` is a read-only sequence over that log that builds a
`StepRecord` each time a step is read and keeps none; `baseline_decode`,
the reference loop, still builds its records eagerly.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate
from pathlib import Path

from .ngram import NgramStore
from .oracle import DEFAULT_COST_MODEL, CostModel, OracleError, simulate_cost

__all__ = [
    "DecodeOptions",
    "StepRecord",
    "DecodeTotals",
    "DecodeResult",
    "baseline_decode",
    "speculative_decode",
    "write_trace",
]


# The highest n-gram order a decode may use. The store keys one row per
# suffix of each window, so its keys grow with n_max squared per token: the
# demo config peaks at 56 MiB with n_max 64 and at 154 MiB with 128.
N_MAX_CAP = 64


@dataclass(frozen=True)
class DecodeOptions:
    n_max: int = 5
    k_draft: int = 7
    max_new_tokens: int = 128
    runtime_update: bool = True
    fixed_level_only: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # type(), not isinstance(): a bool is an int, and 3.0 is no int
            if type(value) is not type(f.default):
                raise ValueError(f"{f.name} must be of type {type(f.default).__name__}, got {value!r}")
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if self.n_max > N_MAX_CAP:
            raise ValueError(f"n_max must be <= {N_MAX_CAP}, got {self.n_max}")
        if self.k_draft < 1:
            raise ValueError(f"k_draft must be >= 1, got {self.k_draft}")
        if self.max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {self.max_new_tokens}")


@dataclass
class StepRecord:
    step_index: int
    drafted: list[int]
    draft_levels: list[int]
    accepted_count: int
    committed: list[int]
    verify_batch_len: int  # 0 for the call-less terminal step after an eos commit
    sim_time: float


@dataclass
class DecodeTotals:
    proposed_draft_tokens: int = 0
    accepted_draft_tokens: int = 0
    llm_calls: int = 0
    rollbacks: int = 0  # truncations: one per verify step, bar the last, that rejected a token


class _StepLog(Sequence):
    """The steps of one `speculative_decode`, kept as flat columns and read
    as `StepRecord`s built on every read; none is kept.

    Step i drafted `drafted[ends[i-1]:ends[i]]` at `levels[ends[i-1]:ends[i]]`
    (from 0 for step 0), accepted `accepted[i]` of them and committed the
    next `1 + accepted[i]` tokens of `output`. It verified `1 + len(drafted)`
    tokens, or none when it is the call-less step after an eos commit, which
    is last (`eos_last`).
    """

    __slots__ = ("_output", "_drafted", "_levels", "_ends", "_accepted", "_eos_last", "_vb", "_vp",
                 "_starts")

    def __init__(self, output: list[int], drafted: list[int], levels: list[int], ends: list[int],
                 accepted: list[int], eos_last: bool, cost_model: CostModel) -> None:
        self._output, self._drafted, self._levels = output, drafted, levels
        self._ends, self._accepted, self._eos_last = ends, accepted, eos_last
        self._vb, self._vp = cost_model.verify_base, cost_model.verify_per_token
        self._starts: list[int] | None = None  # step i's offset in output; built on an indexed read

    def __len__(self) -> int:
        return len(self._accepted)

    def _record(self, i: int, o: int) -> StepRecord:
        """Step i, which commits from `output[o]`."""
        ends, acc = self._ends, self._accepted[i]
        d0, d1 = ends[i - 1] if i else 0, ends[i]
        batch = 0 if self._eos_last and i == len(self._accepted) - 1 else 1 + d1 - d0
        sim_time = self._vb + self._vp * batch if batch else 0.0
        return StepRecord(i, self._drafted[d0:d1], self._levels[d0:d1], acc,
                          self._output[o:o + 1 + acc], batch, sim_time)

    def __iter__(self):
        o = 0
        for i, acc in enumerate(self._accepted):
            yield self._record(i, o)
            o += 1 + acc

    def __getitem__(self, index):
        picked = range(len(self))[index]  # IndexError and TypeError as for a list
        if self._starts is None:
            self._starts = list(accumulate(self._accepted, lambda o, acc: o + 1 + acc, initial=0))
        if isinstance(picked, int):
            return self._record(picked, self._starts[picked])
        return [self._record(i, self._starts[i]) for i in picked]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, _StepLog)):
            return list(self) == list(other)
        return NotImplemented


def _batch_lens(steps: Sequence[StepRecord]) -> list[int]:
    """Each step's verify batch length; a step log's are read from its
    offsets without building records."""
    if not isinstance(steps, _StepLog):
        return [s.verify_batch_len for s in steps]
    ends = steps._ends
    lens = [1 + end - start for start, end in zip([0, *ends], ends)]
    if steps._eos_last:
        lens[-1] = 0
    return lens


@dataclass
class DecodeResult:
    output: list[int]
    steps: Sequence[StepRecord]
    totals: DecodeTotals
    prompt_len: int
    options: DecodeOptions
    store: NgramStore | None = field(default=None, repr=False, compare=False)


def _prefill(oracle, prompt: list[int]) -> int:
    """Reset `oracle`, extend it with the whole prompt in one call and
    return its prediction after the prompt: the first carried token."""
    if not prompt:
        raise ValueError("prompt must be non-empty")
    oracle.reset()
    try:
        return oracle.extend(list(prompt))[-1]
    except OracleError as exc:
        raise type(exc)(f"prefill: {exc}") from exc


def baseline_decode(oracle, prompt: list[int], options: DecodeOptions,
                    cost_model: CostModel = DEFAULT_COST_MODEL) -> DecodeResult:
    """Plain greedy loop: prefill once, then one single-token call per
    emitted token. Stops at max_new_tokens or eos."""
    carried = _prefill(oracle, prompt)
    totals = DecodeTotals(llm_calls=1)
    eos = oracle.eos
    output: list[int] = []
    steps: list[StepRecord] = []
    while len(output) < options.max_new_tokens:
        output.append(carried)
        if carried == eos:
            steps.append(StepRecord(len(steps), [], [], 0, [carried], 0, 0.0))
            break
        try:
            preds = oracle.extend([carried])
        except OracleError as exc:
            raise type(exc)(f"step {len(steps)}: {exc}") from exc
        totals.llm_calls += 1
        steps.append(
            StepRecord(len(steps), [], [], 0, [carried], 1, simulate_cost(cost_model, "verify", 1))
        )
        carried = preds[0]
    return DecodeResult(
        output=output,
        steps=steps,
        totals=totals,
        prompt_len=len(prompt),
        options=options,
    )


def build_draft(store: NgramStore, committed_tail: list[int], k_draft: int, *,
                min_level: int = 2, counts: tuple[list[int], list[int]] | None = None,
                cost_model: CostModel | None = None) -> tuple[list[int], list[int], int]:
    """Draft up to k_draft tokens from orders min_level and up with
    `NgramStore.draft`, stopping at the first context no such order has seen
    and, given per-level `counts` and a `cost_model`, right after the first
    token that does not pay; returns (tokens, levels, paid). Pure."""
    return store.draft(committed_tail, k_draft, min_level=min_level, counts=counts,
                       cost_model=cost_model)


def verify_step(oracle, carried: int, drafted: list[int]) -> tuple[int, int]:
    """One batched oracle call over [carried] + drafted.

    Returns (accepted_count, next_carried): accepted_count is the longest
    prefix of drafted matching the oracle's prediction for the preceding
    position, and next_carried is the prediction after the accepted
    prefix, which is the correction at the first mismatch or the bonus
    token when the whole draft passed.
    """
    preds = oracle.extend([carried, *drafted])
    accepted = 0
    for d, p in zip(drafted, preds):
        if d != p:
            break
        accepted += 1
    return accepted, preds[accepted]


def _align_oracle(oracle, target_len: int) -> None:
    """Roll back the tokens a rejecting verify consumed beyond what was
    committed: the oracle keeps its first `target_len`."""
    oracle.truncate_cache(target_len)


def speculative_decode(oracle, prompt: list[int], options: DecodeOptions,
                       cost_model: CostModel = DEFAULT_COST_MODEL) -> DecodeResult:
    """Draft-and-verify loop; output is token-identical to baseline_decode.

    Per step: commit the carried token, draft up to k_draft continuations
    (and no more than the budget left) from the n-gram store, whose walk
    stops after the first token that does not pay (`NgramStore.draft`),
    validate [carried] + the paying tokens in one call, commit the accepted
    prefix, carry the oracle's next prediction. The accepted tokens and the
    next carried token go into the store in one update; with
    `runtime_update` off they go into a list of the loop's own, and the
    store keeps the prompt's counts. A step after a verify that rejected a
    token first truncates the oracle to the committed prefix before the
    carried token.

    Each level starts at 1 hit of 1 reached. After a verify with `acc`
    accepted, the levels of the first `acc` tokens each count a hit and a
    reach, and the walk's next token, if any, is judged against the next
    carried token (the oracle's prediction at its position): a reach, and a
    hit if they match. That token is the first rejected one or, when every
    paying token passed, the one that did not pay; judging it costs no
    oracle call and keeps a level whose tokens stopped paying measured.
    """
    carried = _prefill(oracle, prompt)
    store = NgramStore(list(prompt), options.n_max)
    budget, k_draft = options.max_new_tokens, options.k_draft
    min_level = options.n_max if options.fixed_level_only else 2
    eos = oracle.eos
    counts = hits, reached = [1] * (options.n_max + 1), [1] * (options.n_max + 1)
    live = options.runtime_update
    committed = store.committed if live else list(prompt)
    commit = store.update if live else lambda *tokens: committed.extend(tokens)
    stop = len(prompt) + budget  # the length of `committed` once the budget is spent
    rollbacks, eos_last, rejected = 0, False, False
    drafted_log: list[int] = []
    levels_log: list[int] = []
    ends: list[int] = []
    accepted_log: list[int] = []
    if budget:
        commit(carried)
    while budget:  # each step starts with `carried` committed; the loop ends by break
        if carried == eos:
            ends.append(len(drafted_log))
            accepted_log.append(0)
            eos_last = True
            break
        k_use = stop - len(committed)
        if k_use > k_draft:
            k_use = k_draft
        tokens, levels, paid = build_draft(store, committed, k_use, min_level=min_level, counts=counts,
                                           cost_model=cost_model) if k_use > 0 else ([], [], 0)
        drafted = tokens[:paid]
        if rejected:
            _align_oracle(oracle, len(committed) - 1)
            rollbacks += 1
        try:
            accepted, next_carried = verify_step(oracle, carried, drafted)
        except OracleError as exc:
            raise type(exc)(f"step {len(accepted_log)}: {exc}") from exc
        rejected = accepted < paid
        for level in levels[:accepted]:
            hits[level] += 1
            reached[level] += 1
        if accepted < len(tokens):
            level = levels[accepted]
            reached[level] += 1
            hits[level] += tokens[accepted] == next_carried
            del levels[paid:]  # the log keeps the paying tokens' levels only
        kept = drafted[:accepted]
        eos_hit = eos in kept
        if eos_hit:
            kept = kept[: kept.index(eos) + 1]
        drafted_log += drafted
        levels_log += levels
        ends.append(len(drafted_log))
        accepted_log.append(len(kept))
        if eos_hit or len(committed) + len(kept) == stop:
            commit(*kept)
            break
        carried = next_carried
        commit(*kept, carried)
    output = committed[len(prompt):]
    calls = 1 + len(accepted_log) - eos_last
    totals = DecodeTotals(len(drafted_log), sum(accepted_log), calls, rollbacks)
    return DecodeResult(
        output=output,
        steps=_StepLog(output, drafted_log, levels_log, ends, accepted_log, eos_last, cost_model),
        totals=totals,
        prompt_len=len(prompt),
        options=options,
        store=store,
    )


def _atomic_write(path: str | Path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`.
    An OSError names `path`, not the temp file."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_trace(path: str | Path, result: DecodeResult, oracle_json: dict,
                cost_model: CostModel) -> None:
    """One JSON object per line: a header, then one line per step."""
    lines = [
        json.dumps(
            {
                "prompt_len": result.prompt_len,
                "n": result.options.n_max,
                "k": result.options.k_draft,
                "oracle": oracle_json,
                "cost_model": asdict(cost_model),
            },
            sort_keys=True,
        )
    ]
    for s in result.steps:
        lines.append(
            json.dumps(
                {
                    "step": s.step_index,
                    "drafted": s.drafted,
                    "levels": s.draft_levels,
                    "accepted": s.accepted_count,
                    "committed": s.committed,
                    "batch": s.verify_batch_len,
                    "sim_time": s.sim_time,
                },
                sort_keys=True,
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")
