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
2211.17192).

Each step commits between 1 and k_draft+1 tokens, so the accelerated loop
never takes more steps (hence more oracle calls) than the baseline.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
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
    "build_draft",
    "verify_step",
    "write_trace",
    "read_trace",
]


@dataclass
class DecodeOptions:
    n_max: int = 5
    k_draft: int = 7
    max_new_tokens: int = 128
    runtime_update: bool = True
    stop_at_eos: bool = True
    fixed_level_only: bool = False

    def validate(self) -> None:
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
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


@dataclass
class DecodeResult:
    output: list[int]
    steps: list[StepRecord]
    prefill_sim_time: float
    totals: DecodeTotals
    prompt_len: int
    options: DecodeOptions
    store: NgramStore | None = field(default=None, repr=False)


def _wrap_oracle_error(exc: OracleError, where: str) -> OracleError:
    wrapped = type(exc)(f"{where}: {exc}")
    wrapped.__cause__ = exc
    return wrapped


def baseline_decode(oracle, prompt: list[int], options: DecodeOptions,
                    cost_model: CostModel | None = None) -> DecodeResult:
    """Plain greedy loop: prefill once, then one single-token call per
    emitted token. Stops at max_new_tokens or eos."""
    options.validate()
    if not prompt:
        raise ValueError("prompt must be non-empty")
    cm = cost_model or DEFAULT_COST_MODEL
    oracle.reset()
    try:
        preds = oracle.extend(list(prompt))
    except OracleError as exc:
        raise _wrap_oracle_error(exc, "prefill") from exc
    totals = DecodeTotals(llm_calls=1)
    carried = preds[-1]
    eos = oracle.eos if options.stop_at_eos else None
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
            raise _wrap_oracle_error(exc, f"step {len(steps)}") from exc
        totals.llm_calls += 1
        steps.append(
            StepRecord(len(steps), [], [], 0, [carried], 1, simulate_cost(cm, "verify", 1))
        )
        carried = preds[0]
    return DecodeResult(
        output=output,
        steps=steps,
        prefill_sim_time=simulate_cost(cm, "prefill", len(prompt)),
        totals=totals,
        prompt_len=len(prompt),
        options=options,
    )


def build_draft(
    store: NgramStore,
    committed_tail: list[int],
    k_draft: int,
    *,
    fixed_level_only: bool = False,
) -> tuple[list[int], list[int]]:
    """Draft up to k_draft tokens with `NgramStore.draft`, stopping at the
    first context no order has seen. Pure with respect to the store."""
    if k_draft < 1:
        raise ValueError(f"k_draft must be >= 1, got {k_draft}")
    return store.draft(committed_tail, k_draft, min_level=store.n_max if fixed_level_only else 2)


def _paying_length(levels: list[int], hits: list[int], reached: list[int],
                   cost_model: CostModel) -> int:
    """How many leading draft tokens pay for their verify cost.

    `hits[l] / reached[l]` is level l's acceptance rate. With `cum` the
    product of the rates of the levels so far (this token's included), E = 1
    + the sum of the earlier `cum`s and C the verify cost of the batch
    without this token, the token raises E/C iff cum·C > verify_per_token·E.
    `cum` never rises, so E/C is unimodal in the length and the first token
    that does not pay ends the draft. With verify_per_token = 0 all pay.
    """
    vp = cost_model.verify_per_token
    if not vp:
        return len(levels)
    vb = cost_model.verify_base
    expected = cum = 1.0
    for j, level in enumerate(levels):
        cum *= hits[level] / reached[level]
        if cum * (vb + vp * (1 + j)) <= vp * expected:
            return j
        expected += cum
    return len(levels)


def verify_step(oracle, carried: int, drafted: list[int]) -> tuple[int, int, list[int]]:
    """One batched oracle call over [carried] + drafted.

    Returns (accepted_count, next_carried, predictions): accepted_count is
    the longest prefix of drafted matching the oracle's prediction for the
    preceding position, and next_carried is predictions[accepted_count],
    which is the correction at the first mismatch or the bonus token when
    the whole draft passed.
    """
    preds = oracle.extend([carried, *drafted])
    accepted = 0
    for d, p in zip(drafted, preds):
        if d != p:
            break
        accepted += 1
    return accepted, preds[accepted], preds


def _align_oracle(oracle, target_len: int) -> bool:
    """Roll back tokens the verify call consumed beyond what was committed;
    True when there were any."""
    if oracle.consumed_len == target_len:
        return False
    oracle.truncate_cache(target_len)
    return True


def speculative_decode(oracle, prompt: list[int], options: DecodeOptions,
                       cost_model: CostModel | None = None) -> DecodeResult:
    """Draft-and-verify loop; output is token-identical to baseline_decode.

    Per step: commit the carried token, draft up to k_draft continuations
    from the n-gram store, cut the draft at the remaining token budget and
    at the first token that does not pay (`_paying_length`), validate
    [carried]+draft in one call, commit the accepted prefix, carry the
    oracle's next prediction. The accepted tokens and the next carried
    token go into the store in one update.

    Each level starts at 1 hit of 1 reached. After a verify with `acc`
    accepted, the levels of the first `acc` tokens each count a hit and a
    reach, and the uncut draft's next token, if any, is judged against the
    next carried token (the oracle's prediction at its position): a reach,
    and a hit if they match. That token is the first rejected one or, when
    the whole cut draft passed, the first one cut; judging it costs no
    oracle call and keeps a level whose tokens stopped paying measured.
    """
    options.validate()
    if not prompt:
        raise ValueError("prompt must be non-empty")
    cm = cost_model or DEFAULT_COST_MODEL
    store = NgramStore(list(prompt), options.n_max, runtime_update=options.runtime_update)
    oracle.reset()
    try:
        preds = oracle.extend(list(prompt))
    except OracleError as exc:
        raise _wrap_oracle_error(exc, "prefill") from exc
    totals = DecodeTotals(llm_calls=1)
    carried = preds[-1]
    budget = options.max_new_tokens
    eos = oracle.eos if options.stop_at_eos else None
    hits, reached = [1] * (options.n_max + 1), [1] * (options.n_max + 1)
    output: list[int] = []
    steps: list[StepRecord] = []
    if budget:
        store.update(carried)
    while len(output) < budget:
        output.append(carried)
        if carried == eos:
            steps.append(StepRecord(len(steps), [], [], 0, [carried], 0, 0.0))
            break
        k_use = min(options.k_draft, budget - len(output))
        full, full_levels = (
            build_draft(store, store.committed, k_use, fixed_level_only=options.fixed_level_only)
            if k_use > 0 else ([], [])
        )
        paid = _paying_length(full_levels, hits, reached, cm)
        drafted, levels = full[:paid], full_levels[:paid]
        totals.rollbacks += _align_oracle(oracle, len(store.committed) - 1)
        try:
            accepted, next_carried, _ = verify_step(oracle, carried, drafted)
        except OracleError as exc:
            raise _wrap_oracle_error(exc, f"step {len(steps)}") from exc
        for level in full_levels[:accepted]:
            hits[level] += 1
            reached[level] += 1
        if accepted < len(full):
            level = full_levels[accepted]
            reached[level] += 1
            hits[level] += full[accepted] == next_carried
        kept = drafted[:accepted]
        eos_hit = eos in kept
        if eos_hit:
            kept = kept[: kept.index(eos) + 1]
        output += kept
        batch_len = 1 + len(drafted)
        totals.llm_calls += 1
        totals.proposed_draft_tokens += len(drafted)
        totals.accepted_draft_tokens += len(kept)
        steps.append(
            StepRecord(len(steps), drafted, levels, len(kept), [carried, *kept], batch_len,
                       cm.verify_base + cm.verify_per_token * batch_len)
        )
        if eos_hit or len(output) == budget:
            store.update(*kept)
            break
        carried = next_carried
        store.update(*kept, carried)
    return DecodeResult(
        output=output,
        steps=steps,
        prefill_sim_time=simulate_cost(cm, "prefill", len(prompt)),
        totals=totals,
        prompt_len=len(prompt),
        options=options,
        store=store,
    )


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
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
                "cost_model": cost_model.to_json(),
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


def read_trace(path: str | Path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        steps = [json.loads(line) for line in fh if line.strip()]
    return header, steps
