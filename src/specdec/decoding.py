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


@dataclass
class DecodeResult:
    output: list[int]
    steps: list[StepRecord]
    prefill_sim_time: float
    totals: DecodeTotals
    prompt_len: int
    options: DecodeOptions
    store: NgramStore | None = field(default=None, repr=False)


def _is_eos(oracle, token: int, options: DecodeOptions) -> bool:
    return options.stop_at_eos and oracle.eos is not None and token == oracle.eos


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
    output: list[int] = []
    steps: list[StepRecord] = []
    while len(output) < options.max_new_tokens:
        output.append(carried)
        if _is_eos(oracle, carried, options):
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
    """Speculate up to k_draft tokens by chaining fallback queries; each
    query sees the committed tail plus the tokens drafted so far. A miss
    at every level truncates the draft. Pure with respect to the store."""
    if k_draft < 1:
        raise ValueError(f"k_draft must be >= 1, got {k_draft}")
    return store.draft(committed_tail, k_draft, min_level=store.n_max if fixed_level_only else 2)


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


def _align_oracle(oracle, committed: list[int], target_len: int) -> None:
    # Roll back tokens the verify call consumed beyond what was committed.
    if oracle.consumed_len == target_len:
        return
    truncate = getattr(oracle, "truncate_cache", None)
    if truncate is not None:
        truncate(target_len)
    else:
        oracle.reset()
        if target_len:
            oracle.extend(list(committed[:target_len]))


def speculative_decode(oracle, prompt: list[int], options: DecodeOptions,
                       cost_model: CostModel | None = None) -> DecodeResult:
    """Draft-and-verify loop; output is token-identical to baseline_decode.

    Per step: commit the carried token, draft up to k_draft continuations
    from the n-gram store, validate [carried]+draft in one call, commit the
    accepted prefix, carry the oracle's next prediction. Draft length is
    additionally capped by the remaining token budget so the output never
    exceeds max_new_tokens.
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
    output: list[int] = []
    steps: list[StepRecord] = []
    while len(output) < options.max_new_tokens:
        output.append(carried)
        store.update(carried)
        if _is_eos(oracle, carried, options):
            steps.append(StepRecord(len(steps), [], [], 0, [carried], 0, 0.0))
            break
        k_use = min(options.k_draft, options.max_new_tokens - len(output))  # remaining budget
        drafted, levels = (
            build_draft(store, store.committed, k_use, fixed_level_only=options.fixed_level_only)
            if k_use > 0 else ([], [])
        )
        _align_oracle(oracle, store.committed, len(store.committed) - 1)
        try:
            accepted, next_carried, _ = verify_step(oracle, carried, drafted)
        except OracleError as exc:
            raise _wrap_oracle_error(exc, f"step {len(steps)}") from exc
        totals.llm_calls += 1
        totals.proposed_draft_tokens += len(drafted)
        step_committed = [carried]
        eos_hit = False
        for tok in drafted[:accepted]:
            output.append(tok)
            store.update(tok)
            step_committed.append(tok)
            if _is_eos(oracle, tok, options):
                eos_hit = True
                break
        committed_accepted = len(step_committed) - 1
        totals.accepted_draft_tokens += committed_accepted
        batch_len = 1 + len(drafted)
        steps.append(
            StepRecord(
                len(steps),
                drafted,
                levels,
                committed_accepted,
                step_committed,
                batch_len,
                simulate_cost(cm, "verify", batch_len),
            )
        )
        if eos_hit:
            break
        carried = next_carried
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
