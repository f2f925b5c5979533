"""Evaluation metrics: draft hit ratio, simulated speed-up, the
(alpha * K) + 1 acceleration bound, and the N x K sweep of one prompt,
whose every cell is one decode pair's metrics.

Simulated speed-up is pure cost-model arithmetic over decode traces and is
fully deterministic. Wall-clock speed-up is measured outside the package,
by the benchmark in `perfbench/`, and never mixed into these numbers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .decoding import (
    DecodeOptions, DecodeResult, baseline_decode, speculative_decode, _atomic_write, _batch_lens,
)
from .oracle import CostModel, DEFAULT_COST_MODEL, simulate_cost

__all__ = [
    "LosslessnessError", "RunMetrics", "SweepTable", "theoretical_bound", "sim_total_time",
    "compute_metrics", "sweep", "write_sweep_csv",
]


class LosslessnessError(RuntimeError):
    """Accelerated output diverged from the baseline output. Always a bug."""


def theoretical_bound(alpha: float, k_draft: int) -> float:
    """Upper bound on acceleration from hit ratio alpha at draft length K."""
    return alpha * k_draft + 1.0


@dataclass
class RunMetrics:
    alpha: float
    mean_committed_per_step: float
    speedup_sim: float
    theoretical_bound: float
    steps: int
    output_len: int


def sim_total_time(result: DecodeResult, cost_model: CostModel) -> float:
    """Prefill plus one verify cost per step, recomputed from batch lengths
    so any cost model can be applied to an existing trace. A speculative
    decode's lengths come from its step log; no record is built."""
    total = simulate_cost(cost_model, "prefill", result.prompt_len)
    batches = _batch_lens(result.steps)
    # a few distinct lengths (at most k_draft + 1), each costed once
    cost = {b: simulate_cost(cost_model, "verify", b) for b in set(batches) if b > 0}
    for batch in batches:
        if batch > 0:
            total += cost[batch]
    return total


def _decode_fresh(decode, new_oracle, prompt, options, cost_model) -> DecodeResult:
    """`decode` on a fresh oracle from `new_oracle()`, closed afterwards if it can be."""
    oracle = new_oracle()
    try:
        return decode(oracle, list(prompt), options, cost_model)
    finally:
        if hasattr(oracle, "close"):  # an ExternalOracle holds a socket
            oracle.close()


def compute_metrics(
    accelerated: DecodeResult,
    baseline: DecodeResult,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> RunMetrics:
    """Derive run metrics from a matched pair of decode results.

    Raises LosslessnessError if the two outputs differ; a divergence is an
    engine bug, never something to report as a metric.
    """
    if accelerated.output != baseline.output:
        n = next(
            (i for i, (a, b) in enumerate(zip(accelerated.output, baseline.output)) if a != b),
            min(len(accelerated.output), len(baseline.output)),
        )
        raise LosslessnessError(
            f"outputs diverge at position {n}: "
            f"accelerated len {len(accelerated.output)}, baseline len {len(baseline.output)}"
        )
    totals = accelerated.totals
    alpha = (
        totals.accepted_draft_tokens / totals.proposed_draft_tokens
        if totals.proposed_draft_tokens > 0
        else 0.0
    )
    steps = len(accelerated.steps)
    out_len = len(accelerated.output)
    accel_time = sim_total_time(accelerated, cost_model)
    base_time = sim_total_time(baseline, cost_model)
    if accel_time > 0:
        speedup = base_time / accel_time
    else:
        speedup = 1.0 if base_time == 0 else float("inf")
    return RunMetrics(
        alpha=alpha,
        mean_committed_per_step=out_len / steps if steps else 0.0,
        speedup_sim=speedup,
        theoretical_bound=theoretical_bound(alpha, accelerated.options.k_draft),
        steps=steps,
        output_len=out_len,
    )


# The CSV's columns: the grid point, then each metric under its field name,
# as `run --json` prints it under "metrics"
_METRICS = [f.name for f in fields(RunMetrics)]
SWEEP_CSV_HEADER = ",".join(["n", "k", *_METRICS])


@dataclass
class SweepTable:
    cells: dict[tuple[int, int], RunMetrics | None]  # None where the cell failed
    config: dict

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for (n, k), m in self.cells.items():
            values = (n, k, *(astuple(m) if m is not None else [float("nan")] * len(_METRICS)))
            lines.append(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in values))
        return "\n".join(lines) + "\n"


def sweep(
    new_oracle: Callable[[], object],
    prompt: list[int],
    n_grid: list[int],
    k_grid: list[int],
    options: DecodeOptions,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> SweepTable:
    """Decode `prompt` with the accelerated decoder at every (n, k) grid
    point, each decode on a fresh oracle from `new_oracle()`, against one
    baseline decode. A cell holds its pair's `compute_metrics`, in n-then-k
    order, or None if a decode failed (a factory that raises included); its
    message is under `config["errors"]` by cell ("n=N,k=K"). A failed
    baseline is not retried: its message is every cell's. A
    `LosslessnessError` is an engine bug, not a failed run, and propagates.
    The config does not describe the oracle; the caller adds that.
    """
    n_grid, k_grid = sorted(set(n_grid)), sorted(set(k_grid))
    if not n_grid or not k_grid:
        raise ValueError("n_grid and k_grid must be non-empty")
    # DecodeOptions checks itself when built: refuse a bad grid value before any decode
    for n in n_grid:
        replace(options, n_max=n)
    for k in k_grid:
        replace(options, k_draft=k)
    if not prompt:
        raise ValueError("prompt must be non-empty")
    base_opts = replace(options, n_max=n_grid[0], k_draft=k_grid[0])
    base = base_error = None
    try:
        base = _decode_fresh(baseline_decode, new_oracle, prompt, base_opts, cost_model)
    except Exception as exc:  # noqa: BLE001 - recorded in every cell
        base_error = f"{type(exc).__name__}: {exc}"
    cells, errors = {}, {}
    for n in n_grid:
        for k in k_grid:
            cells[n, k] = None
            if base is None:
                errors[f"n={n},k={k}"] = base_error
                continue
            opts = replace(options, n_max=n, k_draft=k)
            try:
                accel = _decode_fresh(speculative_decode, new_oracle, prompt, opts, cost_model)
            except Exception as exc:  # noqa: BLE001 - recorded per cell
                errors[f"n={n},k={k}"] = f"{type(exc).__name__}: {exc}"
                continue
            cells[n, k] = compute_metrics(accel, base, cost_model)
    config = {
        "cost_model": asdict(cost_model),
        "n_grid": n_grid,
        "k_grid": k_grid,
        "prompt_len": len(prompt),
        **{key: value for key, value in asdict(options).items() if key not in ("n_max", "k_draft")},
    }
    if errors:
        config["errors"] = errors
    return SweepTable(cells=cells, config=config)


def write_sweep_csv(table: SweepTable, csv_path: str | Path) -> Path:
    """Write the table's CSV at `csv_path` and its config beside it, at
    `<csv_path>.config.json`; return the config's path."""
    sidecar = Path(f"{csv_path}.config.json")
    _atomic_write(csv_path, table.to_csv())
    _atomic_write(sidecar, json.dumps(table.config, sort_keys=True, indent=2) + "\n")
    return sidecar
