import itertools
import json
from dataclasses import asdict, replace

import pytest

from specdec.decoding import DecodeOptions, baseline_decode, speculative_decode
from specdec.metrics import (
    LosslessnessError,
    compute_metrics,
    sim_total_time,
    sweep,
    theoretical_bound,
    write_sweep_csv,
    SWEEP_CSV_HEADER,
    RunMetrics,
    SweepTable,
)
from specdec.oracle import CostModel, ExternalOracle, ReplayOracle

EOS = 999
FLAT = CostModel(prefill_per_token=0.0, verify_base=1.0, verify_per_token=0.0)


def replay(prompt, target):
    """The prompt and a factory of fresh replay oracles over prompt + target."""
    return list(prompt), lambda: ReplayOracle(list(prompt), list(target), EOS)


def periodic_replay(period, prompt_periods=2, target_periods=60):
    return replay(period * prompt_periods, period * target_periods)


def run_pair(prompt, new_oracle, opts, cost):
    base = baseline_decode(new_oracle(), list(prompt), opts, cost)
    accel = speculative_decode(new_oracle(), list(prompt), opts, cost)
    return accel, base


def test_bound_arithmetic():
    assert theoretical_bound(0.2059, 7) == pytest.approx(2.4413, abs=5e-4)
    assert 2.19 <= theoretical_bound(0.2059, 7)


def test_flat_cost_speedup_equals_tokens_per_step():
    prompt, new_oracle = periodic_replay([3, 4, 5, 6])
    opts = DecodeOptions(n_max=2, k_draft=3, max_new_tokens=24)
    accel, base = run_pair(prompt, new_oracle, opts, FLAT)
    m = compute_metrics(accel, base, FLAT)
    assert m.speedup_sim == pytest.approx(opts.max_new_tokens / m.steps, abs=1e-12)
    assert m.speedup_sim == pytest.approx(m.mean_committed_per_step, abs=1e-12)


def test_flat_cost_identity_with_full_drafts():
    # fully periodic target, unambiguous bigrams: alpha is 1 and the
    # simulated speedup must land exactly on alpha*K + 1
    period = [10, 11, 12, 13, 14, 15]
    for k in (1, 2, 3, 5, 7, 8):
        prompt, new_oracle = periodic_replay(period)
        opts = DecodeOptions(n_max=2, k_draft=k, max_new_tokens=(k + 1) * 12)
        accel, base = run_pair(prompt, new_oracle, opts, FLAT)
        m = compute_metrics(accel, base, FLAT)
        assert m.alpha == 1.0
        assert abs(m.speedup_sim - (1 + m.alpha * k)) < 1e-9


def test_flat_cost_identity_with_partial_alpha():
    # deterministic chains with one ambiguous branch point: drafts always
    # exist (never truncated) but are sometimes rejected; pick M on a step
    # boundary where the last step accepted a full draft, then the identity
    # holds with alpha < 1
    period = [1, 2, 3, 4, 1, 2, 3, 5]
    prompt, new_oracle = periodic_replay(period, prompt_periods=2, target_periods=200)
    k = 2
    probe_opts = DecodeOptions(n_max=2, k_draft=k, max_new_tokens=600)
    probe = speculative_decode(new_oracle(), list(prompt), probe_opts, FLAT)
    total = 0
    chosen = None
    for step in probe.steps:
        assert len(step.drafted) == k or total + len(step.committed) >= probe_opts.max_new_tokens
        total += len(step.committed)
        if step.accepted_count == k and total > 4 * (k + 1):
            chosen = total
            break
    assert chosen is not None, "no full-acceptance step boundary found"
    opts = DecodeOptions(n_max=2, k_draft=k, max_new_tokens=chosen)
    accel, base = run_pair(prompt, new_oracle, opts, FLAT)
    m = compute_metrics(accel, base, FLAT)
    assert 0 < m.alpha < 1
    assert abs(m.speedup_sim - (1 + m.alpha * k)) < 1e-9


def test_alpha_zero_means_no_speedup_under_flat_cost():
    prompt, new_oracle = replay((50, 51), range(40))  # no repeated context anywhere
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=30)
    accel, base = run_pair(prompt, new_oracle, opts, FLAT)
    m = compute_metrics(accel, base, FLAT)
    assert m.alpha == 0.0
    assert m.speedup_sim <= 1.0 + 1e-9


def test_compute_metrics_rejects_divergent_outputs():
    prompt, new_oracle = periodic_replay([7, 8])
    opts = DecodeOptions(n_max=2, k_draft=2, max_new_tokens=8)
    accel, base = run_pair(prompt, new_oracle, opts, FLAT)
    base.output[3] = 12345
    with pytest.raises(LosslessnessError, match="position 3"):
        compute_metrics(accel, base, FLAT)


def test_metrics_recomputable_from_trace_fields():
    prompt, new_oracle = periodic_replay([5, 6, 7])
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=21)
    cm = CostModel(prefill_per_token=0.001, verify_base=1.0, verify_per_token=0.05)
    accel, base = run_pair(prompt, new_oracle, opts, cm)
    m = compute_metrics(accel, base, cm)
    # independent recomputation from the raw step records
    t_accel = 0.001 * accel.prompt_len + sum(
        1.0 + 0.05 * s.verify_batch_len for s in accel.steps if s.verify_batch_len
    )
    t_base = 0.001 * base.prompt_len + sum(
        1.0 + 0.05 * s.verify_batch_len for s in base.steps if s.verify_batch_len
    )
    assert m.speedup_sim == pytest.approx(t_base / t_accel, rel=1e-12)
    assert sim_total_time(accel, cm) == pytest.approx(t_accel, rel=1e-12)
    committed = sum(len(s.committed) for s in accel.steps)
    assert m.mean_committed_per_step == pytest.approx(committed / len(accel.steps))


def test_sweep_shapes_and_k1_bound():
    prompt, new_oracle = periodic_replay([4, 5, 6, 7])
    opts = DecodeOptions(max_new_tokens=24)
    table = sweep(new_oracle, prompt, [2, 3], [1], opts, FLAT)
    assert list(table.cells) == [(2, 1), (3, 1)]
    for m in table.cells.values():
        assert 1.0 - 1e-9 <= m.speedup_sim <= 2.0 + 1e-9
    assert "errors" not in table.config


def test_sweep_row_ordering_and_dedup():
    prompt, new_oracle = periodic_replay([4, 5])
    opts = DecodeOptions(max_new_tokens=8)
    table = sweep(new_oracle, prompt, [3, 2, 3], [2, 1], opts, FLAT)
    assert list(table.cells) == [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_sweep_validates_grids():
    prompt, new_oracle = periodic_replay([4, 5])
    opts = DecodeOptions(max_new_tokens=4)
    with pytest.raises(ValueError):
        sweep(new_oracle, prompt, [], [1], opts)
    with pytest.raises(ValueError):
        sweep(new_oracle, prompt, [2], [0], opts)


def test_sweep_refuses_an_empty_prompt_before_any_decode():
    def unbuilt():
        raise AssertionError("an oracle was built for an empty prompt")

    with pytest.raises(ValueError, match="prompt must be non-empty"):
        sweep(unbuilt, [], [2], [1], DecodeOptions(max_new_tokens=4))


def test_sweep_records_errors_without_aborting():
    bad = lambda: ExternalOracle("127.0.0.1:1")  # nothing listens
    opts = DecodeOptions(max_new_tokens=4)
    table = sweep(bad, [1, 2], [2], [1], opts, FLAT)
    assert table.cells == {(2, 1): None}
    assert list(table.config["errors"]) == ["n=2,k=1"]
    assert table.to_csv().splitlines()[1] == "2,1,nan,nan,nan,nan,nan,nan"


def test_sweep_runs_one_baseline_per_prompt(monkeypatch):
    import specdec.metrics as metrics_mod

    calls = []

    def counting_baseline(*args, **kwargs):
        calls.append(args[1])
        return baseline_decode(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "baseline_decode", counting_baseline)
    prompt, new_oracle = periodic_replay([4, 5, 6])
    table = sweep(new_oracle, prompt, [2, 3], [1, 2], DecodeOptions(max_new_tokens=12), FLAT)
    assert calls == [prompt]
    assert len(table.cells) == 4 and None not in table.cells.values()


def test_sweep_baseline_failure_recorded_in_every_cell():
    built = []

    def bad():
        built.append(1)
        return ExternalOracle("127.0.0.1:1")  # nothing listens

    table = sweep(bad, [1, 2], [2, 3], [1, 2], DecodeOptions(max_new_tokens=4), FLAT)
    assert len(built) == 1  # the baseline's; it is not retried, and no cell decodes without it
    assert list(table.cells.values()) == [None] * 4
    errors = table.config["errors"]
    assert list(errors) == ["n=2,k=1", "n=2,k=2", "n=3,k=1", "n=3,k=2"]
    assert errors["n=2,k=1"].startswith("OracleConnectError: cannot connect to 127.0.0.1:1")
    assert set(errors.values()) == {errors["n=2,k=1"]}


def test_sweep_csv_output(tmp_path):
    prompt, new_oracle = periodic_replay([4, 5, 6])
    opts = DecodeOptions(max_new_tokens=12)
    table = sweep(new_oracle, prompt, [2], [1, 2], opts, FLAT)
    csv_path = tmp_path / "sweep.csv"
    sidecar_path = write_sweep_csv(table, csv_path)
    assert sidecar_path == tmp_path / "sweep.csv.config.json"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    sidecar = json.loads(sidecar_path.read_text())
    assert sidecar["n_grid"] == [2]
    assert sidecar["prompt_len"] == len(prompt)
    assert "oracle" not in sidecar  # the caller describes its oracle (the CLI does)
    assert "errors" not in sidecar  # no cell failed


def test_sweep_csv_writes_the_grid_point_as_ints_and_metrics_to_10_digits():
    m = RunMetrics(alpha=1 / 3, mean_committed_per_step=2.0, speedup_sim=1.23456789012,
                   theoretical_bound=1.5, steps=7, output_len=12)
    assert SweepTable(cells={(2, 3): m, (2, 4): None}, config={}).to_csv() == (
        "n,k,alpha,mean_committed_per_step,speedup_sim,theoretical_bound,steps,output_len\n"
        "2,3,0.3333333333,2,1.23456789,1.5,7,12\n"
        "2,4,nan,nan,nan,nan,nan,nan\n"
    )


def test_sweep_sidecar_holds_every_decode_option_bar_the_grid_axes():
    prompt, new_oracle = periodic_replay([4, 5, 6])
    opts = DecodeOptions(max_new_tokens=12, runtime_update=False, fixed_level_only=True)
    config = sweep(new_oracle, prompt, [2], [1], opts, FLAT).config
    options = {k: v for k, v in asdict(opts).items() if k not in ("n_max", "k_draft")}
    assert {k: config[k] for k in options} == options
    assert set(config) - set(options) == {"cost_model", "n_grid", "k_grid", "prompt_len"}


def test_sweep_sidecar_records_the_errors_of_a_partly_failed_sweep(tmp_path, monkeypatch):
    import specdec.metrics as metrics_mod

    prompt, new_oracle = periodic_replay([4, 5, 6])
    opts = DecodeOptions(max_new_tokens=12)
    whole = sweep(new_oracle, prompt, [2], [1, 2], opts, FLAT)
    real = metrics_mod.speculative_decode

    def fails_at_k2(oracle, prompt, options, cost_model=None):
        if options.k_draft == 2:
            raise RuntimeError(f"k={options.k_draft} broke")
        return real(oracle, prompt, options, cost_model)

    monkeypatch.setattr(metrics_mod, "speculative_decode", fails_at_k2)
    table = sweep(new_oracle, prompt, [2], [1, 2], opts, FLAT)
    sidecar_path = write_sweep_csv(table, tmp_path / "sweep.csv")
    assert json.loads(sidecar_path.read_text())["errors"] == {"n=2,k=2": "RuntimeError: k=2 broke"}
    # the cell that decoded is unchanged; the failed one is nan; the CSV has no error column
    header, ok, failed = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [header, ok] == whole.to_csv().splitlines()[:2]
    assert failed == "2,2,nan,nan,nan,nan,nan,nan"


@pytest.mark.parametrize("fixed, live", list(itertools.product((False, True), repeat=2)))
def test_each_sweep_cell_is_its_decode_pairs_metrics(fixed, live):
    prompt, new_oracle = replay((1, 2, 3, 1, 2), (3, 1, 2, 4) * 3 + (1, 2, 4, 3) * 3)
    opts = DecodeOptions(max_new_tokens=24, fixed_level_only=fixed, runtime_update=live)
    table = sweep(new_oracle, prompt, [2, 4], [1, 3], opts, FLAT)
    for (n, k), cell in table.cells.items():
        pair = run_pair(prompt, new_oracle, replace(opts, n_max=n, k_draft=k), FLAT)
        assert cell == compute_metrics(*pair, FLAT), (n, k)


def test_sweep_honours_fixed_level_only(tmp_path):
    # a short prompt: order 4 misses where orders 2-3 hit, so the two modes draft differently
    prompt, new_oracle = replay((1, 2, 3, 1, 2), (3, 1, 2, 4) * 3 + (1, 2, 4, 3) * 3)
    results = {}
    for fixed in (False, True):
        opts = DecodeOptions(max_new_tokens=24, fixed_level_only=fixed)
        table = sweep(new_oracle, prompt, [4], [3], opts, FLAT)
        sidecar_path = write_sweep_csv(table, tmp_path / "sweep.csv")
        assert json.loads(sidecar_path.read_text())["fixed_level_only"] is fixed
        results[fixed] = table.cells[4, 3].alpha
    assert results[True] != results[False]
