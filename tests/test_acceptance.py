"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import gc
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from specdec import (
    CostModel,
    DecodeOptions,
    ExternalOracle,
    MarkovOracle,
    NgramStore,
    OracleServer,
    ReplayOracle,
    baseline_decode,
    byte_vocab,
    compute_metrics,
    encode,
    speculative_decode,
    sweep,
    theoretical_bound,
)
from specdec.bundled import bundled_bytes

FLAT = CostModel(prefill_per_token=0.0, verify_base=1.0, verify_per_token=0.0)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE criterion {num} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE criterion {num} ({title}): PASS")


# ---------------------------------------------------------------- criteria 1+2


@pytest.fixture(scope="module")
def randomized_trials():
    """1000 randomized Markov-oracle trials shared by criteria 1 and 2.

    The trials hold over a million gc-tracked objects and live until the
    module ends. They are frozen once built, so the full collections that
    later tests trigger do not traverse them again and again.
    """
    rng = random.Random(20260810)
    results = []
    t0 = time.perf_counter()
    for trial in range(1000):
        vocab = rng.randint(16, 64)
        corpus = [rng.randrange(vocab) for _ in range(rng.randint(200, 2000))]
        order = rng.randint(1, 3)
        prompt = [rng.randrange(vocab) for _ in range(rng.randint(4, 64))]
        opts = DecodeOptions(
            n_max=rng.randint(2, 6),
            k_draft=rng.randint(1, 8),
            max_new_tokens=rng.randint(16, 256),
        )
        seed = rng.randrange(1 << 30)
        base = baseline_decode(MarkovOracle(corpus, order, seed), prompt, opts)
        accel = speculative_decode(MarkovOracle(corpus, order, seed), prompt, opts)
        results.append((trial, opts, base, accel))
    elapsed = time.perf_counter() - t0
    gc.collect()
    gc.freeze()
    yield results, elapsed
    gc.unfreeze()


def test_criterion_1_losslessness(randomized_trials):
    results, elapsed = randomized_trials
    with criterion(1, "losslessness over 1000 randomized trials"):
        assert len(results) == 1000
        for trial, _, base, accel in results:
            assert accel.output == base.output, f"trial {trial} diverged"
        assert elapsed < 60.0, f"trials took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_commit_bound(randomized_trials):
    results, _ = randomized_trials
    with criterion(2, "every step commits between 1 and K+1 tokens"):
        for trial, opts, _, accel in results:
            for step in accel.steps:
                committed = len(step.committed)
                assert 1 <= committed <= opts.k_draft + 1, (
                    f"trial {trial} step {step.step_index} committed {committed}"
                )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_flat_cost_identity():
    with criterion(3, "flat-cost speedup equals alpha*K + 1"):
        t0 = time.perf_counter()
        period = [10, 11, 12, 13, 14, 15]
        prompt = period * 2
        target = period * 100
        for k in range(1, 9):
            opts = DecodeOptions(n_max=2, k_draft=k, max_new_tokens=(k + 1) * 12)
            base = baseline_decode(ReplayOracle(prompt, target, 999), prompt, opts, FLAT)
            accel = speculative_decode(ReplayOracle(prompt, target, 999), prompt, opts, FLAT)
            # precondition: the draft was never truncated by a query miss
            assert all(len(s.drafted) == k for s in accel.steps)
            m = compute_metrics(accel, base, FLAT)
            assert abs(m.speedup_sim - (m.alpha * k + 1.0)) < 1e-9
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_case_study_arithmetic():
    with criterion(4, "bound arithmetic for alpha=0.2059, K=7"):
        bound = theoretical_bound(0.2059, 7)
        assert bound == pytest.approx(2.4413, abs=0.0005)
        assert 2.19 <= bound


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_count_equivalence():
    with criterion(5, "stored counts equal brute-force recounts"):
        rng = random.Random(555)
        t0 = time.perf_counter()
        for _ in range(200):
            n_max = rng.randint(2, 6)
            vocab = rng.randint(8, 64)
            total_len = rng.randint(50, 10000)
            init_len = rng.randint(0, total_len)
            store = NgramStore(
                [rng.randrange(vocab) for _ in range(init_len)], n_max
            )
            for _ in range(total_len - init_len):
                store.update(rng.randrange(vocab))
            seq = store.committed
            levels = {l["n"]: l for l in store.snapshot()["levels"]}
            for n in range(2, n_max + 1):
                expected = Counter(
                    (tuple(seq[i : i + n - 1]), seq[i + n - 1])
                    for i in range(len(seq) - n + 1)
                )
                got = {(tuple(e["context"]), e["next"]): e["count"] for e in levels[n]["entries"]}
                assert got == dict(expected)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"recounts took {elapsed:.1f}s, budget is 30s"


# ------------------------------------------------------- bundled-corpus setup


def bundled_replay():
    """The 600-token prompt and a factory of fresh replay oracles."""
    ids = encode(bundled_bytes("repetitive.txt"), byte_vocab(), "byte")
    prompt = ids[:600]
    return prompt, lambda: ReplayOracle(prompt, ids[600:], byte_vocab().eos)


def run_bundled(n, k, m=1000, runtime_update=True, fixed=False):
    prompt, new_oracle = bundled_replay()
    opts = DecodeOptions(
        n_max=n, k_draft=k, max_new_tokens=m,
        runtime_update=runtime_update, fixed_level_only=fixed,
    )
    cm = CostModel()
    base = baseline_decode(new_oracle(), list(prompt), opts, cm)
    accel = speculative_decode(new_oracle(), list(prompt), opts, cm)
    return accel, compute_metrics(accel, base, cm)


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_multilevel_superiority():
    with criterion(6, "multi-level fallback beats fixed top order"):
        multi, _ = run_bundled(8, 7)
        fixed, _ = run_bundled(8, 7, fixed=True)
        assert multi.totals.proposed_draft_tokens >= fixed.totals.proposed_draft_tokens
        _, m5 = run_bundled(5, 7)
        _, m2 = run_bundled(2, 7)
        assert m5.speedup_sim >= m2.speedup_sim


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_runtime_update_ablation():
    with criterion(7, "runtime updates do not lower the hit ratio"):
        _, live = run_bundled(5, 7)
        _, frozen = run_bundled(5, 7, runtime_update=False)
        assert live.alpha >= frozen.alpha


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_speedup_plateau():
    with criterion(8, "speedup rises in K then plateaus"):
        prompt, new_oracle = bundled_replay()
        opts = DecodeOptions(n_max=5, max_new_tokens=1000)
        table = sweep(new_oracle, prompt, [5], list(range(1, 11)), opts, CostModel())
        speedups = [m.speedup_sim for m in table.cells.values()]
        assert len(speedups) == 10
        k_star = max(range(10), key=lambda i: speedups[i])
        for i in range(k_star):
            assert speedups[i + 1] >= speedups[i] - 1e-9, (
                f"dip before K*={k_star + 1}: {speedups}"
            )
        rise = speedups[5] - speedups[0]  # K=6 vs K=1
        tail = speedups[9] - speedups[5]  # K=10 vs K=6
        assert tail < 0.3 * rise, f"tail {tail:.4f} vs 0.3*rise {0.3 * rise:.4f}"


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_wire_protocol_differential():
    with criterion(9, "served oracle matches in-process oracle"):
        corpus = [i % 13 for i in range(400)]
        make = lambda: MarkovOracle(corpus, order=2, seed=17)  # noqa: E731
        server = OracleServer(make)
        server.start_background()
        try:
            remote = ExternalOracle(server.address)
            local = make()
            rng = random.Random(99)
            consumed = 0  # tracked here, as the decoder tracks it
            for script in range(100):
                for _ in range(rng.randint(1, 10)):
                    roll = rng.random()
                    if roll < 0.15:
                        remote.reset()
                        local.reset()
                        consumed = 0
                    elif roll < 0.45:
                        consumed = rng.randint(0, consumed)
                        remote.truncate_cache(consumed)
                        local.truncate_cache(consumed)
                    else:
                        batch = [rng.randrange(13) for _ in range(rng.randint(1, 6))]
                        assert remote.extend(batch) == local.extend(batch)
                        consumed += len(batch)
            # a rollback that ended the script is checked by the next extend
            assert remote.extend([0]) == local.extend([0])
            remote.close()
        finally:
            server.shutdown()
