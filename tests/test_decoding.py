import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec import decoding
from specdec.decoding import (
    N_MAX_CAP,
    DecodeOptions,
    StepRecord,
    baseline_decode,
    build_draft,
    speculative_decode,
    verify_step,
    write_trace,
)
from specdec.bundled import bundled_bytes
from specdec.metrics import compute_metrics, sim_total_time
from specdec.ngram import NgramStore
from specdec.oracle import (
    DEFAULT_COST_MODEL,
    CostModel,
    ExternalOracle,
    MarkovOracle,
    OracleTransportError,
    ReplayOracle,
    simulate_cost,
)
from specdec.server import OracleServer
from specdec.tokenizer import byte_vocab, encode

from conftest import greedy_markov_continuation

EOS = 777
FLAT = CostModel(prefill_per_token=0.0, verify_base=1.0, verify_per_token=0.0)


def markov(corpus, order, seed, eos):
    """A MarkovOracle that reports `eos` (None: no eos) as its end token,
    with its vocabulary widened to hold it."""
    oracle = MarkovOracle(corpus, order, seed)
    if eos is not None:
        oracle.eos = eos
        oracle.vocab_size = max(oracle.vocab_size, eos + 1)
    return oracle


def replay(prompt, target):
    return ReplayOracle(list(prompt), list(target), eos=EOS)


# ---------------------------------------------------------------- baseline


def test_baseline_emits_target():
    res = baseline_decode(replay([1, 2], [5, 6, 7]), [1, 2], DecodeOptions(max_new_tokens=3))
    assert res.output == [5, 6, 7]


def test_baseline_zero_budget():
    res = baseline_decode(replay([1], [5]), [1], DecodeOptions(max_new_tokens=0))
    assert res.output == []
    assert res.steps == []
    assert res.totals.llm_calls == 1  # prefill only


def test_baseline_call_accounting():
    res = baseline_decode(replay([1], [5] * 50), [1], DecodeOptions(max_new_tokens=10))
    assert res.totals.llm_calls == 11  # prefill + one per emitted token
    assert all(s.verify_batch_len == 1 for s in res.steps)
    assert all(len(s.committed) == 1 for s in res.steps)


def test_baseline_stops_at_eos():
    res = baseline_decode(replay([1], [5, 6]), [1], DecodeOptions(max_new_tokens=10))
    assert res.output == [5, 6, EOS]
    assert res.steps[-1].verify_batch_len == 0  # no call after committing eos


def test_baseline_matches_reference_markov_loop(rng):
    corpus = [rng.randrange(9) for _ in range(200)]
    prompt = [rng.randrange(9) for _ in range(6)]
    res = baseline_decode(
        MarkovOracle(corpus, order=2, seed=11), prompt, DecodeOptions(max_new_tokens=50)
    )
    assert res.output == greedy_markov_continuation(corpus, 2, 11, prompt, 50)


def test_baseline_rejects_empty_prompt():
    with pytest.raises(ValueError):
        baseline_decode(replay([1], [5]), [], DecodeOptions())


def test_speculative_rejects_empty_prompt():
    with pytest.raises(ValueError, match="prompt must be non-empty"):
        speculative_decode(replay([1], [5]), [], DecodeOptions())


class _FailingOracle:
    """Predicts 1 everywhere and fails every extend after its first `ok`."""

    eos = None

    def __init__(self, ok):
        self.ok = ok

    def reset(self):
        pass

    def truncate_cache(self, length):
        pass

    def extend(self, tokens):
        if self.ok == 0:
            raise OracleTransportError("link down")
        self.ok -= 1
        return [1] * len(tokens)


@pytest.mark.parametrize("decode", [baseline_decode, speculative_decode])
@pytest.mark.parametrize("ok,where", [(0, "prefill"), (2, "step 1")])
def test_an_oracle_error_keeps_its_type_and_names_where_it_happened(decode, ok, where):
    with pytest.raises(OracleTransportError, match=f"^{where}: link down$") as raised:
        decode(_FailingOracle(ok), [1, 2], DecodeOptions(max_new_tokens=8))
    assert str(raised.value.__cause__) == "link down"


# ---------------------------------------------------------------- build_draft


def test_build_draft_chains_bigram():
    store = NgramStore([1, 2, 3, 1, 2, 3], 2)
    draft, levels, paid = build_draft(store, [9, 1], 2)
    assert draft == [2, 3]
    assert levels == [2, 2]
    assert paid == 2


def test_build_draft_empty_store():
    store = NgramStore([], 3)
    assert build_draft(store, [1, 2], 4) == ([], [], 0)


def test_build_draft_uses_drafted_tokens_in_context():
    # store holds bigram (2)->3 and trigram (2,3)->4; second query should
    # extend the first drafted token to a trigram context
    store = NgramStore([2, 3, 4], 3)
    draft, levels, _ = build_draft(store, [2], 2)
    assert draft == [3, 4]
    assert levels == [2, 3]


def test_build_draft_truncates_on_miss():
    store = NgramStore([1, 2], 2)
    draft, levels, _ = build_draft(store, [1], 5)
    assert draft == [2]  # (2) has no continuation
    assert levels == [2]


def test_build_draft_fixed_level_only():
    store = NgramStore([1, 2], 3)  # only the bigram table has entries
    assert build_draft(store, [5, 1], 2, min_level=3) == ([], [], 0)
    assert build_draft(store, [5, 1], 2)[0] == [2]


def test_build_draft_does_not_mutate_store():
    store = NgramStore([1, 2, 1, 2], 2)
    before = store.snapshot()
    build_draft(store, [1], 4)
    assert store.snapshot() == before


_COST_MODELS = st.one_of(
    st.builds(
        CostModel,
        prefill_per_token=st.just(0.0),
        verify_base=st.floats(0.0, 2.0),
        verify_per_token=st.floats(0.0, 3.0),
    ),
    st.just(CostModel(0.0, 0.0, 0.0)),
    st.builds(CostModel, verify_base=st.just(0.0), verify_per_token=st.floats(0.0, 1.0)),
)


def _paying_length(levels, hits, reached, cm):
    """Reference cut: how many leading tokens of an uncut draft pay for
    their verify cost, by the rule `NgramStore.draft` applies in its walk."""
    vp = cm.verify_per_token
    if not vp:
        return len(levels)
    vb = cm.verify_base
    expected = cum = 1.0
    for j, level in enumerate(levels):
        cum *= hits[level] / reached[level]
        if cum * (vb + vp * (1 + j)) <= vp * expected:
            return j
        expected += cum
    return len(levels)


def _committed_per_cost(levels, hits, reached, cm, length):
    """Expected committed tokens per unit of verify cost for a draft of
    `length` tokens, in exact arithmetic."""
    expected, cum = Fraction(1), Fraction(1)
    for level in levels[:length]:
        cum *= Fraction(hits[level], reached[level])
        expected += cum
    cost = Fraction(cm.verify_base) + Fraction(cm.verify_per_token) * (1 + length)
    return expected / cost


@given(
    st.lists(st.integers(2, 6), max_size=8),
    st.lists(st.tuples(st.integers(1, 20), st.integers(0, 19)), min_size=7, max_size=7),
    st.floats(0.0, 2.0),
    st.floats(0.001, 3.0),
)
@settings(max_examples=300, deadline=None)
def test_paying_length_maximises_committed_per_cost(levels, counts, vb, vp):
    reached = [c for c, _ in counts]
    hits = [min(c, h + 1) for c, h in counts]
    cm = CostModel(verify_base=vb, verify_per_token=vp)
    paid = _paying_length(levels, hits, reached, cm)
    rates = [float(_committed_per_cost(levels, hits, reached, cm, n))
             for n in range(len(levels) + 1)]
    # up to float rounding: every token kept raised the rate, and the kept
    # length maximises it
    tol = 1 - 1e-12
    assert all(rates[j + 1] > rates[j] * tol for j in range(paid))
    assert rates[paid] >= max(rates) * tol


def test_paying_length_without_per_token_cost_keeps_everything():
    levels = [5, 4, 3, 2]
    hopeless = [1] * 7, [100] * 7
    for cm in (FLAT, CostModel(0.0, 0.0, 0.0)):
        assert _paying_length(levels, *hopeless, cm) == 4
    assert _paying_length(levels, *hopeless, CostModel()) == 0
    assert _paying_length(levels, [1] * 7, [1] * 7, CostModel()) == 4


@st.composite
def _walks(draw):
    """A store, a tail (maybe shorter than n_max - 1), k, min_level, and
    per-level counts with hits <= reached."""
    n_max = draw(st.integers(2, 6))
    tok = st.integers(0, draw(st.integers(0, 4)))
    store = NgramStore(draw(st.lists(tok, max_size=60)), n_max)
    for batch in draw(st.lists(st.lists(tok, min_size=1, max_size=4), max_size=4)):
        store.update(*batch)
    tail = draw(st.lists(tok, max_size=n_max + 1))
    reached = draw(st.lists(st.integers(1, 20), min_size=n_max + 1, max_size=n_max + 1))
    hits = [draw(st.integers(0, r)) for r in reached]
    return store, tail, draw(st.integers(1, 8)), draw(st.sampled_from([2, n_max])), hits, reached


@given(_walks(), _COST_MODELS)
@settings(max_examples=400, deadline=None)
def test_cut_walk_is_the_uncut_draft_cut_by_the_reference(walk, cm):
    store, tail, k, min_level, hits, reached = walk
    full, full_levels, full_paid = store.draft(tail, k, min_level=min_level)
    assert full_paid == len(full)
    tokens, levels, paid = store.draft(tail, k, min_level=min_level, counts=(hits, reached),
                                       cost_model=cm)
    assert paid == _paying_length(full_levels, hits, reached, cm)
    # the walk stops right after the first token that does not pay
    assert (tokens, levels) == (full[: paid + 1], full_levels[: paid + 1])


# ---------------------------------------------------------------- verify_step


def test_verify_step_no_draft():
    o = replay([1, 2, 3], [5, 6])
    o.extend([1, 2, 3])
    assert verify_step(o, 5, []) == (0, 6)


def test_verify_step_full_acceptance_returns_bonus():
    o = replay([1], [5, 6, 7, 8])
    o.extend([1])
    assert verify_step(o, 5, [6, 7]) == (2, 8)


def test_verify_step_mismatch_returns_correction():
    o = replay([1], [5, 6, 7, 8])
    o.extend([1])
    assert verify_step(o, 5, [6, 9]) == (1, 7)


# ---------------------------------------------------------------- accelerated loop


def test_perfect_drafts_on_periodic_target():
    prompt = [1, 2, 1, 2]
    target = [1, 2] * 20
    opts = DecodeOptions(n_max=2, k_draft=2, max_new_tokens=6)
    res = speculative_decode(replay(prompt, target), prompt, opts, FLAT)
    assert res.output == target[:6]
    assert [len(s.committed) for s in res.steps] == [3, 3]
    assert [s.accepted_count for s in res.steps] == [2, 2]


def test_hostile_target_never_accepts():
    prompt = [100, 101]
    target = [1, 2, 3, 4, 5, 6, 7, 8]  # never repeats
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=8)
    res = speculative_decode(replay(prompt, target), prompt, opts, FLAT)
    assert res.output == target
    assert res.totals.accepted_draft_tokens == 0
    assert all(len(s.committed) == 1 for s in res.steps)


def test_empty_draft_degenerates_to_single_token_step():
    prompt = [9]
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=1)
    res = speculative_decode(replay(prompt, [5, 6]), prompt, opts, FLAT)
    assert res.output == [5]
    assert res.steps[0].drafted == []
    assert res.steps[0].verify_batch_len == 1


def test_output_capped_at_max_new_tokens():
    prompt = [1, 2, 1, 2]
    target = [1, 2] * 30
    for m in range(1, 12):
        opts = DecodeOptions(n_max=2, k_draft=5, max_new_tokens=m)
        res = speculative_decode(replay(prompt, target), prompt, opts, FLAT)
        assert res.output == target[:m]


def test_eos_as_carried_token_ends_loop():
    prompt = [1, 2]
    res = speculative_decode(
        replay(prompt, [5, 6]), prompt, DecodeOptions(n_max=2, k_draft=3, max_new_tokens=10), FLAT
    )
    assert res.output == [5, 6, EOS]
    assert res.steps[-1].verify_batch_len == 0


def test_eos_inside_accepted_draft_discards_rest():
    # the prompt teaches the store to draft EOS after 1, and the script
    # accepts it: commitment must stop at EOS mid-draft
    prompt = [1, EOS, 1, EOS]
    target = [1, EOS, 1, EOS, 1]
    opts = DecodeOptions(n_max=2, k_draft=4, max_new_tokens=10)
    base = baseline_decode(replay(prompt, target), prompt, opts, FLAT)
    res = speculative_decode(replay(prompt, target), prompt, opts, FLAT)
    assert base.output == [1, EOS]
    assert res.output == base.output
    last = res.steps[-1]
    assert last.accepted_count >= 1
    assert last.committed[-1] == EOS
    assert len(last.drafted) > last.accepted_count  # rest of the draft discarded


def test_trace_consistency_invariants(rng):
    corpus = [rng.randrange(10) for _ in range(400)]
    prompt = [rng.randrange(10) for _ in range(8)]
    opts = DecodeOptions(n_max=4, k_draft=5, max_new_tokens=64)
    res = speculative_decode(MarkovOracle(corpus, 2, 5), prompt, opts, FLAT)
    assert sum(len(s.committed) for s in res.steps) == len(res.output)
    assert sum(s.accepted_count for s in res.steps) == res.totals.accepted_draft_tokens
    assert sum(len(s.drafted) for s in res.steps) == res.totals.proposed_draft_tokens
    for s in res.steps:
        assert 1 <= len(s.committed) <= opts.k_draft + 1
        assert len(s.committed) == s.accepted_count + 1
        assert len(s.drafted) == len(s.draft_levels)
        if s.verify_batch_len:
            assert s.verify_batch_len == 1 + len(s.drafted)
    call_steps = sum(1 for s in res.steps if s.verify_batch_len)
    assert res.totals.llm_calls == 1 + call_steps


class _Spy:
    """Logs every call an oracle receives."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.eos = inner.eos
        self.calls = []

    def reset(self):
        self.calls.append(("reset",))
        self._inner.reset()

    def extend(self, tokens):
        preds = self._inner.extend(tokens)
        self.calls.append(("extend", list(tokens), list(preds)))
        return preds

    def truncate_cache(self, length):
        self.calls.append(("truncate", length))
        self._inner.truncate_cache(length)


def test_rollbacks_count_the_non_final_verify_steps_that_rejected(rng):
    seen = set()
    for _ in range(40):
        corpus = [rng.randrange(6) for _ in range(200)]
        prompt = [rng.randrange(6) for _ in range(rng.randint(1, 10))]
        opts = DecodeOptions(n_max=rng.randint(2, 5), k_draft=rng.randint(1, 7),
                             max_new_tokens=rng.randint(0, 80))
        eos = rng.choice([None, 5])  # a corpus token, so some decodes end at eos
        oracle = _Spy(markov(corpus, rng.randint(1, 3), rng.randrange(99), eos))
        res = speculative_decode(oracle, prompt, opts)
        verifies = [s for s in res.steps if s.verify_batch_len]
        rejecting = sum(1 for s in verifies[:-1] if s.accepted_count < len(s.drafted))
        truncates = sum(1 for call in oracle.calls if call[0] == "truncate")
        assert res.totals.rollbacks == rejecting == truncates
        # whether the last verify step is followed by the call-less eos step
        seen.add((rejecting > 0, bool(verifies) and res.steps[-1].verify_batch_len == 0))
    assert seen == {(False, False), (True, False), (True, True), (False, True)}


def test_decoder_truncates_only_right_after_a_rejecting_verify(rng):
    """The decoder tracks what the oracle consumed itself, and truncates
    once per rollback, each time right after a verify that rejected a
    drafted token, to the committed prefix before the carried token."""
    seen = set()
    for i in range(120):
        vocab = rng.randint(2, 6)
        prompt = [rng.randrange(vocab) for _ in range(rng.randint(1, 12))]
        budget = (0, 1, rng.randint(2, 80))[i % 3]
        opts = DecodeOptions(n_max=rng.randint(2, 5), k_draft=rng.randint(1, 7),
                             max_new_tokens=budget)
        eos = rng.choice([None, 0])  # a vocabulary token, so some decodes end at eos
        if i % 2:
            corpus = [rng.randrange(vocab) for _ in range(150)]
            order, seed = rng.randint(1, 3), rng.randrange(99)
            # the prompt runs on with the oracle's own output, so drafts are accepted
            prompt += greedy_markov_continuation(corpus, order, seed, prompt, 30)
            inner = markov(corpus, order, seed, eos)
        else:
            # the prompt repeated with noise, so drafts are accepted, eos among them
            script = [t if rng.random() < 0.8 else rng.randrange(vocab) for t in prompt * 10]
            inner = ReplayOracle(prompt, script, eos=vocab if eos is None else eos)
        spy = _Spy(inner)
        res = speculative_decode(spy, prompt, opts)
        calls = spy.calls
        assert calls[:2] == [("reset",), ("extend", prompt, calls[1][2])]
        verifies = [c for c in calls[2:] if c[0] == "extend"]
        steps = [s for s in res.steps if s.verify_batch_len]
        assert [c[1] for c in verifies] == [[s.committed[0], *s.drafted] for s in steps]
        assert sum(1 for c in calls if c[0] == "truncate") == res.totals.rollbacks
        # `done`: the committed prefix before the carried token after each
        # verify, which is where a rollback must leave the oracle
        consumed = done = len(prompt)
        step = 0
        for j, call in enumerate(calls[2:], 2):
            if call[0] == "extend":
                consumed += len(call[1])
                done += len(steps[step].committed)
                step += 1
                continue
            kind, batch, preds = calls[j - 1]
            assert kind == "extend" and j - 1 > 1  # right after a verify, not the prefill
            accepted = steps[step - 1].accepted_count
            assert batch[1:accepted + 1] == preds[:accepted]
            assert accepted < len(batch) - 1 and batch[accepted + 1] != preds[accepted]
            assert call[1] == done == consumed - (len(batch) - 1 - accepted)
            consumed = call[1]
        last = res.steps[-1] if res.steps else None
        seen.add((budget if budget < 2 else "more", i % 2,
                  bool(last and last.verify_batch_len and last.committed[-1] == eos)))
        seen.add(("rollbacks", res.totals.rollbacks > 0))
    # every budget for both oracles, an eos-trimmed last step, and rollbacks
    assert {(b, m, False) for b in (0, 1, "more") for m in (0, 1)} <= seen
    assert {("more", 0, True), ("more", 1, True), ("rollbacks", True)} <= seen


def test_call_count_never_exceeds_baseline(rng):
    corpus = [rng.randrange(8) for _ in range(300)]
    prompt = [rng.randrange(8) for _ in range(6)]
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=48)
    base = baseline_decode(MarkovOracle(corpus, 1, 2), prompt, opts, FLAT)
    accel = speculative_decode(MarkovOracle(corpus, 1, 2), prompt, opts, FLAT)
    assert accel.totals.llm_calls <= base.totals.llm_calls


def test_store_matches_trace_replay(rng):
    corpus = [rng.randrange(10) for _ in range(300)]
    prompt = [rng.randrange(10) for _ in range(10)]
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=40)
    res = speculative_decode(MarkovOracle(corpus, 2, 9), prompt, opts, FLAT)
    fresh = NgramStore(prompt, opts.n_max)
    for step in res.steps:
        for tok in step.committed:
            fresh.update(tok)
    assert fresh.snapshot() == res.store.snapshot()


def test_identical_decodes_compare_equal(rng):
    corpus = [rng.randrange(8) for _ in range(200)]
    prompt = [rng.randrange(8) for _ in range(8)]
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=40)
    a, b = (speculative_decode(MarkovOracle(corpus, 1, 7), prompt, opts) for _ in range(2))
    assert a.store is not b.store
    assert a == b
    assert a != dataclasses.replace(a, output=a.output[:-1])


def test_runtime_update_off_freezes_store(rng):
    corpus = [rng.randrange(6) for _ in range(200)]
    prompt = [rng.randrange(6) for _ in range(8)]
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=40, runtime_update=False)
    base = baseline_decode(MarkovOracle(corpus, 1, 3), prompt, opts, FLAT)
    res = speculative_decode(MarkovOracle(corpus, 1, 3), prompt, opts, FLAT)
    assert res.output == base.output  # ablation must stay lossless
    assert res.store.snapshot() == NgramStore(prompt, 3).snapshot()
    assert res.store.committed == prompt  # the loop kept the output in a list of its own


def test_runtime_update_off_drafts_from_the_prompt_store(rng):
    """Without runtime updates each step drafts what a store of the prompt
    alone drafts from that step's committed tail; with a zero per-token
    cost every drafted token pays, so the draft is the store's in full."""
    seen_drafts = 0
    for _ in range(40):
        corpus = [rng.randrange(6) for _ in range(200)]
        prompt = [rng.randrange(6) for _ in range(rng.randint(1, 30))]
        opts = DecodeOptions(n_max=rng.randint(2, 5), k_draft=rng.randint(1, 6),
                             max_new_tokens=rng.randint(0, 60), runtime_update=False)
        res = speculative_decode(MarkovOracle(corpus, 1, 5), prompt, opts, FLAT)
        frozen = NgramStore(prompt, opts.n_max)
        done = 0  # output tokens committed before the step's carried token
        for step in res.steps:
            tail = prompt + res.output[:done + 1]
            k = min(opts.k_draft, opts.max_new_tokens - done - 1)
            expected = frozen.draft(tail, k)[:2] if k > 0 and step.verify_batch_len else ([], [])
            assert (step.drafted, step.draft_levels) == expected
            seen_drafts += bool(step.drafted)
            done += len(step.committed)
        assert frozen.committed == prompt  # drafting never feeds the store
    assert seen_drafts


def test_losslessness_randomized_replay(rng):
    for _ in range(200):
        vocab = rng.randint(4, 32)
        prompt = [rng.randrange(vocab) for _ in range(rng.randint(1, 12))]
        target = [rng.randrange(vocab) for _ in range(rng.randint(1, 80))]
        opts = DecodeOptions(
            n_max=rng.randint(2, 6),
            k_draft=rng.randint(1, 8),
            max_new_tokens=rng.randint(0, 100),
        )
        base = baseline_decode(replay(prompt, target), prompt, opts, FLAT)
        accel = speculative_decode(replay(prompt, target), prompt, opts, FLAT)
        assert accel.output == base.output


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(1, 6),
    st.integers(1, 64),
)
@settings(max_examples=120, deadline=None)
def test_losslessness_property_markov(seed, n_max, k_draft, m):
    r = random.Random(seed)
    vocab = r.randint(4, 24)
    order = r.randint(1, 3)
    corpus = [r.randrange(vocab) for _ in range(r.randint(order + 1, 300))]
    prompt = [r.randrange(vocab) for _ in range(r.randint(1, 16))]
    opts = DecodeOptions(n_max=n_max, k_draft=k_draft, max_new_tokens=m)
    base = baseline_decode(MarkovOracle(corpus, order, seed % 97), prompt, opts)
    accel = speculative_decode(MarkovOracle(corpus, order, seed % 97), prompt, opts)
    assert accel.output == base.output


@given(st.integers(0, 2**32 - 1), st.booleans(), _COST_MODELS)
@settings(max_examples=150, deadline=None)
def test_losslessness_over_cost_models(seed, use_markov, cm):
    r = random.Random(seed)
    vocab = r.randint(3, 12)
    prompt = [r.randrange(vocab) for _ in range(r.randint(1, 30))]
    opts = DecodeOptions(n_max=r.randint(2, 6), k_draft=r.randint(1, 8),
                         max_new_tokens=r.randint(0, 120))
    if use_markov:
        order = r.randint(1, 3)
        corpus = [r.randrange(vocab) for _ in range(r.randint(order + 1, 200))]
        make = lambda: MarkovOracle(corpus, order, seed % 97)  # noqa: E731
    else:
        target = [r.randrange(vocab) for _ in range(r.randint(1, 150))]
        make = lambda: replay(prompt, target)  # noqa: E731
    base = baseline_decode(make(), prompt, opts, cm)
    accel = speculative_decode(make(), prompt, opts, cm)
    assert accel.output == base.output
    assert all(len(s.drafted) <= opts.k_draft for s in accel.steps)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0, 1, None]),
       st.sampled_from([1, None]), _COST_MODELS)
@settings(max_examples=200, deadline=None)
def test_step_log_reads_as_the_records_it_logged(seed, use_markov, budget, k_draft, cm):
    """`speculative_decode`'s steps are a log read as records: budget 0 and 1,
    k_draft 1, budget cuts and (replay scripts shorter than the budget, or a
    Markov eos that is a corpus token) eos inside the budget."""
    r = random.Random(seed)
    vocab = r.randint(3, 10)
    prompt = [r.randrange(vocab) for _ in range(r.randint(1, 20))]
    opts = DecodeOptions(n_max=r.randint(2, 5), k_draft=k_draft or r.randint(1, 8),
                         max_new_tokens=r.randint(2, 120) if budget is None else budget)
    if use_markov:
        order = r.randint(1, 3)
        corpus = [r.randrange(vocab) for _ in range(r.randint(order + 1, 200))]
        oracle = markov(corpus, order, seed % 97, r.choice([None, 0]))
    else:
        oracle = replay(prompt, [r.randrange(vocab) for _ in range(r.randint(1, 150))])
    res = speculative_decode(oracle, prompt, opts, cm)
    steps, records = res.steps, list(res.steps)
    assert len(steps) == len(records)
    assert [t for s in records for t in s.committed] == res.output
    assert sum(s.accepted_count for s in records) == res.totals.accepted_draft_tokens
    assert sum(len(s.drafted) for s in records) == res.totals.proposed_draft_tokens
    assert res.totals.llm_calls == 1 + sum(1 for s in records if s.verify_batch_len)
    expected = simulate_cost(cm, "prefill", len(prompt))
    for s in records:
        if s.verify_batch_len:
            assert s.sim_time == simulate_cost(cm, "verify", s.verify_batch_len)
            expected += simulate_cost(cm, "verify", s.verify_batch_len)
    assert sim_total_time(res, cm) == expected  # bit for bit
    n = len(records)
    assert [steps[i] for i in range(n)] == records
    assert [steps[i] for i in range(-n, 0)] == records
    for cut in (slice(None), slice(1, None), slice(-3, None), slice(None, None, -2),
                slice(n // 2, 0, -3), slice(-n // 2, -1), slice(5, 2)):
        assert steps[cut] == records[cut]
    assert steps == records and records == steps
    with pytest.raises(IndexError):
        steps[n]


def test_speculative_decode_and_metrics_build_no_step_record(monkeypatch):
    prompt = [1, 2, 3, 1, 2, 3]
    target = [1, 2, 3] * 20  # then EOS, inside the budget
    opts = DecodeOptions(n_max=3, k_draft=4, max_new_tokens=100)
    base = baseline_decode(replay(prompt, target), prompt, opts, FLAT)

    def refuse(*args):
        raise AssertionError("a StepRecord was built")

    with monkeypatch.context() as patched:
        patched.setattr(decoding, "StepRecord", refuse)
        res = speculative_decode(replay(prompt, target), prompt, opts, FLAT)
        metrics = compute_metrics(res, base, FLAT)
    assert metrics.steps == len(res.steps) > 1
    last = res.steps[-1]
    assert isinstance(last, StepRecord)
    assert (last.committed, last.verify_batch_len) == ([EOS], 0)


def test_a_strided_slice_builds_only_the_records_it_returns(monkeypatch):
    prompt = [1, 2, 3, 1, 2, 3]
    res = speculative_decode(replay(prompt, [1, 2, 3, 4] * 30), prompt,
                             DecodeOptions(n_max=3, k_draft=4, max_new_tokens=100), FLAT)
    records = list(res.steps)
    assert len(records) > 20
    built = []

    def counting(*args):
        built.append(args[0])
        return StepRecord(*args)

    monkeypatch.setattr(decoding, "StepRecord", counting)
    for cut in (slice(1, None, 5), slice(None, None, -4), slice(-2, 3, -7)):
        built.clear()
        picked = res.steps[cut]
        assert built == list(range(len(records)))[cut] == [s.step_index for s in picked]
        assert picked == records[cut]


def test_result_survives_the_benchmarks_store_drop():
    """The benchmark drops each result's store with `dataclasses.replace`
    and hashes each step's seven fields."""
    prompt = [1, 2, 3, 1, 2, 3]
    res = speculative_decode(replay(prompt, [1, 2, 3] * 20), prompt,
                             DecodeOptions(n_max=3, k_draft=4, max_new_tokens=40), FLAT)
    assert res.store is not None
    dropped = dataclasses.replace(res, store=None)
    assert dropped.store is None
    assert (dropped.output, dropped.steps, dropped.totals) == (res.output, res.steps, res.totals)
    fields = ("step_index", "drafted", "draft_levels", "accepted_count", "committed",
              "verify_batch_len", "sim_time")
    assert [f.name for f in dataclasses.fields(StepRecord)] == list(fields)
    lines = [json.dumps([getattr(s, f) for f in fields]) for s in dropped.steps]
    assert lines == [json.dumps(list(dataclasses.astuple(s))) for s in res.steps]


def test_draft_lengths_follow_the_per_level_counts(rng):
    """Replays a decode's trace: each step verifies the paying prefix of the
    uncut draft under the counts of the steps before it, and the counts
    move as speculative_decode documents."""
    corpus = [rng.randrange(5) for _ in range(300)]
    prompt = [rng.randrange(5) for _ in range(12)]
    opts = DecodeOptions(n_max=4, k_draft=6, max_new_tokens=200)
    cm = CostModel(verify_base=1.0, verify_per_token=0.3)
    res = speculative_decode(MarkovOracle(corpus, 2, 4), prompt, opts, cm)
    store = NgramStore(prompt, opts.n_max)
    hits, reached = [1] * (opts.n_max + 1), [1] * (opts.n_max + 1)
    cut = judged_cut = 0
    for step, nxt in zip(res.steps, res.steps[1:]):
        store.update(step.committed[0])
        k_use = min(opts.k_draft, opts.max_new_tokens - (len(store.committed) - len(prompt)))
        full, full_levels, _ = build_draft(store, store.committed, k_use)
        paid = _paying_length(full_levels, hits, reached, cm)
        assert (step.drafted, step.draft_levels) == (full[:paid], full_levels[:paid])
        cut += paid < len(full)
        acc = step.accepted_count
        for level in full_levels[:acc]:
            hits[level] += 1
            reached[level] += 1
        if acc < len(full):
            reached[full_levels[acc]] += 1
            hits[full_levels[acc]] += full[acc] == nxt.committed[0]
            judged_cut += acc == paid
        store.update(*step.committed[1:])
    assert cut > 0 and judged_cut > 0  # some drafts were cut, and a cut token judged


# sha256 over the StepRecords (as JSON) that the decoder produced when every
# draft ran to k_draft; with verify_per_token = 0 they must not change.
_FULL_LENGTH_STEPS = {
    ("shuffled.txt", "replay", 1.0): "86e1b114ef672d37d5b63faf0f156ee3a732349ac4fd17e0ad096f0a026598b5",
    ("shuffled.txt", "replay", 0.0): "32192a602c7ee74607867a83840c416789cb7afeb31ca460a857be93f22b1fcb",
    ("repetitive.txt", "markov", 1.0): "9333050df94a7969a764206c5337d3bb883788996401647d427196796bacce9d",
    ("patterned_code.txt", "replay", 0.0): "b61ef5b18d716bba78cc4bed92a4f1f8dc3ac8069880564818935acae900451c",
}


def _bundled_oracle(corpus, kind, prompt_len=200):
    vocab = byte_vocab()
    ids = encode(bundled_bytes(corpus), vocab, "byte")
    prompt = ids[:prompt_len]
    if kind == "replay":
        return prompt, lambda: ReplayOracle(prompt, ids[prompt_len:], vocab.eos)
    return prompt, lambda: markov(ids, 3, 0, vocab.eos)


def _steps_sha256(corpus, kind, cm=DEFAULT_COST_MODEL):
    prompt, make = _bundled_oracle(corpus, kind)
    res = speculative_decode(make(), prompt, DecodeOptions(n_max=5, k_draft=7,
                                                           max_new_tokens=1000), cm)
    return hashlib.sha256(json.dumps([dataclasses.asdict(s) for s in res.steps]).encode()).hexdigest()


@pytest.mark.parametrize("corpus,kind,verify_base", sorted(_FULL_LENGTH_STEPS))
def test_zero_verify_per_token_keeps_full_length_steps(corpus, kind, verify_base):
    prefill = 0.002 if kind == "markov" else 0.0
    cm = CostModel(prefill_per_token=prefill, verify_base=verify_base, verify_per_token=0.0)
    assert _steps_sha256(corpus, kind, cm) == _FULL_LENGTH_STEPS[(corpus, kind, verify_base)]


# The same hash under the default cost model, where drafts are cut; pinned
# while the cut still ran over the uncut draft, before it moved into the
# store's draft walk.
_DEFAULT_COST_STEPS = {
    ("patterned_code.txt", "markov"): "27f0aabe4d013dc88fc46ce969768a6dd112a3e034a41f224499496e179bdcd6",
    ("patterned_code.txt", "replay"): "48463306679ceb7d331e7a239ebdfc64dc2200f9bcc023dfc2882d4fde0accba",
    ("repetitive.txt", "markov"): "8349163ee537ad23aca520f82df89617d81a06a7d1f94119f995a67a1f909fb9",
    ("repetitive.txt", "replay"): "5285ea8b5ae9758aefed128675e0f87b7868cd986e1409225f5b756bdd33aaa8",
    ("shuffled.txt", "markov"): "81326e55eeb752f3c6760979339997da9d4ee97143ec16cd6efa62f3e910020a",
    ("shuffled.txt", "replay"): "5dfce34b3842a04c573b808a63e21fd8335dc5c3d173ecb6d883197a4bbcfd5d",
}


@pytest.mark.parametrize("corpus,kind", sorted(_DEFAULT_COST_STEPS))
def test_default_cost_steps_are_pinned(corpus, kind):
    assert _steps_sha256(corpus, kind) == _DEFAULT_COST_STEPS[(corpus, kind)]


# speedup_sim (default cost model, n=5, k=7, 200-token prompt, 1,000 new
# tokens) with every draft run to k_draft; the cost-aware length must not
# fall below any of them, and lifts shuffled text above 1.
_FULL_LENGTH_SPEEDUP = {
    ("shuffled.txt", "replay"): 0.9120826640038071,
    ("shuffled.txt", "markov"): 4.862962962962861,
    ("repetitive.txt", "replay"): 2.22754744989924,
    ("repetitive.txt", "markov"): 4.999524036173146,
    ("patterned_code.txt", "replay"): 3.376949043562067,
    ("patterned_code.txt", "markov"): 5.949589351458387,
}


def _speedup(make, prompt):
    opts = DecodeOptions(n_max=5, k_draft=7, max_new_tokens=1000)
    base = baseline_decode(make(), prompt, opts)
    return compute_metrics(speculative_decode(make(), prompt, opts), base).speedup_sim


@pytest.mark.parametrize("corpus,kind", sorted(_FULL_LENGTH_SPEEDUP))
def test_cost_aware_length_never_loses_speedup(corpus, kind):
    prompt, make = _bundled_oracle(corpus, kind)
    speedup = _speedup(make, prompt)
    assert speedup >= _FULL_LENGTH_SPEEDUP[(corpus, kind)] - 1e-9
    if corpus == "shuffled.txt":
        assert speedup >= 1.0


def test_cost_aware_length_pays_off_on_shuffled_text_over_tcp():
    prompt, make = _bundled_oracle("shuffled.txt", "replay")
    server = OracleServer(make)
    server.start_background()
    opened = []

    def remote():
        opened.append(ExternalOracle(server.address))
        return opened[-1]

    try:
        assert _speedup(remote, prompt) == _speedup(make, prompt) >= 1.0
    finally:
        for oracle in opened:
            oracle.close()
        server.shutdown()


def test_decode_options_validation():
    with pytest.raises(ValueError, match="n_max must be >= 2"):
        DecodeOptions(n_max=1)
    with pytest.raises(ValueError, match="k_draft must be >= 1"):
        DecodeOptions(k_draft=0)
    with pytest.raises(ValueError, match="max_new_tokens must be >= 0"):
        DecodeOptions(max_new_tokens=-1)
    DecodeOptions(n_max=N_MAX_CAP)
    with pytest.raises(ValueError, match=f"n_max must be <= {N_MAX_CAP}"):
        DecodeOptions(n_max=N_MAX_CAP + 1)


@pytest.mark.parametrize("field, value", [
    ("n_max", 3.0), ("n_max", True), ("k_draft", 2.5), ("k_draft", True),
    ("max_new_tokens", 3.5), ("max_new_tokens", False),
    ("runtime_update", 1), ("fixed_level_only", "yes"),
])
def test_decode_options_refuse_a_wrong_type_before_the_oracle(field, value):
    # refused when built, so no decode loop ever receives it
    with pytest.raises(ValueError, match=f"^{field} must be of type"):
        DecodeOptions(**{field: value})


def test_decode_options_cannot_be_changed_past_their_checks():
    opts = DecodeOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.n_max = 1
    assert opts == DecodeOptions()


def test_trace_round_trip(tmp_path):
    prompt = [1, 2, 1, 2]
    opts = DecodeOptions(n_max=2, k_draft=2, max_new_tokens=6)
    res = speculative_decode(replay(prompt, [1, 2] * 10), prompt, opts, FLAT)
    path = tmp_path / "trace.jsonl"
    write_trace(path, res, {"kind": "replay", "eos": EOS}, FLAT)
    header, *steps = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    assert header["oracle"] == {"kind": "replay", "eos": EOS}
    assert header["prompt_len"] == 4
    assert header["n"] == 2 and header["k"] == 2
    assert header["cost_model"]["verify_base"] == 1.0
    assert len(steps) == len(res.steps)
    assert steps[0]["committed"] == res.steps[0].committed
    assert steps[0]["batch"] == res.steps[0].verify_batch_len
