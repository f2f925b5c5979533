import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.oracle import (
    CostModel,
    MarkovOracle,
    ReplayOracle,
    simulate_cost,
)

from conftest import greedy_markov_continuation

EOS = 999


def scripted(target, prompt=(1, 2, 3)):
    return ReplayOracle(list(prompt), list(target), eos=EOS)


def test_replay_prefill_then_single_extend():
    o = scripted([5, 6, 7])
    o.extend([1, 2, 3])
    assert o.extend([5]) == [6]


def test_replay_prefill_predictions_follow_script():
    o = scripted([5, 6, 7], prompt=[1, 2])
    assert o.extend([1, 2]) == [2, 5]


def test_replay_predictions_ignore_token_values():
    o = scripted([5, 6, 7])
    o.extend([1, 2, 3])
    assert o.extend([5, 9, 9]) == [6, 7, EOS]


def test_replay_eos_after_exhaustion():
    o = scripted([5])
    o.extend([1, 2, 3])
    assert o.extend([5, 5, 5]) == [EOS, EOS, EOS]


@settings(max_examples=200, deadline=None)
@given(
    target_len=st.integers(1, 12),
    offset=st.integers(0, 20),
    batch=st.integers(1, 20),
)
def test_replay_extend_matches_per_position_rule(target_len, offset, batch):
    """The prediction after c consumed tokens is script[c], or eos past the
    script's end, for batches inside the script and across its end."""
    target = list(range(10, 10 + target_len))
    script = [1, 2, 3] + target
    o = scripted(target)
    if offset:
        o.extend([0] * offset)
    expected = [script[p] if p < len(script) else EOS
                for p in range(offset + 1, offset + batch + 1)]
    assert o.extend([0] * batch) == expected
    after = offset + batch + 1  # the position the next prediction is read at
    assert o.extend([0]) == [script[after] if after < len(script) else EOS]


def test_replay_requires_target():
    with pytest.raises(ValueError):
        ReplayOracle([1], [], eos=EOS)


def test_reset_reproduces_outputs():
    o = scripted([5, 6, 7])
    first = o.extend([1, 2, 3, 5])
    o.reset()
    assert o.extend([1, 2, 3, 5]) == first


def test_reset_on_fresh_oracle_is_noop():
    o = scripted([5, 6])
    o.reset()
    assert o.extend([1, 2, 3]) == [2, 3, 5]


def test_truncate_cache_rolls_back():
    o = scripted([5, 6, 7, 8])
    o.extend([1, 2, 3, 5, 9, 9])
    o.truncate_cache(4)
    assert o.extend([6]) == [7]


def test_truncate_cache_range_checked():
    o = scripted([5])
    o.extend([1])
    with pytest.raises(ValueError):
        o.truncate_cache(5)


@pytest.mark.parametrize("make", [
    lambda: scripted([5, 6, 7, 8]),
    lambda: MarkovOracle([1, 2, 1, 2, 3], order=1, seed=0),
], ids=["replay", "markov"])
@pytest.mark.parametrize("position", [True, 1.0, "1"])
def test_truncate_cache_refuses_non_int_positions(make, position):
    o, fresh = make(), make()
    preds = o.extend([1, 2, 3])
    fresh.extend([1, 2, 3])
    with pytest.raises(ValueError):
        o.truncate_cache(position)
    # refused before any state changed
    assert o.extend([preds[-1]]) == fresh.extend([preds[-1]])


def test_markov_count_argmax():
    o = MarkovOracle([1, 2, 1, 2], order=1, seed=0)
    assert o.extend([1]) == [2]


def test_markov_tie_breaks_to_smallest_id():
    # context (1) continues to 2 and 3 once each
    o = MarkovOracle([1, 2, 1, 3], order=1, seed=0)
    assert o.extend([1]) == [2]


def test_markov_unseen_context_deterministic():
    a = MarkovOracle([1, 2, 3, 4], order=2, seed=42)
    b = MarkovOracle([1, 2, 3, 4], order=2, seed=42)
    assert a.extend([9, 9]) == b.extend([9, 9])


def test_markov_seed_changes_fallback():
    outs = set()
    for seed in range(20):
        o = MarkovOracle(list(range(30)), order=2, seed=seed)
        outs.add(o.extend([29, 29])[0])
    assert len(outs) > 1


def test_markov_validates_corpus_length():
    with pytest.raises(ValueError):
        MarkovOracle([1, 2], order=2, seed=0)
    with pytest.raises(ValueError):
        MarkovOracle([1, 2, 3], order=0, seed=0)


def test_extend_rejects_empty_batch():
    with pytest.raises(ValueError):
        scripted([5]).extend([])
    with pytest.raises(ValueError):
        MarkovOracle([1, 2, 3], order=1, seed=0).extend([])


@given(
    st.lists(st.integers(0, 9), min_size=5, max_size=80),
    st.lists(st.integers(0, 9), min_size=1, max_size=30),
    st.integers(1, 3),
    st.integers(0, 5),
)
@settings(max_examples=80, deadline=None)
def test_markov_chunking_invariance(corpus, stream, order, seed):
    if len(corpus) <= order:
        return
    whole = MarkovOracle(corpus, order=order, seed=seed)
    piecewise = MarkovOracle(corpus, order=order, seed=seed)
    expected = whole.extend(stream)
    got = []
    i = 0
    while i < len(stream):
        step = 1 + (seed + i) % 3
        got.extend(piecewise.extend(stream[i : i + step]))
        i += step
    assert got == expected


@given(st.lists(st.integers(0, 9), min_size=4, max_size=60), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_replay_chunking_invariance(stream, split_seed):
    o1 = scripted(list(range(40)))
    o2 = scripted(list(range(40)))
    expected = o1.extend(stream)
    cut = 1 + split_seed % (len(stream) - 1)
    got = o2.extend(stream[:cut]) + o2.extend(stream[cut:])
    assert got == expected


def test_markov_extensionally_equal_across_instances(rng):
    corpus = [rng.randrange(12) for _ in range(200)]
    a = MarkovOracle(corpus, order=2, seed=7)
    b = MarkovOracle(corpus, order=2, seed=7)
    for _ in range(1000):
        batch = [rng.randrange(12) for _ in range(rng.randint(1, 4))]
        assert a.extend(batch) == b.extend(batch)
        if rng.random() < 0.1:
            a.reset()
            b.reset()


def test_markov_matches_reference_iteration(rng):
    # greedy self-feeding generation equals an independent count-table loop
    corpus = [rng.randrange(10) for _ in range(150)]
    prefix = [rng.randrange(10) for _ in range(5)]
    o = MarkovOracle(corpus, order=2, seed=3)
    nxt = o.extend(prefix)[-1]
    got = [nxt]
    for _ in range(29):
        nxt = o.extend([nxt])[0]
        got.append(nxt)
    assert got == greedy_markov_continuation(corpus, 2, 3, prefix, 30)


def test_simulate_cost_flat_verify():
    cm = CostModel(prefill_per_token=0.0, verify_base=1.0, verify_per_token=0.0)
    assert simulate_cost(cm, "verify", 8) == 1.0


def test_simulate_cost_default_model():
    cm = CostModel(verify_base=1.0, verify_per_token=0.05)
    assert simulate_cost(cm, "verify", 8) == pytest.approx(1.4)


def test_simulate_cost_prefill_scales_with_batch():
    cm = CostModel(prefill_per_token=0.002)
    assert simulate_cost(cm, "prefill", 500) == pytest.approx(1.0)


def test_simulate_cost_validates():
    cm = CostModel()
    with pytest.raises(ValueError):
        simulate_cost(cm, "verify", 0)
    with pytest.raises(ValueError):
        simulate_cost(cm, "decode", 1)
    with pytest.raises(ValueError):
        CostModel(verify_base=-1.0)


@pytest.mark.parametrize("key", ["prefill_per_token", "verify_base", "verify_per_token"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.5"])
def test_cost_model_refuses_a_value_that_is_not_a_finite_number(key, value):
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        CostModel(**{key: value})


@pytest.mark.parametrize("key", ["prefill_per_token", "verify_base", "verify_per_token"])
@pytest.mark.parametrize("value", [2**53 + 1, 10**400])
def test_cost_model_refuses_an_int_no_float_holds_exactly(key, value):
    # 2**53 + 1 would be stored as 2**53, and float(10**400) overflows
    with pytest.raises(ValueError, match=f"{key} must be a finite number"):
        CostModel(**{key: value})


def test_cost_model_stores_an_int_as_a_float():
    cm = CostModel(verify_base=1)
    assert type(cm.verify_base) is float and cm.verify_base == 1.0
    assert '"verify_base": 1.0,' in json.dumps(asdict(cm))  # as a trace header writes it


@pytest.mark.parametrize("eos", [None, True, 9.0, "9"])
def test_replay_refuses_an_eos_that_is_not_an_int(eos):
    with pytest.raises(ValueError, match="replay eos must be an integer"):
        ReplayOracle([1], [2, 3], eos)
