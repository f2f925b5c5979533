"""The traced benchmark run (`perfbench/run.py --trace 1`) records spans by
wrapping specdec's entry points by name from outside the package. These
tests fail when a change renames, removes or inlines one of them, which
would otherwise break the traced run or leave its layers reading 0.
`_align_oracle` runs only on rollback steps, the steps after a verify that
rejected a drafted token, so the decode below must reject one.

The untraced run drives specdec through the same workloads; a shortened
run of each checks the rest of its contract with the package."""

from pathlib import Path

import pytest

from specdec import decoding, ngram
from specdec.decoding import DecodeOptions
from specdec.oracle import ReplayOracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEAMS = ("speculative_decode", "baseline_decode", "build_draft", "verify_step", "_align_oracle")


def test_every_name_the_traced_run_wraps_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = {name: getattr(decoding, name) for name in SEAMS}
    query = ngram.NgramStore.query_multilevel
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.instrument(tracer, patches)  # raises on a name that no longer resolves
        prompt = [1, 2, 3, 1, 2, 3, 1, 2]
        oracle = ReplayOracle(prompt, [4, 1, 2, 3] * 6, eos=99)
        decoding.speculative_decode(oracle, prompt, DecodeOptions(max_new_tokens=16))
    finally:
        patches.undo()
    assert {name: getattr(decoding, name) for name in SEAMS} == originals
    assert ngram.NgramStore.query_multilevel is query
    # the decode loop reaches each seam through its module-level name
    spans = {tracer.names[i] for i in tracer.name}
    assert {"decoding.speculative", "decoding.draft", "decoding.verify", "decoding.rollback",
            "ngram.init", "ngram.update", "oracle.build"} <= spans


@pytest.mark.parametrize("name,max_new_tokens", [("decode-mixed", 2_000), ("tcp-shuffled", 300)])
def test_each_workload_runs_two_checked_iterations_untraced(monkeypatch, name, max_new_tokens):
    """`setup`, `prepare` and two iterations, one starting with each decode,
    with no failed decode or check: the call counts of `CountingOracle`,
    the fingerprint of the steps and `CallLog.sim_time` against
    `compute_metrics` bit for bit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS[name](seed=1)
    wl.max_new_tokens = max_new_tokens
    try:
        wl.setup()
        wl.prepare()
        wl.iterate(0)
        wl.iterate(1)
    finally:
        wl.close()
    assert (wl.failed, wl.errors) == (0, [])
    assert wl.ref is not None
