"""The traced benchmark run (`perfbench/run.py --trace 1`) records spans by
wrapping specdec's entry points by name from outside the package. These
tests fail when a change renames, removes or inlines one of them, which
would otherwise break the traced run or leave its layers reading 0.
`_align_oracle` runs only on rollback steps, the steps after a verify that
rejected a drafted token, so the decode below must reject one."""

from pathlib import Path

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
