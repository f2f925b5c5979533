"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from oracles import CallLog, counting  # noqa: E402
from tracing import Agg, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, store_size  # noqa: E402

from specdec import bundled  # noqa: E402
from specdec.decoding import DecodeOptions, baseline_decode, speculative_decode  # noqa: E402
from specdec.metrics import sim_total_time  # noqa: E402
from specdec.ngram import NgramStore  # noqa: E402
from specdec.oracle import DEFAULT_COST_MODEL, ExternalOracle, MarkovOracle, ReplayOracle  # noqa: E402
from specdec.server import OracleServer  # noqa: E402

TEXT = list(b"the cat sat on the mat. the cat ate the rat. a cat is a cat. " * 8)
PROMPT, TARGET = TEXT[:40], TEXT[40:]


@pytest.fixture(scope="module")
def server():
    srv = OracleServer(lambda: ReplayOracle(PROMPT, TARGET, eos=256))
    srv.start_background()
    yield srv
    srv.shutdown()


def _oracles(server):
    yield "replay", lambda: ReplayOracle(PROMPT, TARGET, eos=256)
    yield "markov", lambda: MarkovOracle(TEXT, order=2, seed=3)
    yield "external", lambda: ExternalOracle(server.address)


@pytest.mark.parametrize("decode", [baseline_decode, speculative_decode])
def test_wrapper_is_transparent(server, decode):
    opts = DecodeOptions(n_max=4, k_draft=5, max_new_tokens=300)
    for kind, make in _oracles(server):
        plain_oracle, inner = make(), make()
        wrapped = counting(inner, CallLog())
        assert hasattr(wrapped, "truncate_cache") == hasattr(inner, "truncate_cache"), kind
        assert wrapped.vocab_size == inner.vocab_size and wrapped.eos == inner.eos
        plain = decode(plain_oracle, PROMPT, opts)
        seen = decode(wrapped, PROMPT, opts)
        assert seen.output == plain.output, kind
        assert seen.steps == plain.steps, kind
        assert seen.totals == plain.totals, kind
        for oracle in (plain_oracle, inner):
            if hasattr(oracle, "close"):
                oracle.close()


def test_call_log_counts_every_call(server):
    opts = DecodeOptions(n_max=4, k_draft=5, max_new_tokens=300)
    for kind, make in _oracles(server):
        log = CallLog()
        oracle = make()
        res = speculative_decode(counting(oracle, log), PROMPT, opts)
        if hasattr(oracle, "close"):
            oracle.close()
        # One verify call per step that made one, plus the prompt prefill and
        # one replay per reset-based rollback.
        verifies = sum(1 for s in res.steps if s.verify_batch_len)
        assert log.extend_calls == verifies + 1 + log.replays, kind
        if kind == "external":
            assert log.truncates == 0 and log.replays == log.resets - 1 > 0
            assert log.extend_calls > res.totals.llm_calls
            assert log.sim_time(DEFAULT_COST_MODEL) > sim_total_time(res, DEFAULT_COST_MODEL)
        else:
            assert log.replays == 0 and log.resets == 1
            assert log.extend_calls == res.totals.llm_calls
            assert log.sim_time(DEFAULT_COST_MODEL) == sim_total_time(res, DEFAULT_COST_MODEL)


def test_generators_depend_only_on_the_seed():
    corpora = {name: bundled.bundled_bytes(name) for name in inputs.CORPORA}
    for gen in (lambda s: inputs.mixed_script(corpora, s, size=5000),
                lambda s: inputs.shuffled_script(corpora["shuffled.txt"], s)):
        assert gen(1) == gen(1)
        assert gen(1) != gen(2)
    assert len(inputs.mixed_script(corpora, 1, size=5000)) >= 5000
    assert sorted(inputs.shuffled_script(corpora["shuffled.txt"], 1).splitlines()) == sorted(
        inputs.shuffled_script(corpora["shuffled.txt"], 2).splitlines())


def test_store_size_reads_the_program_store():
    # Orders 2 and 3 of 1 2 1 2 3: contexts (1) (2) with 1>2 2>1 2>3, and
    # (1 2) (2 1) with 1 2>1 2 1>2 1 2>3.
    assert store_size(NgramStore([1, 2, 1, 2, 3], 3)) == (4, 6)
    # An evicting store holds less, and the count follows it.
    assert store_size(NgramStore([1, 2, 1, 2, 3], 3, max_contexts=1)) == (2, 2)


def test_self_time_arithmetic():
    #   0 root [0, 100)
    #   ├── 1 a [10, 40)
    #   │   └── 2 b [15, 25)
    #   └── 3 c [50, 90)       gc pause [60, 70) inside c
    starts, ends, parents = [0, 10, 15, 50], [100, 40, 25, 90], [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [100 - 30 - 40, 30 - 10, 10, 40]
    gc_spans = [(60, 70, 3)]
    selfs = self_times(starts, ends, parents, gc_spans)
    assert selfs == [30, 20, 10, 30]
    assert sum(selfs) + 10 == 100  # self times plus gc cover the root exactly


def test_fold_aggregates_by_name():
    tracer = Tracer()
    for name, s, e, p in [("root", 0, 100, -1), ("x", 10, 40, 0), ("x", 50, 90, 0)]:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(s)
        tracer.end.append(e)
        tracer.parent.append(p)
    for arr, v in ((tracer.gc_start, 60), (tracer.gc_end, 70), (tracer.gc_parent, 2),
                   (tracer.gc_gen, 0)):
        arr.append(v)
    agg: dict[str, Agg] = {}
    gcs: dict[str, list] = {"gen0": []}
    tracer.fold(agg, gcs)
    assert (agg["root"].count, agg["root"].total_ns, agg["root"].self_ns) == (1, 100, 30)
    assert (agg["x"].count, agg["x"].total_ns, agg["x"].self_ns) == (2, 70, 60)
    assert gcs["gen0"] == [10]
    assert len(tracer.start) == 0
    assert [tracer.kept[0][k][1] for k in ("name", "start", "end", "parent")] == [1, 10, 40, 0]


def test_traced_run_adds_up(capsys):
    assert run.main(["--workload", "decode-mixed", "--seed", "1", "--seconds", "0.01",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    parts = sum(metrics[b] for b in run.LAYER_SPANS) + metrics["gc.pause_us"]
    assert parts == pytest.approx(metrics["trace.wall_us"], rel=1e-9)


def test_without_the_program_it_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_times_scale_with_the_host_speed_around_them():
    ref = run.hostspeed.REFERENCE_S
    references = WORKLOADS["decode-mixed"].references
    # A host twice as slow for the last three iterations: the decode times
    # double there and so do the reference-loop times next to them.
    samples = [{"accel_s": 1.0, "base_s": [0.5, 0.25], "accel_wall_s": 1.5, "gaps": [1e-4, 2e-4],
                "cal": [{"cpu": ref}, {"cpu": ref}]} for _ in range(6)]
    samples += [{"accel_s": 2.0, "base_s": [1.0, 0.5], "accel_wall_s": 3.0, "gaps": [2e-4, 4e-4],
                 "cal": [{"cpu": 2 * ref}, {"cpu": 2 * ref}]} for _ in range(3)]
    scaled = run.in_reference_seconds(samples, references, 2)
    assert [s["accel_s"] for s in scaled] == [1.0] * 9
    assert [s["base_s"] for s in scaled] == [[0.5, 0.25]] * 9
    assert [list(s["gaps"]) for s in scaled] == [[1e-4, 2e-4]] * 9
    # decode-mixed wall times feed only ratios of interleaved decodes and
    # stay as measured.
    assert [s["accel_wall_s"] for s in scaled] == [1.5] * 6 + [3.0] * 3
    assert scaled[0]["cal"] == samples[0]["cal"]


def test_each_timing_scales_by_its_own_reference():
    # Only the small round trips slow down: the baseline times scale with
    # them, the accelerated times with the whole pass.
    references = {"base_s": ("small_cpu", 1.0), "accel_s": ("cpu", 4.0)}
    samples = [{"base_s": [2.0], "accel_s": 5.0, "cal": [{"small_cpu": 2.0, "cpu": 5.0}]}]
    scaled = run.in_reference_seconds(samples, references, 1)
    assert scaled[0]["base_s"] == [1.0] and scaled[0]["accel_s"] == 4.0


def test_an_iteration_times_and_checks_every_baseline():
    class Short(WORKLOADS["decode-mixed"]):
        max_new_tokens = 300
        baselines = 3

    wl = Short(1)
    wl.setup()
    wl.prepare()
    first, second = wl.iterate(0), wl.iterate(1)
    assert (wl.attempted, wl.failed) == (8, 0)
    for s in (first, second):
        assert len(s["base_s"]) == len(s["base_wall_s"]) == 3
        assert s["accel_s"] > 0 and s["accel_wall_s"] > 0
    assert wl.ref["output_len"] == 300
