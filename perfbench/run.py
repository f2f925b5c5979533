"""Run one workload of the specdec benchmark and print its metrics.

    python3 perfbench/run.py --workload decode-mixed --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, sets the program up several
times (the median is `setup_s`), then decodes for `--seconds` seconds,
checking every output against `baseline_decode`. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it traces half of the
iterations, interleaved with untraced ones, and reports the per-layer
metrics.
Each metric is printed by name with its unit; the full result, and with
`--trace 1` the spans, are written under `.perfbench_out/` at the root of
the checkout. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The program is imported from `src/` next to this directory; without it the
run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set up at least this many times and for at least this long; the median is setup_s.
SETUP_REPEATS, SETUP_SECONDS = 5, 3.0
# The most of a traced iteration that may run outside every layer span.
UNATTRIBUTED_SHARE = 0.02

END_TO_END = {
    "tokens_per_s": "tok/s",
    "baseline_tokens_per_s": "tok/s",
    "speedup_wall": "ratio",
    "speedup_sim": "ratio",
    "calls_per_token": "calls/tok",
    "oracle_tokens_per_token": "tok/tok",
    "step_gap_us_p50": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_COUNT = "count"
PER_LAYER = {
    "ngram.init_us": "us", "ngram.init_calls": _COUNT,
    "ngram.update_us": "us", "ngram.update_calls": _COUNT,
    "ngram.query_us": "us", "ngram.query_calls": _COUNT,
    "ngram.query_hit_ratio": "ratio", "ngram.contexts": _COUNT, "ngram.entries": _COUNT,
    "decoding.steps": _COUNT, "decoding.draft_us": "us", "decoding.drafted_tokens": "tok",
    "decoding.alpha": "ratio", "decoding.mean_committed_per_step": "tok/step",
    "decoding.verify_us": "us", "decoding.rollbacks": _COUNT, "decoding.rollback_us": "us",
    "decoding.self_us": "us", "decoding.baseline_self_us": "us",
    "decoding.step_gap_us_p99": "us",
    "oracle.build_us": "us", "oracle.build_calls": _COUNT,
    "oracle.extend_calls": _COUNT, "oracle.extend_tokens": "tok", "oracle.extend_us": "us",
    "oracle.reset_calls": _COUNT, "oracle.replay_tokens": "tok", "oracle.self_us": "us",
    "server.requests": _COUNT, "server.handle_us": "us",
    "transport.us": "us", "transport.rtt_us_p50": "us", "transport.rtt_us_p99": "us",
    "transport.request_bytes": "B",
    "metrics.baseline_decodes": _COUNT, "metrics.accel_decodes": _COUNT,
    "metrics.compute_metrics_us": "us", "metrics.speedup_sim_reported": "ratio",
    "metrics.self_us": "us",
    "tokenizer.encode_us": "us", "bundled.read_us": "us",
    "gc.collections_gen0": _COUNT, "gc.collections_gen1": _COUNT,
    "gc.collections_gen2": _COUNT, "gc.pause_us": "us", "gc.pause_us_max": "us",
    "bench.self_us": "us",
    "trace.overhead_ratio": "ratio", "trace.unattributed_us": "us", "trace.wall_us": "us",
}

# Span names of one iteration, by the self-time bucket they add to.
LAYER_SPANS = {
    "ngram.init_us": ("ngram.init",),
    "ngram.update_us": ("ngram.update",),
    "ngram.query_us": ("ngram.query",),
    "decoding.self_us": ("decoding.speculative", "decoding.draft", "decoding.verify",
                         "decoding.rollback"),
    "decoding.baseline_self_us": ("decoding.baseline",),
    "oracle.self_us": ("oracle.build", "oracle.extend", "oracle.reset", "oracle.truncate",
                       "oracle.close"),
    "metrics.self_us": ("metrics.compute_metrics",),
    "bench.self_us": ("bench.check", "bench.heap", "bench.server_cpu"),
    "trace.unattributed_us": ("bench.iteration",),
}


def host_info() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(), "platform": platform.platform()}


def measure(wl, seconds: float) -> list[dict]:
    """Iterations until `seconds` have passed (at least one), each with the
    host-speed samples taken just before it."""
    samples = []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        cal = [wl.host_sample() for _ in range(wl.host_samples)]
        samples.append({**wl.iterate(i), "cal": cal})
        i += 1
        if perf_counter() >= deadline:
            return samples


def measure_traced(wl, seconds: float):
    """One traced set-up, then iterations until `seconds` have passed, of
    which the second and third of every four are traced. Interleaving lets
    host drift cancel out of `trace.overhead_ratio`, and each traced pair
    runs the decoders in both orders."""
    from tracing import Patches, Tracer, instrument

    sampled = ("oracle.extend", "oracle.reset") if wl.name == "tcp-shuffled" else ()
    tracer = Tracer(sample=sampled)
    setup_agg, agg, gcs = {}, {}, defaultdict(list)
    server: dict[str, int] = defaultdict(int)
    plain, traced = [], []

    def traced_call(root_name: str, fn):
        patches = Patches()
        instrument(tracer, patches)
        wl.tracer = tracer
        try:
            with tracer:
                root = tracer.open(root_name)
                out = fn()
                tracer.close(root)
        finally:
            wl.tracer = None
            patches.undo()
        return out

    traced_call("bench.setup", wl.setup)
    tracer.fold(setup_agg, defaultdict(list))
    deadline = perf_counter() + seconds
    i = 0
    while True:
        if i % 4 in (1, 2):
            before = wl.server_stats()
            traced.append(traced_call("bench.iteration", lambda: wl.iterate(i)))
            after = wl.server_stats()
            tracer.fold(agg, gcs)
            if before is not None:
                for key in ("requests", "handle_ns"):
                    server[key] += after[key] - before[key]
        else:
            plain.append(wl.iterate(i))
        i += 1
        if perf_counter() >= deadline and traced:
            break
    return plain, traced, agg, gcs, setup_agg, (server or None), tracer


def _scaled(v, speed: float):
    if isinstance(v, array):
        return array("d", [x * speed for x in v])
    if isinstance(v, list):
        return [x * speed for x in v]
    return v * speed


def in_reference_seconds(samples: list[dict], references: dict, window: int) -> list[dict]:
    """`samples` with each timing named in `references` scaled by the host
    speed around it: the reference time over the median time of the named
    reference sample in the sample's own iteration and the `window`
    iterations on either side."""
    out = []
    for i, s in enumerate(samples):
        near = [c for t in samples[max(0, i - window):i + window + 1] for c in t["cal"]]
        scaled = dict(s)
        for field, (key, reference_s) in references.items():
            if field in s:
                speed = reference_s / statistics.median(c[key] for c in near)
                scaled[field] = _scaled(s[field], speed)
        out.append(scaled)
    return out


def per_layer(wl, agg, gcs, setup_agg, server, n: int, overhead: float, hits: int,
              gaps: list[float]) -> dict:
    ref = wl.ref

    def self_us(*names):
        return sum(agg[x].self_ns for x in names if x in agg) / 1000 / n

    def total_us(name):
        return agg[name].total_ns / 1000 / n if name in agg else 0.0

    def calls(name):
        return agg[name].count / n if name in agg else 0.0

    def setup_us(name):
        return setup_agg[name].self_ns / 1000 if name in setup_agg else 0.0

    values = {bucket: self_us(*names) for bucket, names in LAYER_SPANS.items()}
    known = {name for names in LAYER_SPANS.values() for name in names}
    for name in agg:
        if name not in known:
            wl.fail(f"span {name!r} in an iteration belongs to no layer")
    pauses = [ns for g in gcs.values() for ns in g]
    queries = agg["ngram.query"].count if "ngram.query" in agg else 0
    rtts = [d / 1000 for name in ("oracle.extend", "oracle.reset")
            if name in agg and agg[name].durations is not None for d in agg[name].durations]
    handle_us = server["handle_ns"] / 1000 / n if server else 0.0
    from workloads import quantile
    values.update({
        "ngram.init_calls": calls("ngram.init"),
        "ngram.update_calls": calls("ngram.update"),
        "ngram.query_calls": calls("ngram.query"),
        "ngram.query_hit_ratio": hits / queries if queries else 0.0,
        "decoding.draft_us": total_us("decoding.draft"),
        "decoding.verify_us": total_us("decoding.verify"),
        "decoding.rollback_us": total_us("decoding.rollback"),
        "decoding.step_gap_us_p99": quantile(gaps, 99) * 1e6,
        "oracle.build_us": self_us("oracle.build"),
        "oracle.build_calls": calls("oracle.build"),
        "oracle.extend_us": self_us("oracle.extend"),
        "server.requests": server["requests"] / n if server else 0.0,
        "server.handle_us": handle_us,
        "transport.us": self_us("oracle.extend", "oracle.reset") - handle_us if server else 0.0,
        "transport.rtt_us_p50": statistics.median(rtts) if rtts else 0.0,
        "transport.rtt_us_p99": quantile(rtts, 99) if rtts else 0.0,
        "transport.request_bytes": wl.extra.get("request_bytes", 0),
        "metrics.baseline_decodes": calls("decoding.baseline"),
        "metrics.accel_decodes": calls("decoding.speculative"),
        "metrics.compute_metrics_us": self_us("metrics.compute_metrics"),
        "tokenizer.encode_us": setup_us("tokenizer.encode"),
        "bundled.read_us": setup_us("bundled.read"),
        "gc.collections_gen0": len(gcs["gen0"]) / n,
        "gc.collections_gen1": len(gcs["gen1"]) / n,
        "gc.collections_gen2": len(gcs["gen2"]) / n,
        "gc.pause_us": sum(pauses) / 1000 / n,
        "gc.pause_us_max": max(pauses) / 1000 if pauses else 0.0,
        "ngram.contexts": wl.store[0],
        "ngram.entries": wl.store[1],
        "trace.overhead_ratio": overhead,
        "trace.wall_us": total_us("bench.iteration"),
    })
    for name in PER_LAYER:
        if name not in values:
            values[name] = ref[name]
    wall = values["trace.wall_us"]
    parts = sum(values[b] for b in LAYER_SPANS) + values["gc.pause_us"]
    if abs(parts - wall) > 1e-6 * wall:
        wl.fail(f"layer self times add up to {parts} us, not the traced wall {wall} us")
    if values["trace.unattributed_us"] > UNATTRIBUTED_SHARE * wall:
        wl.fail(f"{values['trace.unattributed_us']:.0f} of {wall:.0f} us per traced iteration "
                "ran outside every layer span: the instrumentation misses a call")
    return values


def run(args) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "host": host_info()}
    try:
        # An untimed set-up and iteration first: it fills the caches, sets
        # the reference figures, and is the only work behind peak_rss_mb,
        # which the reference loop's own table would otherwise set.
        wl.setup()
        wl.prepare()
        wl.iterate(-1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            plain, traced, agg, gcs, setup_agg, server, tracer = measure_traced(
                wl, args.seconds)
            overhead = (statistics.median(s["accel_s"] for s in traced if "accel_s" in s)
                        / statistics.median(s["accel_s"] for s in plain if "accel_s" in s))
            values = per_layer(wl, agg, gcs, setup_agg, server, len(traced), overhead,
                               tracer.counters["ngram.query_hits"],
                               [g for s in plain if "gaps" in s for g in s["gaps"]])
            units = PER_LAYER
            report["iterations"] = {"untraced": len(plain), "traced": len(traced)}
            report["spans"] = write_spans(args, tracer)
        else:
            setup = []
            t0 = perf_counter()
            while len(setup) < SETUP_REPEATS or perf_counter() - t0 < SETUP_SECONDS:
                cal = [wl.host_sample()]
                setup.append({"setup_s": wl.setup(), "cal": cal})
            samples = measure(wl, args.seconds)
            raw = wl.end_to_end(samples)
            raw["setup_s"] = statistics.median(s["setup_s"] for s in setup)
            values = wl.end_to_end(in_reference_seconds(samples, wl.references, wl.host_window))
            values["setup_s"] = statistics.median(
                s["setup_s"] for s in in_reference_seconds(setup, wl.references, wl.host_window))
            values["peak_rss_mb"] = peak_rss_mb
            units = END_TO_END
            cal = [c for s in setup + samples for c in s["cal"]]
            key, ref_s = wl.references["accel_s"]
            report.update(iterations={"untraced": len(samples)}, setup=setup,
                          samples=[{k: v for k, v in s.items() if k != "gaps"} for s in samples],
                          host_speed=ref_s / statistics.median(c[key] for c in cal),
                          raw_metrics=raw)
    finally:
        wl.close()
    report.update(
        correct=wl.failed == 0, attempted=wl.attempted, failed=wl.failed,
        error_rate=wl.failed / max(wl.attempted, 1), errors=wl.errors,
        fingerprint=wl.ref["fingerprint"] if wl.ref else None,
        llm_calls_per_token=wl.ref["llm_calls_per_token"] if wl.ref else None,
        extra=wl.extra,
        metrics={name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    )
    return report


def write_spans(args, tracer) -> str:
    path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    OUT.mkdir(exist_ok=True)
    roots = [{key: list(arr) for key, arr in root.items()} for root in tracer.kept]
    path.write_text(json.dumps({"names": tracer.names, "roots": roots}), encoding="utf-8")
    return str(path.relative_to(ROOT))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decode-mixed", "tcp-shuffled"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specdec" / "__init__.py").is_file():
        print(f"specdec sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        report = run(args)
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        return 1
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.workload} seed={args.seed} trace={args.trace} host={report['host']}")
    for name, m in report["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {report['error_rate']:14.6g} fraction "
          f"({report['failed']} of {report['attempted']} failed)")
    if report["llm_calls_per_token"] is not None:
        print(f"  {'llm_calls_per_token (reported)':34s} "
              f"{report['llm_calls_per_token']:14.6g} calls/tok")
    if "host_speed" in report:
        print(f"  host speed {report['host_speed']:.4f} x reference (median); "
              "raw timings in the full result")
    print(f"  fingerprint {report['fingerprint']}")
    for err in report["errors"]:
        print(f"  error: {err}")
    print(f"  full result: {out.relative_to(ROOT)}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
