"""The benchmark's workloads and the loop that measures them.

Every workload is run by one client process as a closed loop: the next
decode starts when the previous one has returned. An iteration is an
accelerated decode of the workload's prompt and one or more baseline
decodes of it, alternating whether a baseline or the accelerated decode
runs first. Every output is checked against `baseline_decode` in every
iteration, and the oracle calls of an iteration must equal those of the
run's first one.

Decode and set-up times are CPU seconds of the processes doing the work:
the client, plus the oracle server on tcp-shuffled. On a shared host a
process also waits for a processor for a share of every second that other
tenants set; CPU time leaves that wait out. `speedup_wall` is the one
wall-clock figure: a ratio of decodes of the same iteration, in which the
host's drift cancels.
"""

from __future__ import annotations

import gc
import hashlib
import json
import selectors
import statistics
import subprocess
import sys
from array import array
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time

from specdec import bundled, decoding, metrics, oracle, tokenizer
from specdec.decoding import DecodeOptions, DecodeResult
from specdec.metrics import LosslessnessError
from specdec.oracle import DEFAULT_COST_MODEL as COST

import hostspeed
import inputs
from oracles import CallLog, counting

N_MAX, K_DRAFT = 5, 7
HERE = Path(__file__).resolve().parent
EXTEND_FRAME = len(json.dumps({"op": "extend", "tokens": []})) - 2 + 1  # + "\n"
RESET_BYTES = len(json.dumps({"op": "reset"})) + 1
INFO_BYTES = len(json.dumps({"op": "info"})) + 1


def step_line(step) -> str:
    """A step record with the fields `write_trace` writes for it."""
    return json.dumps({
        "step": step.step_index, "drafted": step.drafted, "levels": step.draft_levels,
        "accepted": step.accepted_count, "committed": step.committed,
        "batch": step.verify_batch_len, "sim_time": step.sim_time,
    }, sort_keys=True)


def fingerprint(results: list[DecodeResult]) -> dict:
    out, steps = hashlib.sha256(), hashlib.sha256()
    for res in results:
        out.update(json.dumps(res.output).encode() + b"\n")
        for step in res.steps:
            steps.update(step_line(step).encode() + b"\n")
    return {"output_sha256": out.hexdigest(), "steps_sha256": steps.hexdigest()}


def store_size(store) -> tuple[int, int]:
    """(contexts, entries) the decode's own n-gram store holds, summed over
    its orders, read through its public `snapshot`."""
    contexts = entries = 0
    for level in store.snapshot()["levels"]:
        entries += len(level["entries"])
        contexts += len({tuple(e["context"]) for e in level["entries"]})
    return contexts, entries


def fresh_heap(tracer=None) -> None:
    """Give the next timed decode the same collector state every time.

    Everything alive is collected and frozen, so the decode's collections
    traverse only its own objects; the second collect sets the collector's
    count of long-lived objects to zero, which fixes when the decode's
    first full collection comes. The caller unfreezes after the iteration.
    Collections forced here are not counted as the program's gc pauses.
    """
    with _Span(tracer, "bench.heap"):
        if tracer is not None:
            tracer.ignore_gc = True
        gc.collect()
        gc.freeze()
        gc.collect()
        if tracer is not None:
            tracer.ignore_gc = False


def step_gaps(log: CallLog) -> array:
    """The client CPU time (s) between the starts of successive verify calls."""
    return array("d", [(b - a) / 1e9 for a, b in zip(log.starts, log.starts[1:])])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


class _Span:
    def __init__(self, tracer, name: str) -> None:
        self.tracer, self.name, self.i = tracer, name, -1

    def __enter__(self):
        if self.tracer is not None:
            self.i = self.tracer.open(self.name)

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.close(self.i)


class Workload:
    """Baseline and accelerated decodes of one prompt. Subclasses set
    `name` and `max_new_tokens` and implement `setup`, `new_oracle` and
    `prepare`."""

    name = ""
    max_new_tokens = 0
    baselines = 1  # baseline decodes per iteration

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None  # set by the runner for traced iterations
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ref: dict | None = None  # deterministic figures of the first iteration
        # store_size of the first traced accelerated decode; its snapshot
        # would count towards peak_rss_mb in an untraced run.
        self.store: tuple[int, int] | None = None
        self.extra: dict = {}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def check_span(self):
        return _Span(self.tracer, "bench.check")

    def close(self) -> None:
        pass

    def server_stats(self) -> dict | None:
        return None

    def server_cpu(self) -> float:
        """CPU seconds used so far by the processes serving the oracle."""
        return 0.0

    # The reference each timing is scaled by (see run.in_reference_seconds):
    # a key of host_sample's result, and its time when the host ran fastest.
    references = {field: ("cpu", hostspeed.REFERENCE_S)
                  for field in ("setup_s", "base_s", "accel_s", "gaps")}
    # Reference samples before each iteration, and how many iterations either
    # side of an iteration count towards its host speed.
    host_samples, host_window = 2, 1

    def host_sample(self) -> dict[str, float]:
        """One host-speed sample (see hostspeed.py) where the decodes run."""
        return {"cpu": hostspeed.sample()}

    def iterate(self, i: int) -> dict:
        """One accelerated and `baselines` baseline decodes; even iterations
        start with a baseline, odd ones with the accelerated decode."""
        extra = ("baseline",) * (self.baselines - 1)
        kinds = (("baseline", "accelerated") if i % 2 == 0
                 else ("accelerated", "baseline")) + extra
        results: dict[str, list[DecodeResult]] = {"baseline": [], "accelerated": []}
        logs: dict[str, list[CallLog]] = {"baseline": [], "accelerated": []}
        cpu: dict[str, list[float]] = {"baseline": [], "accelerated": []}
        wall: dict[str, list[float]] = {"baseline": [], "accelerated": []}
        for kind in kinds:
            decode = decoding.baseline_decode if kind == "baseline" else decoding.speculative_decode
            log = CallLog(keep_tokens=self.count_bytes())
            self.attempted += 1
            fresh_heap(self.tracer)
            try:
                inner = self.new_oracle()
                try:
                    s0 = self.server_cpu()
                    c0, t0 = process_time(), perf_counter()
                    res = decode(counting(inner, log), self.prompt, self.options, COST)
                    w = perf_counter() - t0
                    c = process_time() - c0 + self.server_cpu() - s0
                finally:
                    if hasattr(inner, "close"):
                        inner.close()
            except Exception as exc:  # noqa: BLE001 - a failed decode is counted, not fatal
                self.fail(f"{kind} decode {i}: {type(exc).__name__}: {exc}")
                continue
            logs[kind].append(log)
            cpu[kind].append(c)
            wall[kind].append(w)
            if self.store is None and self.tracer is not None and res.store is not None:
                with self.check_span():
                    self.store = store_size(res.store)
            # Drop the store now, so the next decode runs on one decode's heap.
            with _Span(self.tracer, "bench.heap"):
                results[kind].append(replace(res, store=None))
                del res
        complete = len(cpu["baseline"]) + len(cpu["accelerated"]) == len(kinds)
        try:
            with self.check_span():
                if complete:
                    self.check(i, results, logs)
                    gaps = step_gaps(logs["accelerated"][0])
        finally:
            with _Span(self.tracer, "bench.heap"):
                del results
                gc.unfreeze()
        if not complete:
            return {}
        return {"base_s": cpu["baseline"], "accel_s": cpu["accelerated"][0],
                "base_wall_s": wall["baseline"], "accel_wall_s": wall["accelerated"][0],
                "gaps": gaps}

    def count_bytes(self) -> bool:
        """Keep the tokens sent, to count request bytes (once, traced)."""
        return False

    def check(self, i: int, results: dict[str, list[DecodeResult]],
              logs: dict[str, list[CallLog]]) -> None:
        """Every baseline/accelerated pair through `compute_metrics`, the
        accelerated output against the reference, and every call log
        against the run's first ones."""
        accel, alog = results["accelerated"][0], logs["accelerated"][0]
        reports = []
        for j, base in enumerate(results["baseline"]):
            try:
                reports.append(metrics.compute_metrics(accel, base, COST))
            except LosslessnessError as exc:
                self.fail(f"pair {i}.{j}: {exc}")
        if len(reports) < len(results["baseline"]):
            return
        if accel.output != self.reference_output:
            self.fail(f"pair {i}: output differs from the reference decode")
            return
        blog = logs["baseline"][0]
        summary = (blog.summary(), alog.summary())
        if self.ref is None:
            self.ref = self.reference(results["baseline"][0], accel,
                                      {"baseline": blog, "accelerated": alog}, reports[0], summary)
        elif hash(summary) != self.ref["calls_hash"]:
            self.fail(f"pair {i}: oracle calls differ from the first pair")
        if any(log.summary() != summary[0] for log in logs["baseline"][1:]):
            self.fail(f"pair {i}: baseline decodes made different oracle calls")
        if self.count_bytes() and "request_bytes" not in self.extra:
            self.extra["request_bytes"] = sum(
                INFO_BYTES + RESET_BYTES * log.resets
                + sum(len(str(t)) + EXTEND_FRAME for t in log.sent) for log in (blog, alog))

    def reference(self, base, accel, logs, reported, summary) -> dict:
        blog, alog = logs["baseline"], logs["accelerated"]
        out_len = len(accel.output)
        sim = blog.sim_time(COST) / alog.sim_time(COST)
        if alog.replays == 0 and sim != reported.speedup_sim:
            self.fail(f"call-log speedup_sim {sim!r} != compute_metrics {reported.speedup_sim!r}")
        fp = fingerprint([accel])
        totals = accel.totals
        return {
            "calls_hash": hash(summary),
            "fingerprint": fp,
            "output_len": out_len,
            "speedup_sim": sim,
            "metrics.speedup_sim_reported": reported.speedup_sim,
            "calls_per_token": alog.extend_calls / out_len,
            "oracle_tokens_per_token": alog.extend_tokens / out_len,
            "llm_calls_per_token": totals.llm_calls / out_len,
            "decoding.steps": len(accel.steps),
            "decoding.drafted_tokens": totals.proposed_draft_tokens,
            "decoding.alpha": reported.alpha,
            "decoding.mean_committed_per_step": reported.mean_committed_per_step,
            "decoding.rollbacks": alog.rollbacks,
            "oracle.extend_calls": blog.extend_calls + alog.extend_calls,
            "oracle.extend_tokens": blog.extend_tokens + alog.extend_tokens,
            "oracle.reset_calls": blog.resets + alog.resets,
            "oracle.replay_tokens": blog.replay_tokens + alog.replay_tokens,
        }

    def end_to_end(self, samples: list[dict]) -> dict:
        """End-to-end figures of a run's iterations; timings are medians,
        the step gap's over all the run's gaps pooled. Their 99th
        percentile goes to the result file only (see README.md)."""
        samples = [s for s in samples if "accel_s" in s]
        ref = self.ref
        out = ref["output_len"]
        base = [b for s in samples for b in s["base_s"]]
        base_wall = [b for s in samples for b in s["base_wall_s"]]
        accel, accel_wall = ([s[k] for s in samples] for k in ("accel_s", "accel_wall_s"))
        gaps = [g for s in samples for g in s["gaps"]]
        self.extra.update(baseline_s=spread(base), accelerated_s=spread(accel),
                          baseline_wall_s=spread(base_wall), accelerated_wall_s=spread(accel_wall),
                          step_gaps=len(gaps), step_gap_us_p99=quantile(gaps, 99) * 1e6)
        return {
            "tokens_per_s": out / statistics.median(accel),
            "baseline_tokens_per_s": out / statistics.median(base),
            "speedup_wall": statistics.median(
                [statistics.median(s["base_wall_s"]) / s["accel_wall_s"] for s in samples]),
            "speedup_sim": ref["speedup_sim"],
            "calls_per_token": ref["calls_per_token"],
            "oracle_tokens_per_token": ref["oracle_tokens_per_token"],
            "step_gap_us_p50": statistics.median(gaps) * 1e6,
        }


class DecodeMixed(Workload):
    """In-process ReplayOracle over lines sampled from all three corpora."""

    name = "decode-mixed"
    max_new_tokens = 40_000

    def setup(self) -> float:
        """Read, generate and tokenize the inputs; the CPU seconds of it
        that the program spends."""
        t0 = process_time()
        corpora = {name: bundled.bundled_bytes(name) for name in inputs.CORPORA}
        read_s = process_time() - t0
        script = inputs.mixed_script(corpora, self.seed)
        t1 = process_time()
        vocab = tokenizer.byte_vocab()
        tokens = tokenizer.encode(script, vocab, "byte")
        self.prompt, self.target, self.eos = tokens[:600], tokens[600:], vocab.eos
        self.options = DecodeOptions(n_max=N_MAX, k_draft=K_DRAFT,
                                     max_new_tokens=self.max_new_tokens)
        return read_s + process_time() - t1

    def new_oracle(self):
        return oracle.ReplayOracle(self.prompt, self.target, self.eos)

    def prepare(self) -> None:
        # A replay oracle predicts its script, so greedy decoding returns it.
        self.reference_output = self.target[:self.max_new_tokens]


class TcpShuffled(Workload):
    """ExternalOracle against an OracleServer process replaying a seeded
    line shuffle of shuffled.txt."""

    name = "tcp-shuffled"
    max_new_tokens = 1_000
    baselines = 4
    # Baseline decodes are one-token round trips like the reference's small
    # ones; accelerated decodes add replays like its bulk ones.
    references = {
        "setup_s": ("cpu", hostspeed.ECHO_REFERENCE["cpu"]),
        "base_s": ("small_cpu", hostspeed.ECHO_REFERENCE["small_cpu"]),
        "accel_s": ("cpu", hostspeed.ECHO_REFERENCE["cpu"]),
        "gaps": ("cpu", hostspeed.ECHO_REFERENCE["cpu"]),
    }
    host_samples, host_window = 4, 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: ServerProcess | None = None

    def setup(self) -> float:
        """Read, generate and tokenize the inputs and start the server; the
        CPU seconds of it that the program spends, the server's included."""
        self.close()
        t0 = process_time()
        corpus = bundled.bundled_bytes("shuffled.txt")
        read_s = process_time() - t0
        script = inputs.shuffled_script(corpus, self.seed)
        t1 = process_time()
        vocab = tokenizer.byte_vocab()
        tokens = tokenizer.encode(script, vocab, "byte")
        self.prompt, self.target, self.eos = tokens[:600], tokens[600:], vocab.eos
        self.options = DecodeOptions(n_max=N_MAX, k_draft=K_DRAFT,
                                     max_new_tokens=self.max_new_tokens)
        with _Span(self.tracer, "server.start"):
            self.server = ServerProcess(self.prompt, self.target, self.eos)
        return read_s + process_time() - t1 + self.server.start_cpu

    def new_oracle(self):
        return oracle.ExternalOracle(self.server.address)

    def count_bytes(self) -> bool:
        return self.tracer is not None and "request_bytes" not in self.extra

    def prepare(self) -> None:
        """Decode the same script in process: the reference for every TCP decode."""
        inproc = lambda: oracle.ReplayOracle(self.prompt, self.target, self.eos)  # noqa: E731
        base = decoding.baseline_decode(inproc(), self.prompt, self.options, COST)
        accel = decoding.speculative_decode(inproc(), self.prompt, self.options, COST)
        metrics.compute_metrics(accel, base, COST)
        self.reference_output = base.output
        self.inproc_fingerprint = fingerprint([accel])

    def reference(self, *args) -> dict:
        ref = super().reference(*args)
        if ref["fingerprint"] != self.inproc_fingerprint:
            self.fail("decode over TCP differs from the same script decoded in process")
        return ref

    def server_stats(self) -> dict | None:
        return self.server.stats() if self.server else None

    def server_cpu(self) -> float:
        with _Span(self.tracer, "bench.server_cpu"):
            return self.server.stats()["cpu_ns"] / 1e9

    def host_sample(self) -> dict[str, float]:
        """One pass of the socket reference against the server process: the
        dict loop, which no socket call slows, tracked these decodes badly."""
        return self.server.echo.sample()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


class ServerProcess:
    """`oracle_server.py` in a child process, bound to an ephemeral port.

    Ready means a client connected and got an `info` reply. `stop` always
    ends and reaps the process."""

    def __init__(self, prompt: list[int], target: list[int], eos: int) -> None:
        self.echo: hostspeed.EchoClient | None = None
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "oracle_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=HERE.parent)
        try:
            self._send({"prompt": prompt, "target": target, "eos": eos})
            ready = self._reply()
            self.address, self.start_cpu = ready["address"], ready["cpu_ns"] / 1e9
            oracle.ExternalOracle(self.address).close()
            self.echo = hostspeed.EchoClient(ready["echo_address"])
        except BaseException:
            self.stop()
            raise

    def _send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
        self.proc.stdin.flush()

    def _reply(self, timeout: float = 60.0) -> dict:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError(f"oracle server gave no reply in {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"oracle server exited with code {self.proc.poll()}")
        return json.loads(line)

    def stats(self) -> dict:
        self._send("stats")
        return self._reply()

    def stop(self) -> None:
        if self.echo is not None:
            self.echo.close()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


WORKLOADS = {w.name: w for w in (DecodeMixed, TcpShuffled)}
