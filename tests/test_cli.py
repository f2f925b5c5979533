import json
import threading

import pytest

from specdec.bundled import bundled_path
from specdec.cli import load_config, main
from specdec.decoding import DecodeOptions, DecodeResult, DecodeTotals
from specdec.oracle import DEFAULT_COST_MODEL, ExternalOracle, MarkovOracle


DEMO = str(bundled_path("demo_run.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_run_demo_config(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "run", "--config", DEMO, "--trace", str(trace), "--report", str(report), "--json"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["metrics"]["speedup_sim"] > 2.0
    assert trace.exists() and report.exists()
    header, *steps = map(json.loads, trace.read_text().splitlines())
    assert header["n"] == 5 and header["k"] == 7
    verifies = [s for s in steps if s["batch"]]
    rejecting = sum(1 for s in verifies[:-1] if s["accepted"] < len(s["drafted"]))
    assert summary["rollbacks"] == rejecting > 0
    assert "speedup_sim" in report.read_text()


def test_run_golden_metrics_pinned(capsys):
    # frozen after the first computation; byte-level replay on the bundled
    # corpus is fully deterministic
    code, out, _ = run_cli(capsys, "run", "--config", DEMO, "--json")
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["alpha"] == pytest.approx(GOLDEN["alpha"], abs=1e-9)
    assert metrics["speedup_sim"] == pytest.approx(GOLDEN["speedup_sim"], abs=1e-9)
    assert metrics["steps"] == GOLDEN["steps"]


def test_run_zero_budget(capsys):
    code, out, _ = run_cli(capsys, "run", "--config", DEMO, "--max-new-tokens", "0", "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["output_len"] == 0
    assert summary["metrics"]["steps"] == 0


def test_run_missing_corpus_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"corpus": str(tmp_path / "nope.txt"), "prompt_tokens": 4}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "nope.txt" in err


def test_run_missing_config_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/does/not/exist.json")
    assert code == 1
    assert "exist.json" in err


@pytest.mark.parametrize("key", ["runtime_update", "stop_at_eos", "fixed_level_only"])
@pytest.mark.parametrize("value", ["false", 0, None])
def test_run_non_bool_flag_exits_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "flag.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", "decode": {key: value}}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert f"decode.{key}" in err


@pytest.mark.parametrize("key", ["prefill_per_token", "verify_base", "verify_per_token"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5", True])
def test_run_bad_cost_exits_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "cost.json"
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", "cost_model": {key: value}}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert f"cost_model.{key}" in err


@pytest.mark.parametrize(
    "section, key",
    [("", "seed"), ("", "prompt_tokens"), ("oracle", "order"), ("decode", "n_max"),
     ("decode", "k_draft"), ("decode", "max_new_tokens"), ("tokenizer", "train_size")],
)
@pytest.mark.parametrize("value", [2.9, 4.0, "40", True, None])
def test_run_non_int_setting_exits_1(tmp_path, capsys, section, key, value):
    config = {"corpus": "bundled:repetitive.txt"}
    (config.setdefault(section, {}) if section else config)[key] = value
    cfg = tmp_path / "int.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert f"{section}.{key}".lstrip(".") + " must be an integer" in err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"k_draft": 3}, "k_draft"),
        ({"decode": {"k-draft": 3}}, "decode.k-draft"),
        ({"oracle": {"kind": "replay", "ordr": 2}}, "oracle.ordr"),
        ({"tokenizer": {"mode": "byte", "vocab": "v.json"}}, "tokenizer.vocab"),
        ({"cost_model": {"verify_cost": 1.0}}, "cost_model.verify_cost"),
    ],
)
def test_run_unknown_config_key_exits_1(tmp_path, capsys, config, key):
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", **config}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert key in err


@pytest.mark.parametrize("section", ["decode", "oracle", "tokenizer", "cost_model"])
def test_run_non_object_section_exits_1(tmp_path, capsys, section):
    cfg = tmp_path / "section.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", section: [1]}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert section in err


def test_corpus_only_config_loads_the_library_defaults(tmp_path):
    cfg = tmp_path / "minimal.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt"}))
    loaded = load_config(str(cfg))
    assert loaded.decode == DecodeOptions()
    assert loaded.cost == DEFAULT_COST_MODEL


def test_run_losslessness_violation_exits_2(monkeypatch, capsys):
    import specdec.cli as cli_mod

    def corrupted(oracle, prompt, options, cost_model=None):
        return DecodeResult(
            output=[1, 2, 3],
            steps=[],
            prefill_sim_time=0.0,
            totals=DecodeTotals(),
            prompt_len=len(prompt),
            options=options,
        )

    monkeypatch.setattr(cli_mod, "speculative_decode", corrupted)
    code, _, err = run_cli(capsys, "run", "--config", DEMO)
    assert code == 2
    assert "losslessness" in err.lower()


def test_sweep_demo_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--config", DEMO, "--n-grid", "2-3", "--k-grid", "1,2",
        "--max-new-tokens", "64", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,alpha,mean_committed,speedup_sim,bound,steps,output_len"
    assert len(lines) == 5
    assert (tmp_path / "sweep.csv.config.json").exists()


def test_sweep_demo_full_grid_within_budget(tmp_path, capsys):
    import time

    out = tmp_path / "grid.csv"
    t0 = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "2-6", "--k-grid", "1-8",
        "--out", str(out),
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 41  # header + 40 rows
    assert elapsed < 60.0


def test_run_trace_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for trace in (a, b):
        code, _, _ = run_cli(
            capsys, "run", "--config", DEMO, "--max-new-tokens", "120", "--trace", str(trace)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--config", DEMO, "--n-grid", "2", "--k-grid", "1-3",
            "--max-new-tokens", "64", "--out", str(out), "--seed", "5",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_empty_grid_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "", "--k-grid", "1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "grid" in err


def test_stats_bundled_byte_mode(capsys):
    code, out, _ = run_cli(capsys, "stats", "--corpus", "bundled:repetitive.txt", "--json")
    assert code == 0
    rows = json.loads(out)
    agg = rows[-1]
    assert agg["file"] == "<aggregate>"
    assert agg["ratio"] > 1.0


def test_stats_bpe_mode(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("repeat repeat repeat tokens tokens tokens " * 10)
    code, out, _ = run_cli(
        capsys, "stats", "--corpus", str(f), "--mode", "bpe", "--train-size", "300", "--json"
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["ratio"] >= 1.0 for r in rows)


def test_stats_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_bytes(b"")
    code, out, _ = run_cli(capsys, "stats", "--corpus", str(f), "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["words"] == 0 and rows[0]["tokens"] == 0 and rows[0]["ratio"] == 1.0


def test_stats_missing_corpus_exits_1(capsys):
    code, _, err = run_cli(capsys, "stats", "--corpus", "/no/such/corpus")
    assert code == 1


def test_serve_oracle_end_to_end(tmp_path, capsys):
    # drive cmd_serve_oracle through its real argv path in a thread
    import specdec.cli as cli_mod
    from specdec.server import OracleServer

    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text("abcabcabcabc" * 10)

    captured: dict = {}
    orig_serve = OracleServer.serve_forever

    def capture_and_serve(self):
        captured["server"] = self
        orig_serve(self)

    OracleServer.serve_forever = capture_and_serve
    try:
        t = threading.Thread(
            target=main,
            args=(
                [
                    "serve-oracle", "--kind", "markov", "--corpus", str(corpus_file),
                    "--order", "2", "--seed", "3", "--listen", "127.0.0.1:0",
                ],
            ),
            daemon=True,
        )
        t.start()
        for _ in range(100):
            if "server" in captured:
                break
            import time

            time.sleep(0.02)
        server = captured["server"]
        remote = ExternalOracle(server.address)
        local = MarkovOracle([ord(c) for c in "abcabcabcabc" * 10], order=2, seed=3)
        assert remote.extend([97, 98, 99]) == local.extend([97, 98, 99])
        remote.close()
        server.shutdown()
    finally:
        OracleServer.serve_forever = orig_serve


def test_serve_oracle_bad_listen(capsys):
    code, _, err = run_cli(
        capsys, "serve-oracle", "--corpus", "bundled:repetitive.txt", "--listen", "nonsense"
    )
    assert code == 1


GOLDEN = {
    # pinned from a run of the bundled demo config with cost-aware draft
    # lengths (see test_run_golden_metrics_pinned)
    "alpha": 0.4478463933575506,
    "speedup_sim": 2.7939743021709766,
    "steps": 337,
}
