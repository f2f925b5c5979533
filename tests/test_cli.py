import argparse
import json
import queue
import shlex
import threading
from contextlib import contextmanager
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.bundled import bundled_bytes, resolve_corpus_ref
from specdec.cli import _DEFAULTS, ConfigError, build_parser, load_config, main
from specdec.decoding import DecodeOptions, DecodeResult, DecodeTotals
from specdec.metrics import RunMetrics
from specdec.oracle import DEFAULT_COST_MODEL, CostModel, ExternalOracle, MarkovOracle
from specdec.server import OracleServer


DEMO = str(resources.files("specdec") / "data" / "demo_run.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


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
    nope = tmp_path / "nope.txt"
    cfg = write_config(tmp_path / "bad.json", {"corpus": str(nope), "prompt_tokens": 4})
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert (code, out, err) == (1, "", f"error: corpus file not found: {nope}\n")


# only a shipped corpus: not the package's own source, an unknown name or no name
@pytest.mark.parametrize("corpus", ["bundled:../cli.py", "bundled:nope.txt", "bundled:"])
def test_run_corpus_naming_no_bundled_corpus_exits_1(tmp_path, capsys, monkeypatch, corpus):
    import specdec.cli as cli_mod

    def unread(ref):
        raise AssertionError(f"corpus {ref} read before the config was checked")

    monkeypatch.setattr(cli_mod, "resolve_corpus_ref", unread)
    cfg = write_config(tmp_path / "bad.json", {"corpus": corpus, "prompt_tokens": 4})
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: corpus {corpus!r} names no bundled corpus; available: ")
    with pytest.raises(FileNotFoundError, match="^no bundled file"):
        bundled_bytes(corpus[len("bundled:"):])


def test_resolve_corpus_ref_reads_a_directory_in_filename_order(tmp_path):
    (tmp_path / "b.txt").write_bytes(b"second")
    (tmp_path / "a.txt").write_bytes(b"first")
    assert resolve_corpus_ref(str(tmp_path)) == b"firstsecond"


@pytest.mark.parametrize("section, key", [("", "corpus")])
def test_a_path_too_long_to_stat_is_not_found(tmp_path, section, key):
    config = {"corpus": "bundled:repetitive.txt"}
    (config.setdefault(section, {}) if section else config)[key] = "x" * 5000
    name = f"{section}.{key}".lstrip(".")
    with pytest.raises(ConfigError, match=f"^{name} file not found: x"):
        load_config(write_config(tmp_path / "long.json", config))


def test_run_missing_config_exits_1(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/does/not/exist.json")
    assert code == 1
    assert "exist.json" in err


# stop_at_eos is no longer a key: a config that sets it exits 1 naming it all the same
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


@pytest.mark.parametrize("key", ["prefill_per_token", "verify_base", "verify_per_token"])
@pytest.mark.parametrize("value", [2**53 + 1, 10**400])
def test_run_cost_no_float_holds_exactly_exits_1(tmp_path, capsys, key, value):
    # 2**53 + 1 would load as 2**53, and float(10**400) overflows
    cfg = tmp_path / "cost.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", "cost_model": {key: value}}))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert f"cost_model.{key} must be a finite number" in err


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
    "section, key, optional",
    [("", "corpus", False), ("tokenizer", "mode", False), ("oracle", "kind", False),
     ("oracle", "endpoint", True), ("", "trace_path", True), ("", "report_path", True)],
)
@pytest.mark.parametrize("value", [7, 2.5, True, ["a"], {"a": 1}, None])
def test_run_non_string_setting_exits_1(tmp_path, capsys, section, key, optional, value):
    config = {"corpus": "bundled:repetitive.txt", "decode": {"max_new_tokens": 8}}
    (config.setdefault(section, {}) if section else config)[key] = value
    cfg = tmp_path / "str.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    if value is None and optional:  # null stands for "not given"
        assert code == 0
    else:
        assert code == 1
        assert f"{section}.{key}".lstrip(".") + " must be a string" in err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"k_draft": 3}, "k_draft"),
        ({"decode": {"k-draft": 3}}, "decode.k-draft"),
        ({"oracle": {"kind": "replay", "ordr": 2}}, "oracle.ordr"),
        ({"tokenizer": {"mode": "byte", "vocab": "v.json"}}, "tokenizer.vocab"),
        ({"cost_model": {"verify_cost": 1.0}}, "cost_model.verify_cost"),
        # a run's vocab is built from its corpus; no key names a vocab file
        ({"tokenizer": {"vocab_path": "v.json"}}, "tokenizer.vocab_path"),
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
    assert loaded.cost_model == DEFAULT_COST_MODEL


def _changed(value):
    """A value of `value`'s type other than `value`."""
    if type(value) is bool:
        return not value
    return value + "x" if type(value) is str else value + 1


@pytest.mark.parametrize("section, cls", [("decode", DecodeOptions), ("cost_model", CostModel)])
def test_config_sections_take_every_field_of_their_dataclass(tmp_path, section, cls):
    changed = {f.name: _changed(getattr(cls(), f.name)) for f in fields(cls)}
    cfg = tmp_path / "fields.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", section: changed}))
    assert getattr(load_config(str(cfg)), section) == cls(**changed)
    # and no other key: one the dataclass lacks is refused with it named
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", section: {**changed, "extra": 1}}))
    with pytest.raises(ConfigError, match=f"unknown config key {section}.extra$"):
        load_config(str(cfg))


# every (section, key) a config may set, "" for the top level
SETTINGS = [
    (section, key) for section, table in _DEFAULTS.items() if type(table) is dict for key in table
] + [("", key) for key, default in _DEFAULTS.items() if type(default) is not dict]

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


def _loaded(cfg, section, key):
    """A setting's loaded value: RunConfig names each field after its key, and
    holds a section as a dict or a settings dataclass."""
    if not section:
        return getattr(cfg, key)
    held = getattr(cfg, section)
    return held[key] if type(held) is dict else getattr(held, key)


@pytest.mark.parametrize("section, key", SETTINGS)
@settings(max_examples=60, deadline=None)
@given(value=JSON_SCALARS)
def test_any_json_scalar_loads_as_the_typed_value_or_names_its_key(tmp_path_factory, section, key, value):
    config = {"corpus": "bundled:repetitive.txt"}
    (config.setdefault(section, {}) if section else config)[key] = value
    cfg = tmp_path_factory.getbasetemp() / f"scalar_{section}_{key}.json"
    cfg.write_text(json.dumps(config))  # NaN and Infinity included
    default = _DEFAULTS[section][key] if section else _DEFAULTS[key]
    try:
        loaded = _loaded(load_config(str(cfg)), section, key)
    except ConfigError as exc:
        assert f"{section}.{key}".lstrip(".") in str(exc)
        return
    typed = str if default is None else type(default)
    assert type(loaded) is typed or (loaded is None and default is None)
    assert loaded == value  # never nan, which equals nothing


@pytest.mark.parametrize("settings, message", [
    pytest.param({"prompt_tokens": -5}, "prompt_tokens must be >= 1, got -5", id="-5"),
    pytest.param({"prompt_tokens": 0}, "prompt_tokens must be >= 1, got 0", id="0"),
    pytest.param(
        {"oracle": {"kind": "markov", "order": 0}}, "oracle.order must be >= 1, got 0", id="oracle.order"
    ),
    pytest.param(
        {"tokenizer": {"mode": "bpe", "train_size": 256}},
        "tokenizer.train_size must be >= 257, got 256",
        id="tokenizer.train_size",
    ),
    pytest.param(
        {"oracle": {"kind": "external", "endpoint": "127.0.0.1:99999"}},
        "bad oracle.endpoint '127.0.0.1:99999'; expected HOST:PORT with a port of 0..65535",
        id="oracle.endpoint",
    ),
])
def test_run_prompt_tokens_below_1_exits_1(tmp_path, capsys, monkeypatch, settings, message):
    # a value out of range is refused naming its key when the config loads,
    # before the corpus is read and before sweep writes a CSV
    import specdec.cli as cli_mod

    def unread(ref):
        raise AssertionError(f"corpus {ref} read before the config was checked")

    monkeypatch.setattr(cli_mod, "resolve_corpus_ref", unread)
    cfg = write_config(
        tmp_path / "range.json",
        {"corpus": "bundled:repetitive.txt", "decode": {"max_new_tokens": 50}, **settings},
    )
    out_csv = tmp_path / "x.csv"
    for argv in (("run",), ("sweep", "--n-grid", "2", "--k-grid", "1", "--out", str(out_csv))):
        code, out, err = run_cli(capsys, *argv, "--config", cfg)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv
    assert not out_csv.exists()


def test_run_losslessness_violation_exits_2(monkeypatch, capsys):
    import specdec.cli as cli_mod

    def corrupted(oracle, prompt, options, cost_model=None):
        return DecodeResult(
            output=[1, 2, 3],
            steps=[],
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
    assert lines[0] == "n,k,alpha,mean_committed_per_step,speedup_sim,theoretical_bound,steps,output_len"
    assert len(lines) == 5
    assert (tmp_path / "sweep.csv.config.json").exists()


def test_run_json_metrics_sweep_csv_columns_and_run_metrics_fields_agree(tmp_path, capsys):
    names = [f.name for f in fields(RunMetrics)]
    code, out, _ = run_cli(capsys, "run", "--config", DEMO, "--max-new-tokens", "16", "--json")
    assert code == 0
    assert list(json.loads(out)["metrics"]) == sorted(names)  # printed with sort_keys
    csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "2", "--k-grid", "1",
        "--max-new-tokens", "16", "--out", str(csv),
    )
    assert code == 0
    assert csv.read_text().splitlines()[0].split(",") == ["n", "k", *names]


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


@pytest.mark.parametrize("argv, got", [
    (("run", "--config", DEMO, "--n", "65"), "65"),
    (("sweep", "--config", DEMO, "--n-grid", "2-100000", "--k-grid", "1"), "2-100000"),
    (("sweep", "--config", DEMO, "--n-grid", "2,65", "--k-grid", "1"), "65"),
])
def test_n_max_above_the_cap_exits_1(tmp_path, capsys, argv, got):
    argv += ("--out", str(tmp_path / "x.csv")) if argv[0] == "sweep" else ()
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    # a range is refused as written, before it is expanded
    assert f"n_max must be <= 64, got {got}\n" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_n_max_above_the_cap_exits_1(tmp_path, capsys):
    cfg = tmp_path / "n.json"
    cfg.write_text(json.dumps({"corpus": "bundled:repetitive.txt", "decode": {"n_max": 100000}}))
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "n_max must be <= 64, got 100000" in err


def test_sweep_empty_grid_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "", "--k-grid", "1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "grid" in err


def test_sweep_grid_over_the_limit_exits_1(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "2", "--k-grid", "1-300000",
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (1, "")
    # refused from its bounds, before 300,000 values are built
    assert "k_draft grid must hold at most 1024 values, got 1-300000\n" in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_with_every_cell_failed_exits_1(tmp_path, capsys):
    cfg = tmp_path / "unserved.json"
    cfg.write_text(json.dumps({
        "corpus": "bundled:repetitive.txt", "decode": {"max_new_tokens": 8},
        "oracle": {"kind": "external", "endpoint": "127.0.0.1:1"},  # nothing listens
    }))
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--config", str(cfg), "--n-grid", "2", "--k-grid", "1,2", "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    # the baseline failed, so both cells carry the same reason; it is printed once
    [line] = err.splitlines()
    assert line.startswith("error: OracleConnectError: cannot connect to 127.0.0.1:1")
    assert out.read_text().splitlines()[1:] == ["2,1,nan,nan,nan,nan,nan,nan", "2,2,nan,nan,nan,nan,nan,nan"]
    assert (tmp_path / "x.csv.config.json").exists()


def test_sweep_with_some_cells_failed_exits_0(tmp_path, capsys, monkeypatch):
    import specdec.metrics as metrics_mod

    real = metrics_mod.speculative_decode

    def fails_at_k2(oracle, prompt, options, cost_model=None):
        if options.k_draft == 2:
            raise RuntimeError("k2 broke")
        return real(oracle, prompt, options, cost_model)

    monkeypatch.setattr(metrics_mod, "speculative_decode", fails_at_k2)
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "2", "--k-grid", "1,2",
        "--max-new-tokens", "16", "--out", str(out),
    )
    assert (code, err) == (0, "")
    assert stdout.startswith("wrote 2 rows")
    ok, failed = out.read_text().splitlines()[1:]
    assert "nan" not in ok and failed == "2,2,nan,nan,nan,nan,nan,nan"
    sidecar = json.loads((tmp_path / "x.csv.config.json").read_text())
    assert sidecar["errors"] == {"n=2,k=2": "RuntimeError: k2 broke"}


def test_sweep_losslessness_violation_exits_2(tmp_path, capsys, monkeypatch):
    # an engine bug in one cell is not a failed cell: the sweep stops and exits 2, as run does
    import specdec.metrics as metrics_mod

    real = metrics_mod.speculative_decode

    def corrupts_k2(oracle, prompt, options, cost_model=None):
        result = real(oracle, prompt, options, cost_model)
        if options.k_draft == 2:
            result.output[-1] += 1
        return result

    monkeypatch.setattr(metrics_mod, "speculative_decode", corrupts_k2)
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "3", "--k-grid", "1,2",
        "--max-new-tokens", "16", "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("losslessness violation: outputs diverge at position 15")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid, ok", [("1-1024", True), ("1-1025", False), ("1-1000,1001-1025", False)])
def test_parse_grid_counts_values_before_expanding(grid, ok):
    from specdec.cli import _parse_grid

    if ok:
        assert _parse_grid(grid, "k_draft") == list(range(1, 1025))
    else:
        with pytest.raises(ValueError, match="at most 1024 values"):
            _parse_grid(grid, "k_draft")


@pytest.mark.parametrize("grids, refused", [
    (("--n-grid", "6-2,3", "--k-grid", "1"), "n_max range 6-2"),
    (("--n-grid", "2", "--k-grid", "1,8-3"), "k_draft range 8-3"),
])
def test_sweep_reversed_range_exits_1(tmp_path, capsys, grids, refused):
    code, out, err = run_cli(capsys, "sweep", "--config", DEMO, *grids, "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (1, "")
    assert err == f"error: {refused} is empty: its lo is above its hi\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("grids, refused", [
    (("--n-grid", "2", "--k-grid", "x"), "k_draft grid takes integers and lo-hi ranges, got 'x'"),
    (("--n-grid", "2-x", "--k-grid", "1"), "n_max grid takes integers and lo-hi ranges, got '2-x'"),
])
def test_sweep_non_integer_grid_value_exits_1(tmp_path, capsys, grids, refused):
    code, out, err = run_cli(capsys, "sweep", "--config", DEMO, *grids, "--out", str(tmp_path / "x.csv"))
    assert (code, out, err) == (1, "", f"error: {refused}\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ("run", "--trace"), ("run", "--report"), ("sweep", "--n-grid", "2", "--k-grid", "1", "--out"),
])
def test_unwritable_output_path_exits_1_naming_it(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(
        capsys, argv[0], "--config", DEMO, "--max-new-tokens", "16", *argv[1:], str(target)
    )
    assert (code, out) == (1, "")
    # the path given, not the temp file the write goes through
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("section, message", [
    ({"oracle": {"kind": "bogus"}}, "oracle.kind must be one of replay, markov, external, got 'bogus'"),
    ({"tokenizer": {"mode": "wordpiece"}}, "tokenizer.mode must be one of byte, whitespace, bpe, got 'wordpiece'"),
    ({"oracle": {"kind": "external"}}, "oracle.endpoint is required when oracle.kind is 'external'"),
])
@pytest.mark.parametrize("argv", [("run",), ("sweep", "--n-grid", "2", "--k-grid", "1")])
def test_bad_kind_or_mode_exits_1_before_the_corpus_is_read(
    tmp_path, capsys, monkeypatch, section, message, argv
):
    import specdec.cli as cli_mod

    def unread(ref):
        raise AssertionError(f"corpus {ref} read before the config was checked")

    monkeypatch.setattr(cli_mod, "resolve_corpus_ref", unread)
    # a bpe vocab would be trained on the corpus before the oracle is built
    config = {"corpus": "bundled:shuffled.txt", "tokenizer": {"mode": "bpe", "train_size": 700}}
    cfg = tmp_path / "kind.json"
    cfg.write_text(json.dumps({**config, **section}))
    out_csv = ("--out", str(tmp_path / "x.csv")) if argv[0] == "sweep" else ()
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg), *out_csv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


SOURCE = {"corpus": "bundled:repetitive.txt", "mode": "byte", "prompt_tokens": 200}


def _trace_oracle(tmp_path, capsys, oracle):
    cfg = tmp_path / "oracle.json"
    cfg.write_text(json.dumps({
        "corpus": "bundled:repetitive.txt", "prompt_tokens": 200, "seed": 4, "oracle": oracle,
        "decode": {"max_new_tokens": 40},
    }))
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--trace", str(trace))
    assert code == 0
    return json.loads(trace.read_text().splitlines()[0])["oracle"]


def test_trace_header_describes_the_replay_oracle(tmp_path, capsys):
    assert _trace_oracle(tmp_path, capsys, {"kind": "replay"}) == {
        "kind": "replay", "eos": 256, "source": SOURCE, "prompt_len": 200, "target_len": 8016,
    }


def test_trace_header_describes_the_markov_oracle(tmp_path, capsys):
    assert _trace_oracle(tmp_path, capsys, {"kind": "markov", "order": 3}) == {
        "kind": "markov", "eos": None, "source": SOURCE, "order": 3, "seed": 4,
    }


def test_trace_header_describes_the_external_oracle(tmp_path, capsys):
    ids = list(bundled_bytes("repetitive.txt"))
    server = OracleServer(lambda: MarkovOracle(ids, 2, 0), host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        oracle = _trace_oracle(tmp_path, capsys, {"kind": "external", "endpoint": server.address})
    finally:
        server.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert oracle == {"kind": "external", "eos": None, "source": SOURCE, "endpoint": server.address}


def test_sweep_sidecar_describes_the_oracle(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", DEMO, "--n-grid", "2", "--k-grid", "1",
        "--max-new-tokens", "16", "--out", str(out),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "sweep.csv.config.json").read_text())
    assert (sidecar["seed"], sidecar["oracle"]) == (0, {
        "kind": "replay", "eos": 256, "prompt_len": 600, "target_len": 7616,
        "source": {"corpus": "bundled:repetitive.txt", "mode": "byte", "prompt_tokens": 600},
    })


@contextmanager
def serving(monkeypatch, capsys, config):
    """Run `serve-oracle --config config` in a thread; yield its address."""
    started = queue.Queue()
    serve = OracleServer.serve_forever

    def announce_and_serve(server):
        started.put(server)
        serve(server)

    monkeypatch.setattr(OracleServer, "serve_forever", announce_and_serve)
    argv = ["serve-oracle", "--config", config, "--listen", "127.0.0.1:0"]
    thread = threading.Thread(target=main, args=(argv,), daemon=True)
    thread.start()
    server = started.get(timeout=30)
    kind = json.loads(Path(config).read_text())["oracle"]["kind"]
    assert capsys.readouterr().out == f"serving {kind} oracle on {server.address}\n"
    try:
        yield server.address
    finally:
        server.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_serve_oracle_end_to_end(tmp_path, capsys, monkeypatch):
    text = "abcabcabcabc" * 10
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text(text)
    cfg = write_config(
        tmp_path / "served.json", {"corpus": str(corpus_file), "seed": 3, "oracle": {"kind": "markov"}}
    )
    with serving(monkeypatch, capsys, cfg) as address:
        remote = ExternalOracle(address)
        local = MarkovOracle([ord(c) for c in text], order=2, seed=3)
        assert remote.extend([97, 98, 99]) == local.extend([97, 98, 99])
        remote.close()


@pytest.mark.parametrize("kind", ["replay", "markov"])
@pytest.mark.parametrize("mode", ["byte", "whitespace", "bpe"])
def test_run_against_the_served_config_matches_the_in_process_run(tmp_path, capsys, monkeypatch, mode, kind):
    # serve-oracle builds its oracle from the same config as run, vocab included
    config = {
        "corpus": "bundled:patterned_code.txt", "prompt_tokens": 200, "seed": 5,
        "tokenizer": {"mode": mode}, "oracle": {"kind": kind}, "decode": {"max_new_tokens": 150},
    }
    outputs = []
    with serving(monkeypatch, capsys, write_config(tmp_path / "served.json", config)) as address:
        for name, oracle in (("local", config["oracle"]), ("remote", {"kind": "external", "endpoint": address})):
            cfg = write_config(tmp_path / f"{name}.json", {**config, "oracle": oracle})
            trace = tmp_path / f"{name}.jsonl"
            code, out, err = run_cli(capsys, "run", "--config", cfg, "--trace", str(trace), "--json")
            assert (code, err) == (0, "")
            summary = json.loads(out)
            del summary["config"]
            # the header describes the oracle, so only the steps must match
            outputs.append((summary, trace.read_text().splitlines()[1:]))
    (local_summary, local_steps), remote = outputs
    assert local_summary["output_len"] > 0 and len(local_steps) > 1
    assert remote == (local_summary, local_steps)


def test_serve_oracle_bad_listen(capsys):
    code, _, err = run_cli(capsys, "serve-oracle", "--config", DEMO, "--listen", "nonsense")
    assert code == 1


@pytest.mark.parametrize("listen", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:\u00b2"])
def test_serve_oracle_port_out_of_range_exits_1(capsys, listen):
    code, out, err = run_cli(capsys, "serve-oracle", "--config", DEMO, "--listen", listen)
    assert code == 1
    assert "serving" not in out
    assert f"error: bad --listen {listen!r}" in err


def _never_serve(monkeypatch):
    def never(self):
        raise AssertionError("served a config that should have been refused")

    monkeypatch.setattr(OracleServer, "serve_forever", never)


def test_serve_oracle_negative_prompt_tokens_exits_1(tmp_path, capsys, monkeypatch):
    _never_serve(monkeypatch)
    cfg = write_config(
        tmp_path / "served.json",
        {"corpus": "bundled:repetitive.txt", "prompt_tokens": -5, "oracle": {"kind": "replay"}},
    )
    code, out, err = run_cli(capsys, "serve-oracle", "--config", cfg, "--listen", "127.0.0.1:0")
    assert (code, out) == (1, "")
    assert err == "error: prompt_tokens must be >= 1, got -5\n"


def test_serve_oracle_unbuildable_spec_exits_1(tmp_path, capsys, monkeypatch):
    # the factory is called once before serving: a Markov oracle needs more
    # corpus tokens than its order
    _never_serve(monkeypatch)
    corpus = tmp_path / "short.txt"
    corpus.write_bytes(b"abcdefgh")
    cfg = write_config(tmp_path / "served.json", {
        "corpus": str(corpus), "prompt_tokens": 4, "oracle": {"kind": "markov", "order": 8},
    })
    code, out, err = run_cli(capsys, "serve-oracle", "--config", cfg, "--listen", "127.0.0.1:0")
    assert (code, out) == (1, "")
    assert err == "error: corpus of length 8 too short for order 8\n"


def test_serve_oracle_refuses_an_external_oracle(tmp_path, capsys, monkeypatch):
    import specdec.cli as cli_mod

    def unread(ref):
        raise AssertionError(f"corpus {ref} read before the oracle kind was checked")

    monkeypatch.setattr(cli_mod, "resolve_corpus_ref", unread)
    _never_serve(monkeypatch)
    cfg = write_config(tmp_path / "served.json", {
        "corpus": "bundled:repetitive.txt", "oracle": {"kind": "external", "endpoint": "127.0.0.1:1"},
    })
    code, out, err = run_cli(capsys, "serve-oracle", "--config", cfg, "--listen", "127.0.0.1:0")
    assert (code, out) == (1, "")
    assert err == "error: oracle.kind must be replay or markov to serve, got 'external'\n"


def _readme_cli_examples() -> list[list[str]]:
    """The argv of each `specdec` line in README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in examples if argv[:1] == ["specdec"]]


def test_readme_cli_examples_parse():
    # every example in README's CLI block names only commands and flags that exist
    examples = _readme_cli_examples()
    assert len(examples) >= 6
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])


def test_readme_cli_block_shows_every_command():
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[1] for argv in _readme_cli_examples()} == set(subparsers.choices)


def test_stats_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--config", DEMO])
    assert exc.value.code == 2
    assert "invalid choice: 'stats'" in capsys.readouterr().err


def test_run_with_stop_at_eos_exits_1_naming_the_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "eos.json", {
        "corpus": "bundled:repetitive.txt", "decode": {"stop_at_eos": True},
    })
    code, out, err = run_cli(capsys, "run", "--config", cfg)
    assert (code, out, err) == (1, "", "error: unknown config key decode.stop_at_eos\n")


GOLDEN = {
    # pinned from a run of the bundled demo config with cost-aware draft
    # lengths (see test_run_golden_metrics_pinned)
    "alpha": 0.4478463933575506,
    "speedup_sim": 2.7939743021709766,
    "steps": 337,
}
