"""Command-line entry point: run, sweep, serve-oracle.

Every command reads one JSON run config (`--config`), loaded and checked by
`load_config`: `run` and `sweep` decode with it, and `serve-oracle` serves
the oracle it describes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .bundled import bundled_names, resolve_corpus_ref
from .decoding import (
    N_MAX_CAP,
    DecodeOptions,
    baseline_decode,
    speculative_decode,
    write_trace,
    _atomic_write,
)
from .metrics import LosslessnessError, compute_metrics, sweep, write_sweep_csv, _decode_fresh
from .oracle import (
    DEFAULT_COST_MODEL, CostModel, ExternalOracle, MarkovOracle, OracleError, ReplayOracle,
    _is_finite_number, _split_endpoint,
)
from .server import OracleServer
from .tokenizer import (
    MODES,
    byte_vocab,
    decode as detokenize,
    encode,
    train_bpe,
    word_vocab,
)

log = logging.getLogger("specdec.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LOSSLESSNESS = 2

# Values one sweep grid may hold; each is at least one decode.
MAX_GRID_VALUES = 1024


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """A loaded run config; each field holds the config key it is named after.
    `tokenizer` and `oracle` are their checked sections (see _DEFAULTS)."""

    seed: int
    corpus: str
    prompt_tokens: int
    tokenizer: dict
    oracle: dict
    decode: DecodeOptions
    cost_model: CostModel
    trace_path: str | None
    report_path: str | None


# The keys a config may hold and their defaults; a dict is a nested section.
# A value must have its default's type (see _RULES); null stands for a
# default of None.
_DEFAULTS = {
    "seed": 0,
    "corpus": "",
    "prompt_tokens": 64,
    "tokenizer": {"mode": "byte", "train_size": 512},
    "oracle": {"kind": "replay", "order": 2, "endpoint": None},
    "decode": asdict(DecodeOptions()),
    "cost_model": asdict(DEFAULT_COST_MODEL),
    "trace_path": None,
    "report_path": None,
}

# What a default's type admits from JSON, and how to say so. type(), not
# isinstance(): JSON true and false load as bools, which are ints.
_RULES = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", _is_finite_number),
    str: ("a string", lambda v: type(v) is str),
    dict: ("a JSON object", lambda v: type(v) is dict),
}


def _read(obj: dict, defaults: dict, where: str = "") -> dict:
    """`obj`'s settings over `defaults`, each checked against its default's
    type; a nested section is read the same way. Errors name "section.key"."""
    unknown = sorted(set(obj) - set(defaults))
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(where + key for key in unknown))
    values = {}
    for key, default in defaults.items():
        value = obj.get(key, default)
        what, admits = _RULES[str if default is None else type(default)]
        if not (admits(value) or (value is None and default is None)):
            raise ConfigError(f"{where}{key} must be {what}, got {value!r}")
        values[key] = _read(value, default, f"{where}{key}.") if type(default) is dict else value
    return values


def load_config(path: str, overrides: argparse.Namespace | None = None) -> RunConfig:
    """The run config in the JSON file at `path`. Each attribute of
    `overrides` that is not None and is named after a config key,
    "section.key" when nested, replaces that key's value."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    values = _read(raw, _DEFAULTS)
    for dest, value in vars(overrides or argparse.Namespace()).items():
        section, _, key = dest.rpartition(".")
        obj = values[section] if section else values
        if value is not None and key in obj:
            obj[key] = value

    # each dataclass checks its own values, in messages that begin with the field
    try:
        decode = DecodeOptions(**values["decode"])
    except ValueError as exc:
        raise ConfigError(f"decode.{exc}") from None
    try:
        cost_model = CostModel(**values["cost_model"])
    except ValueError as exc:
        raise ConfigError(f"cost_model.{exc}") from None
    cfg = RunConfig(**{**values, "decode": decode, "cost_model": cost_model})

    tok, oracle = cfg.tokenizer, cfg.oracle
    if not cfg.corpus:
        raise ConfigError(f"config {path} is missing 'corpus'")
    for name, value, allowed in (
        ("tokenizer.mode", tok["mode"], MODES),
        ("oracle.kind", oracle["kind"], ("replay", "markov", "external")),
    ):
        if value not in allowed:
            raise ConfigError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    if oracle["kind"] == "external" and not oracle["endpoint"]:
        raise ConfigError("oracle.endpoint is required when oracle.kind is 'external'")
    if oracle["endpoint"] is not None:
        try:
            _split_endpoint(oracle["endpoint"], "oracle.endpoint")
        except OracleError as exc:
            raise ConfigError(str(exc)) from None
    for name, value, least in (
        ("prompt_tokens", cfg.prompt_tokens, 1),
        ("oracle.order", oracle["order"], 1),
        ("tokenizer.train_size", tok["train_size"], 257),  # 256 byte tokens and eos
    ):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    if cfg.corpus.startswith("bundled:"):
        if cfg.corpus[len("bundled:"):] not in bundled_names():
            raise ConfigError(f"corpus {cfg.corpus!r} names no bundled corpus; "
                              f"available: {', '.join(bundled_names())}")
    elif not os.path.exists(cfg.corpus):  # os.path: a name too long to stat is not found, no OSError
        raise ConfigError(f"corpus file not found: {cfg.corpus}")
    return cfg


def _build_vocab(tokenizer: dict, corpus: bytes):
    """The vocab of the config's `tokenizer.mode`, built over `corpus`."""
    if tokenizer["mode"] == "byte":
        return byte_vocab()
    if tokenizer["mode"] == "whitespace":
        return word_vocab(corpus)
    return train_bpe(corpus, tokenizer["train_size"])  # load_config allows no other mode


def _build_run(cfg: RunConfig) -> tuple[list[int], Callable[[], object], dict, object]:
    """The prompt, an oracle factory, its JSON description for traces, and the vocab."""
    corpus = resolve_corpus_ref(cfg.corpus)
    mode, oracle = cfg.tokenizer["mode"], cfg.oracle
    vocab = _build_vocab(cfg.tokenizer, corpus)
    ids = encode(corpus, vocab, mode)
    if len(ids) <= cfg.prompt_tokens:
        raise ConfigError(
            f"corpus has only {len(ids)} tokens; prompt_tokens={cfg.prompt_tokens} leaves no target"
        )
    prompt, target = ids[: cfg.prompt_tokens], ids[cfg.prompt_tokens :]
    source = {"corpus": cfg.corpus, "mode": mode, "prompt_tokens": cfg.prompt_tokens}
    oracle_json: dict = {"kind": oracle["kind"], "eos": None, "source": source}
    if oracle["kind"] == "replay":
        oracle_json.update(eos=vocab.eos, prompt_len=len(prompt), target_len=len(target))
        new_oracle = lambda: ReplayOracle(prompt, target, vocab.eos)
    elif oracle["kind"] == "markov":
        oracle_json.update(order=oracle["order"], seed=cfg.seed)
        new_oracle = lambda: MarkovOracle(ids, oracle["order"], cfg.seed)
    else:  # load_config allows no other kind, and an external one only with an endpoint
        oracle_json.update(endpoint=oracle["endpoint"])
        new_oracle = lambda: ExternalOracle(oracle["endpoint"])
    return prompt, new_oracle, oracle_json, vocab


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, args)
    prompt, new_oracle, oracle_json, vocab = _build_run(cfg)
    base = _decode_fresh(baseline_decode, new_oracle, prompt, cfg.decode, cfg.cost_model)
    accel = _decode_fresh(speculative_decode, new_oracle, prompt, cfg.decode, cfg.cost_model)
    metrics = compute_metrics(accel, base, cfg.cost_model)
    if cfg.trace_path:
        write_trace(cfg.trace_path, accel, oracle_json, cfg.cost_model)
    if cfg.report_path:
        text = detokenize(accel.output, vocab).decode("utf-8", errors="replace")
        _atomic_write(cfg.report_path, "\n".join([
            "decode report",
            "=============",
            f"n_max={cfg.decode.n_max} k_draft={cfg.decode.k_draft} "
            f"max_new_tokens={cfg.decode.max_new_tokens}",
            f"runtime_update={cfg.decode.runtime_update} "
            f"fixed_level_only={cfg.decode.fixed_level_only}",
            f"oracle={cfg.oracle['kind']} prompt_tokens={len(prompt)}",
            "",
            f"output tokens: {len(accel.output)}",
            f"steps: {metrics.steps}",
            f"alpha (draft hit ratio): {metrics.alpha:.4f}",
            f"mean committed per step: {metrics.mean_committed_per_step:.4f}",
            f"speedup_sim: {metrics.speedup_sim:.4f}",
            f"bound (alpha*K+1): {metrics.theoretical_bound:.4f}",
            "",
            "output text",
            "-----------",
            text,
            "",
        ]))
    if args.json:
        print(json.dumps({
            "config": str(args.config),
            "n": cfg.decode.n_max,
            "k": cfg.decode.k_draft,
            "max_new_tokens": cfg.decode.max_new_tokens,
            "runtime_update": cfg.decode.runtime_update,
            "fixed_level_only": cfg.decode.fixed_level_only,
            "output_len": len(accel.output),
            "llm_calls": accel.totals.llm_calls,
            "rollbacks": accel.totals.rollbacks,
            "baseline_llm_calls": base.totals.llm_calls,
            "metrics": asdict(metrics),
        }, sort_keys=True))
    else:
        print(
            f"generated {len(accel.output)} tokens in {metrics.steps} steps | "
            f"alpha={metrics.alpha:.4f} speedup_sim={metrics.speedup_sim:.4f} "
            f"bound={metrics.theoretical_bound:.4f}"
        )
    return EXIT_OK


def _parse_grid(text: str, key: str, cap: int | None = None) -> list[int]:
    """Comma-separated integers and lo-hi ranges; anything else is refused
    naming `key`. A range whose lo is above its hi, a value or range above
    `cap`, or one that would take the grid past MAX_GRID_VALUES values, is
    refused before it is expanded."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:  # a leading "-" is a sign, any later one splits a range
            lo, hi = map(int, part.split("-", 1)) if "-" in part[1:] else (int(part),) * 2
        except ValueError:
            raise ValueError(f"{key} grid takes integers and lo-hi ranges, got {part!r}") from None
        if lo > hi:
            raise ValueError(f"{key} range {part} is empty: its lo is above its hi")
        if cap is not None and hi > cap:
            raise ValueError(f"{key} must be <= {cap}, got {part}")
        if len(values) + hi - lo + 1 > MAX_GRID_VALUES:
            raise ValueError(f"{key} grid must hold at most {MAX_GRID_VALUES} values, got {part}")
        values.extend(range(lo, hi + 1))
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    n_grid = _parse_grid(args.n_grid, "n_max", N_MAX_CAP)
    k_grid = _parse_grid(args.k_grid, "k_draft")
    if not n_grid or not k_grid:
        raise ValueError("empty sweep grid")
    cfg = load_config(args.config, args)
    prompt, new_oracle, oracle_json, _ = _build_run(cfg)
    table = sweep(new_oracle, prompt, n_grid, k_grid, cfg.decode, cfg.cost_model)
    table.config.update(oracle=oracle_json, seed=cfg.seed)
    out_csv = Path(args.out)
    sidecar = write_sweep_csv(table, out_csv)
    # if every cell failed, say why once per reason
    if all(m is None for m in table.cells.values()):
        for reason in dict.fromkeys(table.config["errors"].values()):
            print(f"error: {reason}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps({"rows": len(table.cells), "csv": str(out_csv), "sidecar": str(sidecar)}))
    else:
        print(f"wrote {len(table.cells)} rows to {out_csv} (config: {sidecar})")
    return EXIT_OK


def cmd_serve_oracle(args: argparse.Namespace) -> int:
    """Serve the oracle that `run --config` would decode against."""
    host, port = _split_endpoint(args.listen, "--listen")
    cfg = load_config(args.config)
    kind = cfg.oracle["kind"]
    if kind == "external":
        raise ConfigError("oracle.kind must be replay or markov to serve, got 'external'")
    new_oracle = _build_run(cfg)[1]
    new_oracle()  # a factory that cannot build fails here, not on every connection
    server = OracleServer(new_oracle, host=host, port=port)
    # SIGTERM, and a SIGINT ignored since start (as under `&`), stop it as
    # Ctrl-C does, from the moment its handler is set; a further one while
    # it shuts down is ignored. Only the main thread may set a handler.
    in_main = threading.current_thread() is threading.main_thread()
    stops = (signal.SIGINT, signal.SIGTERM) if in_main else ()
    previous = {}
    try:
        for s in stops:
            previous[s] = signal.signal(s, signal.default_int_handler)
        print(f"serving {kind} oracle on {server.address}", flush=True)  # a port 0 is read off it
        server.serve_forever()
    except KeyboardInterrupt:
        for s in stops:
            signal.signal(s, signal.SIG_IGN)
        server.shutdown()
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdec",
        description="Lossless n-gram speculative decoding engine and benchmark harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="JSON run config")

    # flags that run and sweep share; a dest named after a config key
    # ("section.key" when nested) overrides it when given (see load_config)
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--seed", type=int)
    common.add_argument("--max-new-tokens", type=int, dest="decode.max_new_tokens")
    common.add_argument(
        "--no-runtime-update", action="store_false", default=None, dest="decode.runtime_update"
    )
    common.add_argument(
        "--fixed-level-only", action="store_true", default=None, dest="decode.fixed_level_only"
    )
    common.add_argument("--json", action="store_true", help="machine-parseable stdout")

    run = sub.add_parser(
        "run", parents=[common], help="decode once with both loops and report metrics"
    )
    run.add_argument("--n", type=int, dest="decode.n_max", help="override n_max")
    run.add_argument("--k", type=int, dest="decode.k_draft", help="override k_draft")
    run.add_argument("--trace", dest="trace_path", help="write a JSONL step trace here")
    run.add_argument("--report", dest="report_path", help="write a human-readable report here")
    run.set_defaults(func=cmd_run)

    sw = sub.add_parser("sweep", parents=[common], help="grid sweep over n and k")
    sw.add_argument("--n-grid", required=True, help="e.g. 2-6 or 2,3,5")
    sw.add_argument("--k-grid", required=True, help="e.g. 1-8")
    sw.add_argument("--out", required=True, help="CSV output path")
    sw.set_defaults(func=cmd_sweep)

    srv = sub.add_parser("serve-oracle", parents=[config], help="serve the config's oracle over TCP")
    srv.add_argument("--listen", default="127.0.0.1:7711", help="HOST:PORT")
    srv.set_defaults(func=cmd_serve_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and map what it raises to an exit code: 2 for an
    engine bug, 1 for a config, IO or oracle error."""
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LosslessnessError as exc:
        print(f"losslessness violation: {exc}", file=sys.stderr)
        return EXIT_LOSSLESSNESS
    except (ConfigError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
