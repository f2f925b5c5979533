"""Command-line entry point: run, sweep, stats, serve-oracle."""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .bundled import resolve_corpus_ref
from .decoding import (
    DecodeOptions,
    baseline_decode,
    speculative_decode,
    write_trace,
    _atomic_write,
)
from .metrics import (
    LosslessnessError,
    compute_metrics,
    sweep,
    write_sweep_csv,
)
from .oracle import DEFAULT_COST_MODEL, CostModel, OracleError, OracleSpec, make_oracle
from .server import OracleServer
from .tokenizer import (
    byte_vocab,
    corpus_stats,
    decode as detokenize,
    encode,
    load_vocab,
    train_bpe,
    word_vocab,
)

log = logging.getLogger("specdec.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LOSSLESSNESS = 2


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    seed: int
    corpus_ref: str
    prompt_tokens: int
    tokenizer_mode: str
    vocab_path: str | None
    bpe_train_size: int
    oracle_kind: str
    markov_order: int
    endpoint: str | None
    decode: DecodeOptions
    cost: CostModel
    trace_path: str | None
    report_path: str | None


def _flag(decode_raw: dict, key: str, default: bool) -> bool:
    value = decode_raw.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"decode.{key} must be true or false, got {value!r}")
    return value


def _int(obj: dict, section: str, key: str, default: int) -> int:
    value = obj.get(key, default)
    # type(), not isinstance(): JSON true and false load as bools, which are ints
    if type(value) is not int:
        name = f"{section}.{key}" if section else key
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _cost(cost_raw: dict, key: str, default: float) -> float:
    value = cost_raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"cost_model.{key} must be a finite number, got {value!r}")
    return float(value)


# The keys a config may hold, at the top level ("") and in each nested object.
_CONFIG_KEYS = {
    "": "seed corpus prompt_tokens tokenizer oracle decode cost_model trace_path report_path",
    "decode": "n_max k_draft max_new_tokens runtime_update stop_at_eos fixed_level_only",
    "oracle": "kind order endpoint",
    "tokenizer": "mode vocab_path train_size",
    "cost_model": "prefill_per_token verify_base verify_per_token",
}


def _sections(raw: dict) -> list[dict]:
    # the nested objects of a config, in _CONFIG_KEYS order, once all its keys are known
    objs = []
    for section, known in _CONFIG_KEYS.items():
        obj = raw.get(section, {}) if section else raw
        if not isinstance(obj, dict):
            raise ConfigError(f"config key {section!r} must be a JSON object")
        unknown = sorted(set(obj) - set(known.split()))
        if unknown:
            where = f"{section}." if section else ""
            raise ConfigError("unknown config key " + ", ".join(where + k for k in unknown))
        objs.append(obj)
    return objs[1:]


def load_config(path: str, overrides: argparse.Namespace | None = None) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    decode_raw, oracle_raw, tok_raw, cost_raw = _sections(raw)

    cfg = RunConfig(
        seed=_int(raw, "", "seed", 0),
        corpus_ref=raw.get("corpus", ""),
        prompt_tokens=_int(raw, "", "prompt_tokens", 64),
        tokenizer_mode=tok_raw.get("mode", "byte"),
        vocab_path=tok_raw.get("vocab_path"),
        bpe_train_size=_int(tok_raw, "tokenizer", "train_size", 512),
        oracle_kind=oracle_raw.get("kind", "replay"),
        markov_order=_int(oracle_raw, "oracle", "order", 2),
        endpoint=oracle_raw.get("endpoint"),
        decode=DecodeOptions(**{
            key: _flag(decode_raw, key, default) if isinstance(default, bool)
            else _int(decode_raw, "decode", key, default)
            for key, default in asdict(DecodeOptions()).items()
        }),
        cost=CostModel(**{
            key: _cost(cost_raw, key, default) for key, default in asdict(DEFAULT_COST_MODEL).items()
        }),
        trace_path=raw.get("trace_path"),
        report_path=raw.get("report_path"),
    )
    if not cfg.corpus_ref:
        raise ConfigError(f"config {path} is missing 'corpus'")
    if not cfg.corpus_ref.startswith("bundled:"):
        if not Path(cfg.corpus_ref).exists():
            raise ConfigError(f"corpus file not found: {cfg.corpus_ref}")
    if cfg.vocab_path is not None and not Path(cfg.vocab_path).is_file():
        raise ConfigError(f"vocab file not found: {cfg.vocab_path}")

    if overrides is not None:
        given = vars(overrides)
        for key, obj, attr in (
            ("n", cfg.decode, "n_max"), ("k", cfg.decode, "k_draft"),
            ("max_new_tokens", cfg.decode, "max_new_tokens"), ("seed", cfg, "seed"),
            ("trace", cfg, "trace_path"), ("report", cfg, "report_path"),
        ):
            if given.get(key) is not None:
                setattr(obj, attr, given[key])
        if given.get("no_runtime_update"):
            cfg.decode.runtime_update = False
        if given.get("fixed_level_only"):
            cfg.decode.fixed_level_only = True
    return cfg


def _build_vocab(mode: str, vocab_path: str | None, train_size: int, corpus: bytes):
    if vocab_path is not None:
        return load_vocab(vocab_path)
    if mode == "byte":
        return byte_vocab()
    if mode == "whitespace":
        return word_vocab(corpus)
    if mode == "bpe":
        return train_bpe(corpus, train_size)
    raise ConfigError(f"unknown tokenizer mode {mode!r}")


def _build_run(cfg: RunConfig) -> tuple[list[int], OracleSpec, object]:
    corpus = resolve_corpus_ref(cfg.corpus_ref)
    vocab = _build_vocab(cfg.tokenizer_mode, cfg.vocab_path, cfg.bpe_train_size, corpus)
    ids = encode(corpus, vocab, cfg.tokenizer_mode)
    if len(ids) <= cfg.prompt_tokens:
        raise ConfigError(
            f"corpus has only {len(ids)} tokens; prompt_tokens={cfg.prompt_tokens} leaves no target"
        )
    prompt = ids[: cfg.prompt_tokens]
    source = {"corpus": cfg.corpus_ref, "mode": cfg.tokenizer_mode, "prompt_tokens": cfg.prompt_tokens}
    if cfg.oracle_kind == "replay":
        spec = OracleSpec(
            kind="replay",
            prompt=tuple(prompt),
            target=tuple(ids[cfg.prompt_tokens :]),
            eos=vocab.eos,
            source=source,
        )
    elif cfg.oracle_kind == "markov":
        spec = OracleSpec(
            kind="markov",
            corpus=tuple(ids),
            order=cfg.markov_order,
            seed=cfg.seed,
            eos=None,
            source=source,
        )
    elif cfg.oracle_kind == "external":
        if not cfg.endpoint:
            raise ConfigError("external oracle needs an 'endpoint'")
        spec = OracleSpec(kind="external", endpoint=cfg.endpoint, source=source)
    else:
        raise ConfigError(f"unknown oracle kind {cfg.oracle_kind!r}")
    return prompt, spec, vocab


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config, args)
        prompt, spec, vocab = _build_run(cfg)
        base = baseline_decode(make_oracle(spec), prompt, cfg.decode, cfg.cost)
        accel = speculative_decode(make_oracle(spec), prompt, cfg.decode, cfg.cost)
    except (ConfigError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        metrics = compute_metrics(accel, base, cfg.cost)
    except LosslessnessError as exc:
        print(f"losslessness violation: {exc}", file=sys.stderr)
        return EXIT_LOSSLESSNESS

    if cfg.trace_path:
        write_trace(cfg.trace_path, accel, spec.to_json(), cfg.cost)
    text = detokenize(accel.output, vocab).decode("utf-8", errors="replace")
    summary = {
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
        "metrics": metrics.to_json(),
    }
    if cfg.report_path:
        lines = [
            "decode report",
            "=============",
            f"n_max={cfg.decode.n_max} k_draft={cfg.decode.k_draft} "
            f"max_new_tokens={cfg.decode.max_new_tokens}",
            f"runtime_update={cfg.decode.runtime_update} "
            f"fixed_level_only={cfg.decode.fixed_level_only}",
            f"oracle={cfg.oracle_kind} prompt_tokens={len(prompt)}",
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
        ]
        _atomic_write(cfg.report_path, "\n".join(lines))
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"generated {len(accel.output)} tokens in {metrics.steps} steps | "
            f"alpha={metrics.alpha:.4f} speedup_sim={metrics.speedup_sim:.4f} "
            f"bound={metrics.theoretical_bound:.4f}"
        )
    return EXIT_OK


def _parse_grid(text: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        n_grid = _parse_grid(args.n_grid)
        k_grid = _parse_grid(args.k_grid)
        if not n_grid or not k_grid:
            print("error: empty sweep grid", file=sys.stderr)
            return EXIT_ERROR
        cfg = load_config(args.config, args)
        prompt, spec, _ = _build_run(cfg)
        table = sweep(spec, [prompt], n_grid, k_grid, cfg.decode, cfg.cost)
        table.config["seed"] = cfg.seed
        out_csv = Path(args.out)
        sidecar = out_csv.with_suffix(out_csv.suffix + ".config.json")
        write_sweep_csv(table, out_csv, sidecar)
    except (ConfigError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps({"rows": len(table.rows), "csv": str(out_csv), "sidecar": str(sidecar)}))
    else:
        print(f"wrote {len(table.rows)} rows to {out_csv} (config: {sidecar})")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        root = Path(args.corpus)
        if args.corpus.startswith("bundled:"):
            files = [args.corpus]
        elif root.is_dir():
            files = [str(f) for f in sorted(root.iterdir()) if f.is_file()]
        elif root.is_file():
            files = [str(root)]
        else:
            print(f"error: corpus not found: {args.corpus}", file=sys.stderr)
            return EXIT_ERROR
        whole = b"".join(resolve_corpus_ref(f) for f in files)
        vocab = _build_vocab(args.mode, args.vocab, args.train_size, whole)
        rows = []
        for f in files:
            st = corpus_stats(resolve_corpus_ref(f), vocab, args.mode)
            rows.append({"file": f, "words": st.word_count, "tokens": st.token_count, "ratio": st.ratio})
        agg = corpus_stats(whole, vocab, args.mode)
        rows.append({"file": "<aggregate>", "words": agg.word_count, "tokens": agg.token_count, "ratio": agg.ratio})
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for r in rows:
            print(f"{r['file']}: words={r['words']} tokens={r['tokens']} ratio={r['ratio']:.4f}")
    return EXIT_OK


def cmd_serve_oracle(args: argparse.Namespace) -> int:
    try:
        host, _, port = args.listen.rpartition(":")
        if not host or not port.isdigit():
            print(f"error: bad --listen {args.listen!r}; expected HOST:PORT", file=sys.stderr)
            return EXIT_ERROR
        corpus = resolve_corpus_ref(args.corpus)
        vocab = byte_vocab()
        ids = encode(corpus, vocab, "byte")
        if args.kind == "markov":
            spec = OracleSpec(kind="markov", corpus=tuple(ids), order=args.order, seed=args.seed)
        elif args.kind == "replay":
            spec = OracleSpec(
                kind="replay",
                prompt=tuple(ids[: args.prompt_tokens]),
                target=tuple(ids[args.prompt_tokens :]),
                eos=vocab.eos,
            )
        else:
            print(f"error: unknown oracle kind {args.kind!r}", file=sys.stderr)
            return EXIT_ERROR
        server = OracleServer(lambda: make_oracle(spec), host=host, port=int(port))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"serving {args.kind} oracle on {server.address}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdec",
        description="Lossless n-gram speculative decoding engine and benchmark harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="decode once with both loops and report metrics")
    run.add_argument("--config", required=True, help="JSON run config")
    run.add_argument("--n", type=int, help="override n_max")
    run.add_argument("--k", type=int, help="override k_draft")
    run.add_argument("--max-new-tokens", type=int, dest="max_new_tokens")
    run.add_argument("--seed", type=int)
    run.add_argument("--no-runtime-update", action="store_true", dest="no_runtime_update")
    run.add_argument("--fixed-level-only", action="store_true", dest="fixed_level_only")
    run.add_argument("--trace", help="write a JSONL step trace here")
    run.add_argument("--report", help="write a human-readable report here")
    run.add_argument("--json", action="store_true", help="machine-parseable stdout")
    run.set_defaults(func=cmd_run)

    sw = sub.add_parser("sweep", help="grid sweep over n and k")
    sw.add_argument("--config", required=True)
    sw.add_argument("--n-grid", required=True, help="e.g. 2-6 or 2,3,5")
    sw.add_argument("--k-grid", required=True, help="e.g. 1-8")
    sw.add_argument("--out", required=True, help="CSV output path")
    sw.add_argument("--seed", type=int)
    sw.add_argument("--max-new-tokens", type=int, dest="max_new_tokens")
    sw.add_argument("--no-runtime-update", action="store_true", dest="no_runtime_update")
    sw.add_argument("--fixed-level-only", action="store_true", dest="fixed_level_only")
    sw.add_argument("--json", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    st = sub.add_parser("stats", help="word/token counts for a corpus")
    st.add_argument("--corpus", required=True, help="file, directory, or bundled:NAME")
    st.add_argument("--mode", default="byte", choices=["byte", "whitespace", "bpe"])
    st.add_argument("--vocab", help="vocab JSON (otherwise built from the corpus)")
    st.add_argument("--train-size", type=int, default=512, dest="train_size")
    st.add_argument("--json", action="store_true")
    st.set_defaults(func=cmd_stats)

    srv = sub.add_parser("serve-oracle", help="serve an oracle over TCP")
    srv.add_argument("--kind", default="markov", choices=["markov", "replay"])
    srv.add_argument("--corpus", required=True)
    srv.add_argument("--order", type=int, default=2)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--prompt-tokens", type=int, default=64, dest="prompt_tokens")
    srv.add_argument("--listen", default="127.0.0.1:7711")
    srv.set_defaults(func=cmd_serve_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


def serve_oracle_entry(argv: list[str] | None = None) -> int:
    """Standalone `serve-oracle` console script."""
    args = ["serve-oracle"] + (argv if argv is not None else sys.argv[1:])
    return main(args)


if __name__ == "__main__":
    sys.exit(main())
