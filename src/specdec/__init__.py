"""Lossless speculative decoding with n-gram drafting.

Candidate tokens are drafted from count tables built over the prompt and
everything generated so far, then verified in one batched call against a
deterministic autoregressive oracle. The accelerated loop emits exactly the
tokens the plain greedy loop would, only in fewer oracle calls.
"""

__version__ = "0.1.0"

from .decoding import (
    DecodeOptions,
    DecodeResult,
    StepRecord,
    baseline_decode,
    speculative_decode,
    write_trace,
)
from .metrics import (
    LosslessnessError,
    RunMetrics,
    SweepTable,
    compute_metrics,
    sim_total_time,
    sweep,
    theoretical_bound,
    write_sweep_csv,
)
from .ngram import NgramStore
from .oracle import (
    CostModel,
    ExternalOracle,
    MarkovOracle,
    OracleConnectError,
    OracleError,
    OracleProtocolError,
    OracleTransportError,
    ReplayOracle,
)
from .server import OracleServer
from .tokenizer import byte_vocab, decode, encode

__all__ = [
    "DecodeOptions",
    "DecodeResult",
    "StepRecord",
    "baseline_decode",
    "speculative_decode",
    "write_trace",
    "LosslessnessError",
    "RunMetrics",
    "SweepTable",
    "compute_metrics",
    "sim_total_time",
    "sweep",
    "theoretical_bound",
    "write_sweep_csv",
    "NgramStore",
    "CostModel",
    "ExternalOracle",
    "MarkovOracle",
    "OracleConnectError",
    "OracleError",
    "OracleProtocolError",
    "OracleTransportError",
    "ReplayOracle",
    "OracleServer",
    "byte_vocab",
    "decode",
    "encode",
]
