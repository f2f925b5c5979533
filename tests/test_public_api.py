"""The package's public names: `specdec.__all__` is pinned, so a name
can only join or leave it on purpose, and every name any `__all__` lists
must resolve; one left behind by a deletion breaks `from ... import *`."""

import importlib
import pkgutil

import pytest

import specdec

PUBLIC = [
    "__version__",
    "DecodeOptions", "DecodeResult", "DecodeTotals", "StepRecord",
    "baseline_decode", "speculative_decode", "write_trace",
    "LosslessnessError", "RunMetrics", "SweepTable", "compute_metrics",
    "sim_total_time", "sweep", "theoretical_bound", "write_sweep_csv",
    "NgramStore",
    "DEFAULT_COST_MODEL", "CostModel", "ExternalOracle", "MarkovOracle", "OracleConnectError",
    "OracleError", "OracleProtocolError", "OracleTransportError", "ReplayOracle", "simulate_cost",
    "OracleServer",
    "Vocab", "byte_vocab", "decode", "encode", "read_corpus", "train_bpe", "word_vocab",
]

MODULES = ["specdec"] + [f"specdec.{m.name}" for m in pkgutil.iter_modules(specdec.__path__)]


def test_package_all_is_pinned():
    assert len(PUBLIC) == 35
    assert specdec.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
