"""The package's public names: `specdec.__all__` is pinned, so a name
can only join or leave it on purpose; README's Library table lists exactly
those names, so the documented library is `__all__`; and every name any
`__all__` lists must resolve, since one left behind by a deletion breaks
`from ... import *`."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import specdec

PUBLIC = [
    "DecodeOptions", "DecodeResult", "StepRecord",
    "baseline_decode", "speculative_decode", "write_trace",
    "LosslessnessError", "RunMetrics", "SweepTable", "compute_metrics",
    "sim_total_time", "sweep", "theoretical_bound", "write_sweep_csv",
    "NgramStore",
    "CostModel", "ExternalOracle", "MarkovOracle", "OracleConnectError",
    "OracleError", "OracleProtocolError", "OracleTransportError", "ReplayOracle",
    "OracleServer",
    "byte_vocab", "decode", "encode",
]

MODULES = ["specdec"] + [f"specdec.{m.name}" for m in pkgutil.iter_modules(specdec.__path__)]


def test_package_all_is_pinned():
    assert len(PUBLIC) == 27
    assert specdec.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_readme_library_table_lists_exactly_the_public_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in library.splitlines() if line.startswith("| ")][1:]
    assert sorted(name for row in rows for name in re.findall(r"`(\w+)`", row)) == sorted(specdec.__all__)
