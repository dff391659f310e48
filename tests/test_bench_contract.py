"""The benchmark's tracer (bench/tracing.py) times the functions it names in
`WRAPPED`, and BENCHMARK.json lists their metrics. A wrapped function that
is deleted or renamed makes the traced run drop its metric, so each name
must still resolve, by the lookup `Tracer.install` makes."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(monkeypatch):
    missing = []
    for layer, attr, *_ in load_tracing(monkeypatch).WRAPPED:
        module = importlib.import_module(f"lego_forge.{layer}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or vars(owner).get(leaf) is None:
            missing.append(f"{layer}.{attr}")
    assert missing == []
