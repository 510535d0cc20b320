"""The macro benchmark reports each point's build time."""

import importlib.util
from pathlib import Path

import repro.runner

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "macro" / "bench_macro.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_macro", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_points_report_build_seconds():
    bench = _load_bench()
    build = repro.runner.build_loaded_sysplex
    point = bench.bench_tab1_base1()
    assert repro.runner.build_loaded_sysplex is build  # wrapper removed
    assert 0.0 < point["build_s"] < point["seconds"]
    assert point["completed"] > 0

