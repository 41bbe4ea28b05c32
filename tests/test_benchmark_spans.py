"""The traced benchmark run rebinds the functions named in
benchmarks/tracer.py; every name there must still resolve to a callable of
the package, or the traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("gcobench_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_tracer().SPANS


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves_to_a_package_callable(span):
    mod_name, _, attr = span.partition(".")
    target = importlib.import_module(f"gcobench.{mod_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_count_hooks_name_traced_spans():
    tracer = load_tracer()
    assert set(tracer.COUNT_HOOKS) <= set(tracer.SPANS)
