"""The benchmark's span recorder still reaches every name it wraps.

`bench/spans.py` wraps package functions and cached properties by name, so
renaming one, or removing the cache that a counter reads, would otherwise
show up only when a traced benchmark run dies or reads 0.
"""

import importlib
import importlib.util
from pathlib import Path

from mereotime.boolean import FiniteBA
from mereotime.contact import PrecontactAlgebra
from mereotime.dca import from_contact_algebra

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("boolean", "contact", "snapshot", "dca", "dms", "category", "models", "generate", "cli",
           "reporting", "errors")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_what_the_benchmark_reads():
    spans = _load_spans()
    modules = {name: importlib.import_module(f"mereotime.{name}") for name in MODULES}
    modules["mereotime"] = importlib.import_module("mereotime")
    # Cold caches, so that the traced call computes every counted result.
    for module in modules.values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    d = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    tracer = spans.Tracer(modules)
    with tracer.operation("guard"):
        tracer.install()
        try:
            modules["dms"].verify_representation_topo(d)
        finally:
            tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    for name in ("dms.closed_sets", "dms.rc_sets", "contact.check_axioms_calls"):
        assert metrics[name] > 0, name
