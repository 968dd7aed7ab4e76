"""Span recorder for the traced run.

`Tracer.install` wraps every public function of each layer module, together
with every binding of it that another module of the package imported, so
that a call records a span: name, parent, start and end.  Spans are recorded
only inside an operation (`Tracer.operation`) and are kept in memory until
the run writes them out.  `layer_metrics` turns one round's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("contact", "snapshot", "dca", "dms", "category", "models", "cli")
# Class attributes outside the module namespace that the dms metrics need.
PROPERTIES = {"dms": {"FiniteTopSpace": ("closed_family", "regular_closed")}}

NAME, PARENT, START, END, COUNT = range(5)

# Inclusive time of the outermost calls of these spans, per round.
TIMED = {
    "contact.check_axioms_s": ("contact.check_axioms",),
    "contact.canonical_s": ("contact.canonical_relation",),
    "contact.clans_s": ("contact.clans",),
    "snapshot.build_dmst_s": ("snapshot.build_dmst",),
    "snapshot.correspondence_s": ("snapshot.correspondence_check",),
    "dca.validate_s": ("dca.validate_dca",),
    "dca.clan_structure_s": ("dca.clan_structure",),
    "dca.embedding_s": ("dca.verify_embedding",),
    "dca.canonical_model_s": ("dca.canonical_standard_dca",),
    "dca.standard_dca_s": ("dca.standard_dca",),
    "dms.dual_space_s": ("dms.dual_space",),
    "dms.validate_s": ("dms.validate_dms",),
    "dms.regular_closed_s": ("dms.FiniteTopSpace.regular_closed",),
    "dms.classify_s": ("dms.classify",),
    "dms.stability_s": ("dms.stability_check",),
    "dms.representation_s": ("dms.verify_representation_topo",),
    "category.roundtrip_s": ("category.duality_roundtrip",),
    "category.isomorphism_s": ("category.dca_isomorphism_report", "category.dms_isomorphism_report"),
    "models.load_s": ("models.load_path",),
    "models.write_s": ("models.write_path",),
}
# Number of calls, or sum of the work counts recorded on the calls, per round.
COUNTED = {
    "contact.check_axioms_calls": ("contact.check_axioms", "calls"),
    "contact.elements_evaluated": ("contact.check_axioms", "work"),
    "snapshot.regions": ("snapshot.build_dmst", "work"),
    "dca.validate_calls": ("dca.validate_dca", "calls"),
    "dca.t_clans": ("dca.clan_structure", "work"),
    "dms.closed_sets": ("dms.FiniteTopSpace.closed_family", "work"),
    "dms.rc_sets": ("dms.FiniteTopSpace.regular_closed", "work"),
    "dms.points": ("dms.dual_space", "work"),
    "models.bytes_read": ("models.load_path", "work"),
    "models.bytes_written": ("models.write_path", "work"),
}


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    return "bytes" if ".bytes_" in name else "count"


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _counters(modules):
    """Work counts recorded on a span, from the call's arguments and result.

    `check_axioms` counts one call, and 4^n evaluated element pairs when the
    call missed its cache and so decided the axioms exhaustively.
    """
    check_axioms = modules["contact"].check_axioms

    def axioms(args, result, misses):
        return 4 ** args[0].base.atom_count if check_axioms.cache_info().misses > misses else 0

    return {
        "contact.check_axioms": (lambda args: check_axioms.cache_info().misses, axioms),
        "snapshot.build_dmst": (None, lambda args, result, _: len(result.regions)),
        "dca.clan_structure": (None, lambda args, result, _: len(result.t_clans)),
        "dms.FiniteTopSpace.closed_family": (None, lambda args, result, _: len(result)),
        "dms.FiniteTopSpace.regular_closed": (None, lambda args, result, _: len(result)),
        "dms.dual_space": (None, lambda args, result, _: len(result.points)),
        "models.load_path": (None, lambda args, result, _: _file_size(args[0])),
        "models.write_path": (None, lambda args, result, _: _file_size(args[0])),
    }


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.counters = _counters(modules)
        self._restore: list = []

    def wrap(self, name: str, fn):
        pre, count = self.counters.get(name, (None, None))
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, stack[-1], perf_counter_ns(), 0, 0]
            stack.append(len(spans))
            spans.append(record)
            state = pre(args) if pre else None
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            if count:
                record[COUNT] = count(args, result, state)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and every binding of them."""
        package = list(self.modules.values())
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or getattr(fn, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            self._restore.append((other, key, fn))
                            setattr(other, key, traced)
            for cls_name, props in PROPERTIES.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for prop in props:
                    original = cls.__dict__[prop]
                    wrapped = cached_property(self.wrap(f"{layer}.{cls_name}.{prop}", original.func))
                    wrapped.__set_name__(cls, prop)
                    self._restore.append((cls, prop, original))
                    setattr(cls, prop, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    @contextmanager
    def operation(self, label: str):
        """Root span of one operation; spans are recorded only inside it."""
        record = [f"op.{label}", -1, 0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        self.active = True
        record[START] = perf_counter_ns()
        try:
            yield
        finally:
            record[END] = perf_counter_ns()
            self.active = False
            self.stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "parent", "start_ns", "end_ns", "count"], "spans": self.spans}),
            encoding="utf-8",
        )


def layer_metrics(spans, first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans from index `first` on.

    A span's self time is its duration minus its children's.  Within each
    operation the self times of its spans must sum to the operation's time.
    The root span's own time, the benchmark's glue and the leaf modules,
    belongs to no layer, so the sum cannot show a call that bypassed the
    tracer; `idle` can.
    """
    spans = spans[first:]
    children_ns = [0] * len(spans)
    root = [0] * len(spans)
    outermost = [True] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT] - first if span[PARENT] >= 0 else -1
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            children_ns[parent] += span[END] - span[START]
            ancestor = parent
            while ancestor >= 0 and outermost[i]:
                outermost[i] = spans[ancestor][NAME] != span[NAME]
                up = spans[ancestor][PARENT]
                ancestor = up - first if up >= 0 else -1

    self_ns = {layer: 0 for layer in LAYERS}
    op_self = {}
    inclusive: dict[str, int] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for i, span in enumerate(spans):
        own = span[END] - span[START] - children_ns[i]
        op_self[root[i]] = op_self.get(root[i], 0) + own
        layer = span[NAME].split(".", 1)[0]
        if layer in self_ns:
            self_ns[layer] += own
        if outermost[i]:
            inclusive[span[NAME]] = inclusive.get(span[NAME], 0) + span[END] - span[START]
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        work[span[NAME]] = work.get(span[NAME], 0) + span[COUNT]
    for r, total in op_self.items():
        duration = spans[r][END] - spans[r][START]
        if total != duration:
            raise AssertionError(f"self times of {spans[r][NAME]} sum to {total} ns, not {duration}")

    out = {name: sum(inclusive.get(s, 0) for s in names) / 1e9 for name, names in TIMED.items()}
    for name, (span_name, kind) in COUNTED.items():
        out[name] = (calls if kind == "calls" else work).get(span_name, 0)
    out.update({f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()})
    closed, rc = out["dms.closed_sets"], out["dms.rc_sets"]
    # Share of enumerated closed sets that were regular closed; with no
    # enumeration at all, nothing was wasted.
    out["dms.rc_yield"] = rc / closed if closed else (1.0 if rc else 0.0)
    return out


def idle(rounds, names) -> list[str]:
    """The metrics of `names` that read 0 in some round's metrics.

    A workload meant to move such a metric reached the layer's function
    without its wrapper, or never called it.
    """
    return [name for name in names if not all(metrics[name] for metrics in rounds)]
