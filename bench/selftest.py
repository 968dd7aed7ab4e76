"""Show that every correctness check of the benchmark rejects a wrong answer.

    python3 bench/selftest.py

For one operation of every kind in each workload, the check must accept the
program's real output and reject the same output with a wrong answer
planted in it: a flipped verdict, a count off by one, a wrong exit code, a
missing or altered output file.  Exits 1 if any check fails to do either.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import run
import spans
from workloads import WORKLOADS, CliResult


def _flip_check(result: CliResult) -> CliResult:
    payload = json.loads(result.out)
    payload["checks"][0]["holds"] = not payload["checks"][0]["holds"]
    return replace(result, out=json.dumps(payload))


def _edit_info(edit):
    def plant(result: CliResult) -> CliResult:
        payload = json.loads(result.out)
        edit(payload["info"])
        return replace(result, out=json.dumps(payload))

    return plant


def _bump(*keys):
    def edit(info):
        for key in keys[:-1]:
            info = info[key]
        info[keys[-1]] += 1

    return edit


def _flip_row(field):
    def edit(info):
        info["rows"][0][field] = not info["rows"][0][field]

    return edit


def _exit_code(code):
    return lambda result: replace(result, code=code)


def _set(key, value):
    def edit(info):
        info[key] = value

    return edit


def _rewrite_file(path_of, edit):
    """Plant a wrong answer in an output file; the check reads it back."""

    def plant(result: CliResult) -> CliResult:
        path = path_of(result)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return result

    return plant


def _model_file(result: CliResult) -> Path:
    return Path(json.loads(result.out)["info"]["model_file"])


# Planted wrong answers per kind of command-line operation.
CLI_PLANTS = {
    "check.dca": [_flip_check, _exit_code(1)],
    "points.dca": [_edit_info(_bump("counts", "t_clans")), _edit_info(_bump("counts", "s_clans")),
                   _edit_info(_set("canonical_time", {"point_count": 9, "prec": []}))],
    "represent.dca": [_flip_check, _rewrite_file(_model_file, _bump("time", "point_count")),
                      _rewrite_file(_model_file, lambda m: m["coordinates"].pop())],
    "correspondence.dca": [_edit_info(_flip_row("clusters")), _edit_info(_flip_row("regions"))],
    "check.dmst": [_flip_check, _edit_info(_bump("regions")), _edit_info(_set("rich", False))],
    "correspondence.dmst": [_edit_info(_flip_row("left")), _edit_info(_flip_row("right"))],
    "malformed": [_exit_code(0), _exit_code(1), lambda r: replace(r, err="")],
    "dualize": [_flip_check, _rewrite_file(_model_file, _bump("point_count")),
                _rewrite_file(_model_file, lambda m: m["regions"].pop()),
                _rewrite_file(_model_file, lambda m: m["space_points"].pop())],
    "check.dms": [_flip_check, _edit_info(_set("T0", False)), _edit_info(_set("DM_compact", False))],
    "roundtrip.dms": [_flip_check, _exit_code(1)],
    "roundtrip.dca": [_flip_check, _exit_code(1)],
}


def _kind(label: str) -> str:
    if label.endswith(".malformed"):
        return "malformed"
    parts = label.split(".")
    return parts[0] if parts[0] == "dualize" else ".".join(parts[:2])


def _flip_verdict(value):
    report, canonical, clans = value
    checks = [SimpleNamespace(name=c.name, holds=(not c.holds) if c.name == "C4" else c.holds) for c in report.checks]
    return SimpleNamespace(checks=checks), canonical, clans


def _toggle_pair(value):
    report, canonical, clans = value
    return report, SimpleNamespace(pairs=set(canonical.pairs) ^ {(0, 0)}), clans


def _drop_clan(value):
    """One clan too few, or clans for a relation that is not a contact."""
    report, canonical, clans = value
    return report, canonical, [] if clans is None else clans[1:]


def _flip_row_left(rows):
    first = rows[0]
    return [SimpleNamespace(condition=first.condition, left=not first.left, right=not first.right)] + rows[1:]


def _failing_report(report):
    return SimpleNamespace(checks=list(report.checks) + [SimpleNamespace(name="planted", holds=False)])


SWEEP_PLANTS = {
    "relation": [_flip_verdict, _toggle_pair, _drop_clan],
    "correspondence": [_flip_row_left],
    "representation": [_failing_report],
}


def check_op(op, plants, problems: list) -> int:
    """Run one operation; its check must pass the real answer and fail each planted one."""
    try:
        value = op.call()
    except Exception as exc:  # the runner counts this as a failed operation
        value, real = None, [f"uncaught {type(exc).__name__}: {exc}"]
    else:
        real = op.check(value)
    if real and not (op.known_fault and any(op.known_fault in p for p in real)):
        problems.append(f"{op.label}: real output rejected: {real[0]}")
    if real:  # a known fault: its planted answers cannot be told apart
        return 0
    for plant in plants:
        planted = plant(copy.deepcopy(value) if isinstance(value, CliResult) else value)
        if not op.check(planted):
            problems.append(f"{op.label}: planted answer {getattr(plant, '__name__', plant)} accepted")
    if plants and isinstance(value, CliResult):
        op.call()  # writes again the output files a plant altered
    return len(plants)


def check_trace(modules, problems: list) -> int:
    """A traced sweep operation must move `dms.representation_s`; the same
    call bound before the tracer was installed must be caught as idle."""
    workload = WORKLOADS["sweep"]()
    workload.generate(modules, run.OUT / "selftest", random.Random(0))
    op = next(op for op in workload.round(modules) if op.label.startswith("representation."))
    bypass = replace(op, call=partial(modules["dms"].verify_representation_topo, *op.call.args[1:]))
    tracer = spans.Tracer(modules)
    for candidate, bypasses in ((op, False), (bypass, True)):
        for cache in run.function_caches(modules):
            cache.cache_clear()
        first = len(tracer.spans)
        tracer.install()
        try:
            with tracer.operation(candidate.label):
                candidate.call()
        finally:
            tracer.uninstall()
        if bool(spans.idle([spans.layer_metrics(tracer.spans, first)], ["dms.representation_s"])) != bypasses:
            problems.append(f"{candidate.label}: {'bypass missed' if bypasses else 'traced call read as idle'}")
    return 1


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    modules = run.import_fresh()
    problems: list[str] = []
    planted = 0
    work = run.OUT / "selftest"
    try:
        for name, workload_class in WORKLOADS.items():
            shutil.rmtree(work, ignore_errors=True)
            workload = workload_class()
            workload.generate(modules, work, random.Random(0))
            seen = set()
            for op in workload.round(modules):
                kind = op.label.split(".")[0] if name == "sweep" else _kind(op.label)
                first = kind not in seen
                seen.add(kind)
                if name == "sweep" and not first and not op.label.endswith("n3"):
                    continue
                for cache in run.function_caches(modules):
                    cache.cache_clear()
                plants = SWEEP_PLANTS[kind] if name == "sweep" else CLI_PLANTS[kind]
                # Every command runs, since later ones read files earlier ones wrote.
                planted += check_op(op, plants if name == "sweep" or first else [], problems)
            print(f"{name}: {len(seen)} kinds of operation checked")
        planted += check_trace(modules, problems)
        print("trace: a call that bypasses the tracer is caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{planted} planted wrong answers, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
