"""Fuzz gate of the exit-code contract: 0 all checks pass, 1 a check fails,
2 bad input, for any model file.

Valid payloads of every kind, in format versions 1 and 2, are mutated one
place at a time: a key or an entry is dropped, a value is retyped (among
others to strings that are not canonical hex masks), an integer becomes 0,
-1 or 2^40 (a size out of range), an array gains a huge index, or a value
is replaced by deeply nested brackets.  Each mutated file goes through
every file command of `cli.main`; nothing may escape `main`, and each call
must finish in under 2 s.  Where `schemas/modelfile.schema.json` rejects the mutated
payload, every command must exit 2: `models.decode` reads no file that the
schema refuses.  Deep nesting must exit 2 without asking the schema, whose
validator may itself recurse past the limit.
"""

from __future__ import annotations

import copy
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import encode_v1
from hypothesis import HealthCheck, example, given, settings, strategies as st
from jsonschema import Draft202012Validator

from mereotime.boolean import FiniteBA
from mereotime.category import DcaMorphism, DmsMorphism
from mereotime.cli import FILE_COMMANDS, main
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import from_contact_algebra, standard_dca
from mereotime.dms import dual_space
from mereotime.models import SPACE_REGION_CAP, encode
from mereotime.snapshot import FULL_REGION_CAP, TimeStructure, build_dmst


def _valid_payloads() -> dict[str, dict]:
    """One file of every kind in format version 2, and its version 1 twin."""
    one = PrecontactAlgebra.overlap(FiniteBA(1))
    two = PrecontactAlgebra.overlap(FiniteBA(2))
    ts = TimeStructure.of(2, {(0, 1)})
    trivial = from_contact_algebra(two)
    space = dual_space(trivial).space
    models = {
        "adjacency": (Relation.of(2, {(0, 0), (0, 1), (1, 1)}), ["contact"]),
        "time_structure": (ts, None),
        "dca": (standard_dca(build_dmst(ts, [one, one], mode="full")), None),
        "dmst_full": (build_dmst(ts, [one, two], mode="full"), None),
        "dmst_custom": (build_dmst(ts, [two, two], mode="rich"), None),
        "dms": (space, None),
        "dca_morphism": (DcaMorphism.identity(trivial), None),
        "dms_morphism": (DmsMorphism.identity(space), None),
    }
    out = {}
    for name, (model, claims) in models.items():
        out[name] = encode(model, claims=claims)
        out[f"{name}_v1"] = encode_v1(model, claims=claims)
    return out


VALID = _valid_payloads()
SCHEMA = Draft202012Validator(
    json.loads((Path(__file__).parents[1] / "schemas" / "modelfile.schema.json").read_text(encoding="utf-8"))
)
NESTED = "@@nested@@"
RETYPED = ("x", 1.5, True, None, {}, [], 7, [[0, 1]], "01", "F", "0x1", "", "f" * 10_000)
HUGE = 2**40


def _paths(node, prefix=()):
    """Every place in a JSON tree, as key/index paths, the root first."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutated_text(payload: dict, path: tuple, op: str, arg) -> str:
    root = {"": copy.deepcopy(payload)}
    parent, key = root, ""
    for step in path:
        parent, key = parent[key], step
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = arg
    elif op == "size":
        parent[key] = arg if isinstance(parent[key], int) else parent[key]
    elif op == "index":
        if isinstance(parent[key], list):
            parent[key].append(arg)
    elif op == "nest":
        parent[key] = NESTED
    text = json.dumps(root.get("", {}))
    return text.replace(json.dumps(NESTED), "[" * arg + "]" * arg) if op == "nest" else text


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(VALID)))
    payload = VALID[name]
    path = draw(st.sampled_from(list(_paths(payload))))
    op = draw(st.sampled_from(("drop", "retype", "size", "index", "nest") if path else ("retype", "nest")))
    arg = {
        "drop": st.none(),
        "retype": st.sampled_from(RETYPED),
        "size": st.sampled_from((0, -1, HUGE)),
        "index": st.sampled_from((HUGE, 10**10, -1)),
        "nest": st.sampled_from((20, 900, 5000)),
    }[op]
    return name, path, op, draw(arg)


def test_valid_payloads_satisfy_the_schema():
    assert {payload["format_version"] for payload in VALID.values()} == {1, 2}
    for name, payload in VALID.items():
        assert SCHEMA.is_valid(payload), name


def test_schema_bounds_regions_as_decode_does():
    """The four `regions` arrays of the schema carry the bounds that
    `models.decode` applies: a dmst file's listed regions, and a dms file's."""
    bounds = {
        (version, branch["properties"]["kind"]["const"]): branch["properties"]["regions"]["maxItems"]
        for version in ("version1", "version2")
        for branch in SCHEMA.schema["$defs"][version]["oneOf"]
        if "regions" in branch["properties"]
    }
    assert bounds == {
        (version, kind): cap
        for version in ("version1", "version2")
        for kind, cap in (("dmst", FULL_REGION_CAP), ("dms", SPACE_REGION_CAP))
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutation=mutations())
# Found by this test: nesting past the recursion limit escaped `main` as a
# RecursionError from the JSON parser.
@example(mutation=("adjacency", ("kind",), "nest", 5000))
# The schema refuses these three, which int() and == would read as 1, as
# the index pair (0, 1) and as point 1.
@example(mutation=("adjacency", ("format_version",), "retype", True))
@example(mutation=("adjacency", ("pairs", 0), "retype", ["0", 1.7]))
@example(mutation=("dms", ("space_points",), "retype", [True]))
# Version 2 masks: not canonical, or longer than the size allows.
@example(mutation=("dms", ("prec", 0), "retype", "01"))
@example(mutation=("dca", ("space_contact", 1), "retype", "f" * 10_000))
def test_mutated_files_keep_the_exit_code_contract(workdir, mutation):
    name, path, op, arg = mutation
    model = workdir / "mutated.json"
    text = _mutated_text(VALID[name], path, op, arg)
    model.write_text(text, encoding="utf-8")
    refused = op == "nest" or not SCHEMA.is_valid(json.loads(text))
    for command, _, _, _, writes in FILE_COMMANDS:
        argv = [command, str(model), *(["--out", str(workdir / "out")] if writes else [])]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2), (command, code)
        assert code == 2 or not refused, (command, code, out.getvalue())
        assert "Traceback" not in err.getvalue(), (command, err.getvalue())
        assert elapsed < 2, (command, elapsed)


# A file of a kind the command does not read: exit 2 with this message, no
# report and nothing written to --out.  `check` reads every kind.
REFUSALS = {
    "points": "points expects a dca file",
    "represent": "represent expects a dca file",
    "dualize": "dualize expects a dca or dms file",
    "roundtrip": "roundtrip expects a dca or dms file",
    "correspondence": "correspondence expects a dmst or dca file",
}


def test_commands_refuse_the_kinds_they_do_not_read(tmp_path):
    refused = set()
    for name, payload in VALID.items():
        model = tmp_path / f"{name}.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        for command, _, kinds, _, writes in FILE_COMMANDS:
            if payload["kind"] in kinds:
                continue
            target = tmp_path / f"out-{command}"
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, str(model), *(["--out", str(target)] if writes else [])])
            assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {REFUSALS[command]}\n"), name
            assert not target.exists(), (command, name)
            refused.add(command)
    assert refused == set(REFUSALS)
