import importlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import TableMorphism, dca_corpus, element_naturality, encode_v1, write_path_v1

import mereotime
from mereotime import cli
from mereotime.boolean import FiniteBA
from mereotime.category import (
    DcaMorphism,
    DmsMorphism,
    naturality,
    trace_morphism,
    validate_dca_morphism,
    validate_dms_morphism,
)
from mereotime.cli import COMMAND_TABLE, FILE_COMMANDS, PARSER, CommandReport, build_parser, main
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import DCA, correspondence2, from_contact_algebra, standard_dca
from mereotime.dms import DMSpace, FiniteTopSpace, dual_space
from mereotime.errors import CapabilityError, count_text
from mereotime.models import (
    KINDS,
    RELATION_SIZE_CAP,
    SPACE_POINT_CAP,
    SPACE_REGION_CAP,
    canonical_dumps,
    decode,
    digest,
    encode,
    load_path,
    write_path,
)
from mereotime.reporting import Report
from mereotime.snapshot import FULL_REGION_CAP, TimeStructure, build_dmst

ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))


@pytest.fixture()
def trivial_dca_file(tmp_path):
    d = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    path = tmp_path / "trivial_dca.json"
    write_path(path, d)
    return path


@pytest.fixture()
def chain_dca_file(tmp_path):
    ts = TimeStructure.of(2, {(0, 1)})
    d = standard_dca(build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full"))
    path = tmp_path / "chain_dca.json"
    write_path(path, d)
    return path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid_dca(trivial_dca_file, capsys):
    code, out, _ = run(["check", trivial_dca_file], capsys)
    assert code == 0
    assert "result: ok" in out


def test_check_bad_relation_exits_one(tmp_path, capsys):
    rel = Relation.of(2, {(0, 1)})
    path = tmp_path / "bad_relation.json"
    write_path(path, rel, claims=["contact"])
    code, out, _ = run(["check", path], capsys)
    assert code == 1
    assert "FAIL  C4" in out
    assert "witness" in out


def test_check_adjacency_without_claims_reports_info(tmp_path, capsys):
    rel = Relation.of(2, {(0, 1)})
    path = tmp_path / "some_relation.json"
    write_path(path, rel)
    code, out, _ = run(["check", path], capsys)
    assert code == 0  # precontact claims hold for any generated relation


def test_check_garbage_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{ not json", encoding="utf-8")
    code, _, err = run(["check", path], capsys)
    assert code == 2
    assert "error" in err

    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"kind": "dca", "format_version": 1}))
    code, _, err = run(["check", missing_field], capsys)
    assert code == 2

    # Nesting past the interpreter's recursion limit, in the JSON parser (a
    # 400 KB file of brackets) or in decoding (a morphism whose domain is a
    # morphism, 990 deep); both text files are built without json.dumps.
    dca = '{"kind":"dca","format_version":1,"atom_count":1,"space_contact":[[0,0]],"time_contact":[[0,0]],"precedence":[[0,0]]}'
    head = '{"kind":"morphism","format_version":1,"morphism_kind":"dca","map":[[],[0]],"cod":' + dca + ',"dom":'
    for name, text in (("brackets", "[" * 200_000 + "]" * 200_000), ("morphism", head * 990 + dca + "}" * 990)):
        path = tmp_path / f"nested_{name}.json"
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        code, _, err = run(["check", path], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and err.startswith("error:") and str(path) in err and "nested too deeply" in err, err

    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"kind": 1}')
    code, _, err = run(["check", binary], capsys)
    assert code == 2 and str(binary) in err and "not UTF-8 text at byte 0" in err, err

    # json.loads refuses an integer literal past the interpreter's digit limit
    # (4,300 digits by default) with a ValueError of its own.
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"kind": "adjacency", "format_version": 1, "point_count": ' + "9" * 5000 + ', "pairs": []}')
    code, _, err = run(["check", long_int], capsys)
    assert code == 2 and str(long_int) in err and "integer too long" in err, err


def test_check_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(["check", tmp_path / "nope.json"], capsys)
    assert code == 2


def test_points_counts(trivial_dca_file, capsys):
    code, out, _ = run(["points", trivial_dca_file, "--format", "json"], capsys)
    assert code == 0
    body = json.loads(out)
    assert body["info"]["counts"] == {
        "ultrafilters": 2,
        "s_clans": 2,
        "t_clans": 3,
        "clusters": 1,
    }
    assert body["info"]["canonical_time"]["prec"] == [[0, 0]]


def test_points_rejects_invalid_dca(tmp_path, capsys):
    payload = {
        "kind": "dca",
        "format_version": 1,
        "atom_count": 2,
        "space_contact": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "time_contact": [[0, 0], [1, 1]],
        "precedence": [[0, 0], [1, 1]],
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(["points", path], capsys)
    assert code == 1
    assert "FAIL" in out


def test_dualize_rejects_regions_whose_atom_joins_collide(tmp_path, capsys):
    # Discrete 4-point space.  The minimal regions 01, 12 and 02 give 2^3
    # joins, as many as there are regions, but only five distinct ones, so
    # the family is no Boolean algebra and has no dual algebra.
    regions = (0, 0b0011, 0b0110, 0b0101, 0b0111, 0b1011, 0b1110, 0b1111)
    space = DMSpace(FiniteTopSpace(4, (1, 2, 4, 8)), 0b1111, 0b1111, Relation.total(4), regions)
    path = tmp_path / "colliding.json"
    write_path(path, space)
    code, out, _ = run(["check", path], capsys)
    assert code == 1
    assert "FAIL  S2" in out
    code, _, err = run(["dualize", path, "--out", tmp_path / "out"], capsys)
    assert code == 1
    assert "not a Boolean subalgebra" in err
    assert not (tmp_path / "out" / "colliding.dual_algebra.json").exists()


def test_represent_and_dualize_emit_models(chain_dca_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        ["represent", chain_dca_file, "--out", out_dir, "--format", "json"], capsys
    )
    assert code == 0
    body = json.loads(out)
    emitted = body["info"]["model_file"]
    kind, _, _, _ = load_path(emitted)
    assert kind == "dmst"

    code, out, _ = run(
        ["dualize", chain_dca_file, "--out", out_dir, "--format", "json"], capsys
    )
    assert code == 0
    body = json.loads(out)
    dual_file = body["info"]["model_file"]
    kind, _, _, _ = load_path(dual_file)
    assert kind == "dms"

    # dualize the space back into an algebra
    code, out, _ = run(["dualize", dual_file, "--out", out_dir, "--format", "json"], capsys)
    assert code == 0
    body = json.loads(out)
    kind, _, _, _ = load_path(body["info"]["model_file"])
    assert kind == "dca"


def test_full_join_closed_base_files_check_as_their_atom_extent_twins(tmp_path, capsys):
    """A version 1 dms file whose closed base lists every join of the atom
    extents, as older versions wrote dual spaces, gives the checks and info
    of its twin that lists only the atom extents."""
    path_contact = PrecontactAlgebra.from_atom_pairs(
        FiniteBA(3), {(i, j) for i in range(3) for j in range(3) if abs(i - j) <= 1}
    )
    ts = TimeStructure.of(2, {(0, 1)})
    chain = standard_dca(build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full"))
    for d in (from_contact_algebra(path_contact), chain):
        space = dual_space(d).space
        extents = tmp_path / "extents.json"
        write_path_v1(extents, space)
        payload = json.loads(extents.read_text(encoding="utf-8"))
        assert len(payload["closed_base"]) == d.base.atom_count
        payload["closed_base"] = payload["regions"]
        full = tmp_path / "full_joins.json"
        full.write_text(json.dumps(payload), encoding="utf-8")
        for command in ("check", "roundtrip"):
            seen = []
            for path in (full, extents):
                code, out, _ = run([command, path, "--format", "json"], capsys)
                body = json.loads(out)
                seen.append((code, body["checks"], body["info"]))
            assert seen[0] == seen[1] and seen[0][0] == 0 and seen[0][1], (d, command)


def test_report_digest_stable_across_runs(chain_dca_file, trivial_dca_file, capsys):
    code, out1, _ = run(["check", chain_dca_file, "--format", "json"], capsys)
    code2, out2, _ = run(["check", chain_dca_file, "--format", "json"], capsys)
    assert code == code2 == 0
    digest1 = json.loads(out1)["report_digest"]
    digest2 = json.loads(out2)["report_digest"]
    assert digest1 == digest2
    # several paths print one report per line
    code3, out3, _ = run(["check", chain_dca_file, trivial_dca_file, "--format", "json"], capsys)
    lines = out3.splitlines()
    assert code3 == 0 and len(lines) == 2
    assert [json.loads(line)["input"] for line in lines] == [str(chain_dca_file), str(trivial_dca_file)]
    assert json.loads(lines[0])["report_digest"] == digest1


def test_roundtrip_commands(trivial_dca_file, tmp_path, capsys):
    code, _, _ = run(["roundtrip", trivial_dca_file], capsys)
    assert code == 0

    # a space that is not T0 gets refused with the property named
    payload = {
        "kind": "dms",
        "format_version": 1,
        "point_count": 2,
        "closed_base": [[], [0, 1]],
        "space_points": [0, 1],
        "time_points": [0, 1],
        "prec": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "regions": [[], [0, 1]],
    }
    path = tmp_path / "dms_not_t0.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(["roundtrip", path], capsys)
    assert code == 1
    assert "T0" in err


def test_correspondence_command(tmp_path, capsys):
    ts = TimeStructure.of(2, {(0, 1)})
    model = build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full")
    path = tmp_path / "model.json"
    write_path(path, model)
    code, out, _ = run(["correspondence", path], capsys)
    assert code == 0

    d_path = tmp_path / "algebra.json"
    write_path(d_path, standard_dca(model))
    code, out, _ = run(["correspondence", d_path], capsys)
    assert code == 0


def _json_report(args, capsys) -> tuple[int, dict]:
    code = main([*map(str, args), "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_correspondence_of_dual_spaces_matches_the_region_axioms(tmp_path, capsys):
    """The definability rows of the dual space of each corpus algebra: both
    columns equal the algebra's own verdict on the region axiom, 400 rows."""
    rows = 0
    for i, d in enumerate(dca_corpus(40, 3, seed=5)):
        path = tmp_path / f"dual{i}.json"
        write_path(path, dual_space(d).space)
        code, body = _json_report(["correspondence", path], capsys)
        assert code == 0, body
        expected = {row.condition.name: row.on_regions for row in correspondence2(d)}
        shown = {row["condition"]: (row["time_structure"], row["rc_axiom"]) for row in body["info"]["rows"]}
        assert shown == {name: (holds, holds) for name, holds in expected.items()}, i
        rows += len(shown)
    assert rows == 400


def test_correspondence_of_a_space_judges_it_first(tmp_path, capsys):
    """A space failing S1-S8 reports those checks and no rows; a valid space
    that is not DM-compact is refused with the capability error."""
    space = dual_space(from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))).space
    coarse = DMSpace(space.space, space.space_points, space.time_points, space.prec, (0, space.space.universe))
    write_path(tmp_path / "coarse.json", coarse)
    code, body = _json_report(["correspondence", tmp_path / "coarse.json"], capsys)
    assert code == 1 and body["info"] == {}
    assert [c["name"] for c in body["checks"]] == [f"S{i}" for i in range(1, 9)]
    # The dual of a two-moment chain with one time point left: S1-S8 hold,
    # and a cluster is no longer realized.
    chain = dual_space(standard_dca(build_dmst(TimeStructure.of(2, {(0, 1)}), [ONE_ATOM, ONE_ATOM], mode="full")))
    space = chain.space
    lone = DMSpace(space.space, space.space_points, space.time_points & -space.time_points, space.prec, space.regions)
    write_path(tmp_path / "lone.json", lone)
    code, body = _json_report(["check", tmp_path / "lone.json"], capsys)
    assert code == 0 and body["info"]["DM_compact"] is False
    code, out, err = run(["correspondence", tmp_path / "lone.json"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: topological definability needs DM-compactness\n"


def test_check_of_a_morphism_reports_naturality_as_the_element_oracle(small_dca_corpus, tmp_path, capsys):
    """Every join-preserving table between corpus algebras of at most two
    atoms: a morphism's report ends with the element-level naturality check,
    and a map that is no morphism gets none.  Space identities, trace maps
    and point shifts of dual spaces report the library's naturality."""
    small = [d for d in small_dca_corpus if d.base.atom_count <= 2]
    maps = []
    for dom, cod in itertools.product(small, repeat=2):
        for table in itertools.product(cod.base.elements(), repeat=dom.base.size):
            f = DcaMorphism.from_table(dom, cod, table)
            if f.join_failure is None:
                maps.append(f)
    duals = [dual_space(d).space for d in small_dca_corpus]
    maps += [DmsMorphism.identity(s) for s in duals] + [trace_morphism(s) for s in duals]
    maps += [DmsMorphism(s, s, (*range(1, len(s.points())), 0)) for s in duals]
    reported = 0
    for i, f in enumerate(maps):
        path = tmp_path / f"morphism{i}.json"
        write_path(path, f)
        code, body = _json_report(["check", path], capsys)
        dca = isinstance(f, DcaMorphism)
        holds = (validate_dca_morphism if dca else validate_dms_morphism)(f).ok
        expected = (element_naturality(TableMorphism.of(f)) if dca else naturality(f)).checks if holds else []
        last = body["checks"][-1]
        shown = [last] if last["name"].startswith("double dual") else []
        assert shown == [{"holds": c.holds, "name": c.name, **_witness(c)} for c in expected], f
        assert code == (0 if holds and expected[0].holds else 1), f
        reported += bool(shown)
    assert 10 < reported < len(maps), (reported, len(maps))


def _witness(check) -> dict:
    return {} if check.witness is None else {"witness": list(check.witness)}


def test_generate_exhaustive_time_structures(tmp_path, capsys):
    code, out, _ = run(
        ["generate", "--kind", "time_structure", "--size", "2", "--exhaustive", "--out", tmp_path],
        capsys,
    )
    assert code == 0
    files = sorted(tmp_path.glob("time_structure_*.json"))
    assert len(files) == 16


def test_generate_exhaustive_adjacency_count(tmp_path, capsys):
    code, _, _ = run(
        ["generate", "--kind", "adjacency", "--size", "3", "--exhaustive", "--out", tmp_path],
        capsys,
    )
    assert code == 0
    assert len(list(tmp_path.glob("adjacency_*.json"))) == 512


def test_generate_honors_output_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MEREOTIME_OUT", str(tmp_path / "envdir"))
    code, _, _ = run(["generate", "--kind", "time_structure", "--size", "1"], capsys)
    assert code == 0
    assert (tmp_path / "envdir" / "time_structure_s1_seed0.json").exists()


def test_generate_deterministic_under_seed(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run(
            ["generate", "--kind", "dca", "--size", "2", "--seed", "7", "--out", out_dir],
            capsys,
        )
        assert code == 0
    content_a = (out_a / "dca_s2_seed7.json").read_bytes()
    content_b = (out_b / "dca_s2_seed7.json").read_bytes()
    assert content_a == content_b


def test_generate_size_cap(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--kind", "dca", "--size", "9", "--out", tmp_path], capsys
    )
    assert code == 2
    assert "out of bounds" in err


def test_exhaustive_generation_past_size_four_exits_two_writing_nothing(tmp_path, capsys, monkeypatch):
    """Adjacency relations of size 5 and 6 are within the atom cap, but
    listing all 2^25 or 2^36 of them is refused before any file is written."""

    def unreachable(*args, **kwargs):
        pytest.fail("generate wrote a file")

    monkeypatch.setattr(cli, "write_path", unreachable)
    for size in (5, 6):
        out_dir = tmp_path / f"s{size}"
        argv = ["generate", "--kind", "adjacency", "--size", size, "--exhaustive", "--out", out_dir]
        code, out, err = run(argv, capsys)
        assert code == 2 and not out
        assert err == (
            f"error: exhaustive adjacency generation of size {size} lists 2^{size * size} relations,"
            " over the bound of 2^16 (size 4)\n"
        ), err
        assert not out_dir.exists()


def test_model_round_trip_byte_identical(tmp_path):
    """For every kind, a written file decodes to an equal object that
    re-encodes byte for byte, and its version 1 twin decodes to that object
    too."""
    ts = TimeStructure.of(2, {(0, 1)})
    two = PrecontactAlgebra.overlap(FiniteBA(2))
    path3 = PrecontactAlgebra.from_atom_pairs(FiniteBA(3), {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)})
    model = build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full")
    trivial = from_contact_algebra(path3)
    space = dual_space(trivial).space
    objects = [
        ("adjacency", Relation.of(2, {(0, 1)})),
        ("time_structure", ts),
        ("dca", standard_dca(model)),
        ("dca", trivial),
        ("dmst", model),
        ("dmst", build_dmst(ts, [two, path3], mode="rich", regions=[(1, 5)])),
        ("dms", dual_space(standard_dca(model)).space),
        ("dms", space),
        ("morphism", DcaMorphism.identity(trivial)),
        ("morphism", DmsMorphism.identity(space)),
    ]
    kinds = set()
    for kind, obj in objects:
        path = tmp_path / "model.json"
        write_path(path, obj)
        first = path.read_bytes()
        assert json.loads(first)["format_version"] == 2
        loaded_kind, loaded, _, _ = load_path(path)
        assert (loaded_kind, loaded) == (kind, obj)
        write_path(path, loaded)
        assert path.read_bytes() == first
        assert decode(encode_v1(obj))[:2] == (kind, obj)
        kinds.add(kind)
    assert kinds == set(KINDS)


def test_schema_rejections(tmp_path, capsys):
    def adjacency(**fields):
        return {"kind": "adjacency", "format_version": 1, "point_count": 2, "pairs": [], **fields}

    def rows(**fields):
        return {"kind": "adjacency", "format_version": 2, "point_count": 2, "pairs": ["1", "3"], **fields}

    point = dual_space(from_contact_algebra(ONE_ATOM)).space
    morphism = encode(DmsMorphism.identity(point))
    dca_morphism = encode(DcaMorphism.identity(from_contact_algebra(ONE_ATOM)))
    two = PrecontactAlgebra.overlap(FiniteBA(2))
    custom = encode(build_dmst(TimeStructure.of(2, {(0, 1)}), [two, two], mode="rich"))
    assert custom["mode"] == "custom"
    # Each case with a text the error must name.  A JSON index is an
    # integer: strings, floats and booleans are refused, not converted.
    cases = [
        ({"kind": "nonsense", "format_version": 1}, "'nonsense'"),
        ({"kind": "dca", "format_version": 99}, "format_version 99"),
        (adjacency(pairs=[[0, 5]]), "'pairs'"),
        (adjacency(pairs="zap"), "'pairs'"),
        ({"kind": "dms", "format_version": 1, "point_count": 2, "closed_base": [[0], [1]], "space_points": [0, 1],
          "time_points": [0, 1], "prec": [[0, 0], [1, 5]], "regions": [[], [0], [1], [0, 1]]}, "'prec'"),
        ([1, 2, 3], "JSON object"),
        (adjacency(format_version=True), "'format_version'"),
        (adjacency(pairs=[["0", 1]]), "'pairs'"),
        (adjacency(pairs=[[0, 1.7]]), "'pairs'"),
        (adjacency(pairs=[[True, 1]]), "'pairs'"),
        (adjacency(pairs=[[0, 1, 1]]), "'pairs'"),
        ({**encode(point), "space_points": [True]}, "'space_points'"),
        ({**morphism, "map": ["0"]}, "'map'"),
        # Version 2: each row and each family member is a canonical
        # lowercase hex mask below 2^size, and a relation has one row per
        # point.
        (rows(pairs=["1", "A"]), "'pairs[1]'"),
        (rows(pairs=["01", "1"]), "'pairs[0]'"),
        (rows(pairs=["0x1", "1"]), "'pairs[0]'"),
        (rows(pairs=["", "1"]), "'pairs[0]'"),
        (rows(pairs=[1, "1"]), "'pairs[0]'"),
        (rows(pairs=["1", "4"]), "'pairs[1]'"),
        (rows(pairs=["1"]), "'pairs'"),
        (rows(pairs=["1", "1", "1"]), "'pairs'"),
        (rows(pairs=["f" * 10_000, "1"]), "'pairs[0]'"),
        (rows(pairs=[[0, 1], [1, 1]]), "'pairs[0]'"),
        (adjacency(pairs=["1", "1"]), "'pairs'"),
        ({**encode(point), "closed_base": ["2"]}, "'closed_base[0]'"),
        ({**encode(point), "regions": ["0", "01"]}, "'regions[1]'"),
        ({**encode(point), "prec": ["3"]}, "'prec[0]'"),
        ({**dca_morphism, "map": ["0", "F"]}, "'map[1]'"),
        ({**custom, "regions": [["0", "0"], ["0", "g"]]}, "'regions[1][1]'"),
    ]
    for i, (payload, named) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(["check", path], capsys)
        assert code == 2, payload
        assert err.startswith("error:") and named in err, err
        assert len(err) < 200, err


def test_mistyped_fields_exit_two_naming_the_field(tmp_path, capsys):
    cases = [
        ({"kind": "time_structure", "format_version": 1, "point_count": "abc", "prec": []}, "point_count"),
        ({"kind": "adjacency", "format_version": 1, "point_count": True, "pairs": []}, "point_count"),
        ({"kind": "dca", "format_version": 1, "atom_count": 1.5, "space_contact": [],
          "time_contact": [], "precedence": []}, "atom_count"),
        ({"kind": "dmst", "format_version": 1, "time": [], "coordinates": []}, "time"),
        ({"kind": "dmst", "format_version": 1, "time": {"point_count": "1", "prec": []},
          "coordinates": []}, "time.point_count"),
        ({"kind": "dmst", "format_version": 1, "time": {"point_count": 1, "prec": []},
          "coordinates": "x"}, "coordinates"),
        ({"kind": "dmst", "format_version": 1, "time": {"point_count": 1, "prec": []},
          "coordinates": [7]}, "coordinates[0]"),
        ({"kind": "dmst", "format_version": 1, "time": {"point_count": 1, "prec": []},
          "coordinates": [{"atom_count": "1", "contact": []}]}, "coordinates[0].atom_count"),
        ({"kind": "dmst", "format_version": 1, "time": {"point_count": 1, "prec": []},
          "coordinates": [{"atom_count": 1, "contact": [[0, 0]]}], "mode": "custom", "regions": 5},
         "regions"),
        ({"kind": "dmst", "format_version": 1, "time": {"point_count": 1, "prec": []},
          "coordinates": [{"atom_count": 1, "contact": [[0, 0]]}], "mode": "custom", "regions": [5]},
         "regions[0]"),
        ({"kind": "dms", "format_version": 1, "point_count": 1, "closed_base": 5, "space_points": [0],
          "time_points": [0], "prec": [], "regions": [[0]]}, "closed_base"),
        ({"kind": "adjacency", "format_version": 1, "point_count": 2, "pairs": [],
          "claims": "contact"}, "claims"),
        ({"kind": "adjacency", "format_version": 1, "point_count": 2, "pairs": [],
          "claims": ["contact", 4]}, "claims"),
    ]
    for i, (payload, field) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(["check", path], capsys)
        assert code == 2, payload
        assert err.startswith("error:") and repr(field) in err, err


def timed_run(args, capsys):
    """`run`, asserting that the command took under a second."""
    start = time.perf_counter()
    result = run(args, capsys)
    assert time.perf_counter() - start < 1, args
    return result


def test_full_model_past_the_region_bound_is_checked_on_its_cells(tmp_path, capsys):
    payload = {
        "kind": "dmst",
        "format_version": 1,
        "time": {"point_count": 1, "prec": [[0, 0]]},
        "coordinates": [{"atom_count": 40, "contact": [[i, i] for i in range(40)]}],
        "mode": "full",
    }
    path = tmp_path / "forty.json"
    path.write_text(json.dumps(payload))
    code, out, _ = timed_run(["check", path, "--format", "json"], capsys)
    assert code == 0, out
    info = json.loads(out)["info"]
    assert info["regions"] == 2**40 == 1099511627776 and info["full"] and info["rich"]


def _two_moment_rich(atom_count, seeds):
    coordinate = {"atom_count": atom_count, "contact": [[i, i] for i in range(atom_count)]}
    return {
        "kind": "dmst",
        "format_version": 1,
        "time": {"point_count": 2, "prec": [[0, 1]]},
        "coordinates": [coordinate, coordinate],
        "mode": "rich",
        "regions": seeds,
    }


def test_rich_models_past_the_region_bound_are_checked_on_their_cells(tmp_path, capsys):
    # Twelve singleton seeds on two 6-atom coordinates cut 12 cells: 4,096 regions.
    six = tmp_path / "rich6.json"
    six.write_text(
        json.dumps(_two_moment_rich(6, [[[i], []] for i in range(6)] + [[[], [i]] for i in range(6)]))
    )
    code, out, _ = timed_run(["check", six], capsys)
    assert code == 0, out

    # On two 10-atom coordinates 20 cells give 2^20 regions, over the bound.
    ten = tmp_path / "rich10.json"
    ten.write_text(
        json.dumps(_two_moment_rich(10, [[[i], [i]] for i in range(10)] + [[[i], []] for i in range(10)]))
    )
    code, out, _ = timed_run(["check", ten, "--format", "json"], capsys)
    assert code == 0, out
    assert 1 << 20 == json.loads(out)["info"]["regions"] > FULL_REGION_CAP


def test_region_lists_past_the_bound_exit_two_naming_it(tmp_path, capsys):
    """A custom dmst model and a dms file each list one region more than
    their bound."""
    count = FULL_REGION_CAP + 1
    dmst = {
        "kind": "dmst",
        "format_version": 1,
        "time": {"point_count": 1, "prec": []},
        "coordinates": [{"atom_count": 1, "contact": [[0, 0]]}],
        "mode": "custom",
        "regions": [[[]], [[0]]] * (count // 2) + [[[0]]],
    }
    dms = {
        "kind": "dms",
        "format_version": 2,
        "point_count": 1,
        "closed_base": [],
        "space_points": [0],
        "time_points": [0],
        "prec": ["1"],
        "regions": ["0"] * (SPACE_REGION_CAP + 1),
    }
    for payload, bound in ((dmst, FULL_REGION_CAP), (dms, SPACE_REGION_CAP)):
        path = tmp_path / f"{payload['kind']}.json"
        path.write_text(json.dumps(payload))
        code, out, err = timed_run(["check", path], capsys)
        assert code == 2 and not out
        count = len(payload["regions"])
        assert err == f"error: field 'regions' lists {count} regions, over the bound of {bound}\n", err


@pytest.fixture()
def probe24(tmp_path):
    """Identity space contact, total time contact and precedence on 24 atoms:
    the canonical model is full, with 2^24 regions, and there are 2^24 - 1
    t-clans."""
    n = 24
    total = [[i, j] for i in range(n) for j in range(n)]
    probe = tmp_path / "probe24.json"
    probe.write_text(
        json.dumps(
            {
                "kind": "dca",
                "format_version": 1,
                "atom_count": n,
                "space_contact": [[i, i] for i in range(n)],
                "time_contact": total,
                "precedence": total,
            }
        )
    )
    return probe


def test_24_atom_probe_is_represented_checked_and_corresponded_on_cells(probe24, tmp_path, capsys):
    n, probe = 24, probe24
    code, out, _ = timed_run(["represent", probe, "--out", tmp_path, "--format", "json"], capsys)
    assert code == 0, out
    model_file = tmp_path / "probe24.canonical.json"
    assert json.loads(out)["info"]["model_file"] == str(model_file)
    for command in ("check", "correspondence"):
        code, out, _ = timed_run([command, model_file, "--format", "json"], capsys)
        assert code == 0, (command, out)
    assert json.loads(run(["check", model_file, "--format", "json"], capsys)[1])["info"]["regions"] == 1 << n


def test_t_clans_past_the_dual_space_bound_exit_two_before_listing(probe24, tmp_path, capsys):
    count = (1 << 24) - 1
    for command in ("points", "dualize", "roundtrip"):
        argv = [command, probe24, *(["--out", tmp_path] if command == "dualize" else [])]
        code, out, err = timed_run(argv, capsys)
        assert code == 2 and not out, (command, out)
        assert "t-clans" in err and str(count) in err and str(SPACE_POINT_CAP) in err, err


def _chain_dca(n: int) -> DCA:
    """Identity space and time contact and a strict linear precedence: n
    t-clans and 2^n regions."""
    identity = Relation.from_rows(n, [1 << x for x in range(n)])
    later = Relation.from_rows(n, [(1 << n) - (2 << x) for x in range(n)])
    return DCA(FiniteBA(n), identity, identity, later)


def test_dual_space_regions_past_the_bound_exit_two_before_listing(tmp_path, capsys, monkeypatch):
    """A chain's n t-clans are within the point bound, but its dual space
    has 2^n regions: at 16 atoms both commands succeed, and past the region
    bound they exit 2 before the dual space is built."""
    path = tmp_path / "chain16.json"
    write_path(path, _chain_dca(16))
    for command in ("dualize", "roundtrip"):
        code, out, _ = timed_run([command, path, *(["--out", tmp_path] if command == "dualize" else [])], capsys)
        assert code == 0, (command, out)

    def unreachable(*args, **kwargs):
        pytest.fail("the dual space was built")

    monkeypatch.setattr(cli, "dual_space", unreachable)
    monkeypatch.setattr(cli, "duality_roundtrip", unreachable)
    for n, count in ((24, "16777216"), (RELATION_SIZE_CAP, "2^256")):
        path = tmp_path / f"chain{n}.json"
        write_path(path, _chain_dca(n))
        for command in ("dualize", "roundtrip"):
            start = time.perf_counter()
            code, out, err = run([command, path, *(["--out", tmp_path] if command == "dualize" else [])], capsys)
            assert time.perf_counter() - start < 0.5, (n, command)
            assert code == 2 and not out, (n, command, out)
            bound = f"over the dual space region bound of {SPACE_REGION_CAP}"
            assert err == f"error: dca has {count} regions, {bound}\n", err


def test_check_of_a_morphism_refuses_ends_past_the_dual_space_bound(tmp_path, capsys, monkeypatch):
    """Naturality builds the dual space of each end of an algebra morphism,
    so `check` holds the ends to the bounds `roundtrip` keeps, after the
    morphism checks and before any dual space is built."""
    path = tmp_path / "chain5.json"
    write_path(path, DcaMorphism.identity(_chain_dca(5)))
    code, body = _json_report(["check", path], capsys)
    assert code == 0 and body["checks"][-1]["name"] == "double dual of extents"

    def unreachable(*args, **kwargs):
        pytest.fail("the dual space was built")

    monkeypatch.setattr(cli, "naturality", unreachable)
    monkeypatch.setattr(cli, "SPACE_REGION_CAP", 16)
    code, out, err = run(["check", path], capsys)
    assert (code, out) == (2, "")
    assert err == "error: dca has 32 regions, over the dual space region bound of 16\n"


def test_command_reports_are_reports_of_library_checks(trivial_dca_file):
    _, d, _, payload = load_path(trivial_dca_file)
    report = CommandReport("check", str(trivial_dca_file), digest(payload))
    report.extend(d.report.checks)
    assert isinstance(report, Report) and report.checks == d.report.checks
    entries = report.payload()["checks"]
    assert [(e["name"], e["holds"]) for e in entries] == [(c.name, c.holds) for c in d.report.checks]


def test_first_failure_names_the_first_failing_check_among_the_names():
    report = Report(subject="probe")
    report.add("A", True)
    report.add("B", False, (1,))
    report.add("C", False, (2,), note="second")
    assert report.first_failure() == report["B"]
    assert report.first_failure("C", "A") == report["C"]
    assert report.first_failure("A") is None
    with pytest.raises(CapabilityError, match="required property C fails"):
        report.require("A", "C")


def test_counts_past_twelve_digits_are_given_in_short_exact_form_or_bounded():
    assert [count_text(c) for c in (0, 16_777_215, 10**12 - 1)] == ["0", "16777215", "999999999999"]
    assert count_text((1 << 256) - 1) == "2^256 - 1"
    assert count_text(1 << 40) == "2^40"
    assert count_text((1 << 200) + (1 << 100) - 2) == "more than 2^200"


def test_t_clans_of_a_total_algebra_at_the_relation_bound_are_counted_in_short_form(tmp_path, capsys):
    n = RELATION_SIZE_CAP
    total = Relation.total(n)
    path = tmp_path / "total.json"
    write_path(path, DCA(FiniteBA(n), total, total, total))
    code, out, err = timed_run(["points", path], capsys)
    assert code == 2 and not out
    assert err == f"error: dca has 2^{n} - 1 t-clans, over the dual space point bound of {SPACE_POINT_CAP}\n", err


def test_represent_of_a_chain_at_the_relation_bound_takes_under_a_second(tmp_path, capsys):
    """Identity space and time contact and a strict linear precedence: as
    many clusters, and moments of the canonical model, as atoms."""
    n = RELATION_SIZE_CAP
    path = tmp_path / "chain.json"
    write_path(path, _chain_dca(n))
    code, out, _ = timed_run(["represent", path, "--out", tmp_path, "--format", "json"], capsys)
    assert code == 0, out
    assert len(load_path(tmp_path / "chain.canonical.json")[1].coordinates) == n


def test_dualize_refuses_an_oversized_closed_family_from_its_count(tmp_path, capsys):
    """The 63-point dual of the 6-atom path algebra has 20 point closures of
    one size, so at least 2^20 closed sets: refused before any is listed.
    Once the regular closed sets are found without the closed family, this
    command succeeds and the expected exit code becomes 0."""
    n = 6
    pairs = {(i, j) for i in range(n) for j in range(n) if abs(i - j) <= 1}
    path = tmp_path / "trivial6.json"
    write_path(path, from_contact_algebra(PrecontactAlgebra.from_atom_pairs(FiniteBA(n), pairs)))
    start = time.perf_counter()
    code, _, err = run(["dualize", path, "--out", tmp_path], capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert err.startswith("error: closed-set family too large to enumerate: at least 2^20 closed sets"), err


def test_relation_sizes_are_bounded_before_anything_is_built(tmp_path, capsys):
    huge = 100_000_000
    one_pair = [[0, 1]]
    # The last probe lists one index far past its declared point count:
    # 1 << index alone would take 1.25 GB.
    index = 10_000_000_000
    probes = [
        ({"kind": "adjacency", "point_count": huge, "pairs": one_pair}, "'point_count'", huge, RELATION_SIZE_CAP),
        ({"kind": "time_structure", "point_count": huge, "prec": one_pair}, "'point_count'", huge, RELATION_SIZE_CAP),
        (
            {"kind": "dca", "atom_count": huge, "space_contact": [], "time_contact": [], "precedence": []},
            "'atom_count'",
            huge,
            RELATION_SIZE_CAP,
        ),
        (
            {
                "kind": "dmst",
                "time": {"point_count": 1, "prec": []},
                "coordinates": [{"atom_count": huge, "contact": one_pair}],
            },
            "'coordinates[0].atom_count'",
            huge,
            RELATION_SIZE_CAP,
        ),
        (
            {
                "kind": "dms",
                "point_count": huge,
                "closed_base": [],
                "space_points": [0],
                "time_points": [0],
                "prec": one_pair,
                "regions": [],
            },
            "'point_count'",
            huge,
            SPACE_POINT_CAP,
        ),
        (
            {
                "kind": "dms",
                "point_count": 2,
                "closed_base": [[0], [index]],
                "space_points": [0],
                "time_points": [0],
                "prec": [[0, 0]],
                "regions": [],
            },
            "'closed_base'",
            index,
            2,
        ),
    ]
    # Sizes below the minimum of 1 are refused the same way.
    for value in (0, -1):
        probes += [
            ({"kind": "adjacency", "point_count": value, "pairs": []}, "'point_count'", value, 1),
            (
                {
                    "kind": "dms",
                    "point_count": value,
                    "closed_base": [],
                    "space_points": [],
                    "time_points": [],
                    "prec": [],
                    "regions": [],
                },
                "'point_count'",
                value,
                1,
            ),
            (
                {
                    "kind": "dmst",
                    "time": {"point_count": 1, "prec": []},
                    "coordinates": [{"atom_count": value, "contact": []}],
                },
                "'coordinates[0].atom_count'",
                value,
                1,
            ),
        ]
    for i, (payload, field, value, bound) in enumerate(probes):
        path = tmp_path / f"huge{i}.json"
        path.write_text(json.dumps({"format_version": 1, **payload}))
        start = time.perf_counter()
        code, _, err = run(["check", path], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2, err
        assert field in err and str(value) in err and str(bound) in err, err
        assert value >= 1 or f"is {value}, below the minimum of 1" in err, err


def test_check_morphism_file(trivial_dca_file, tmp_path, capsys):
    from mereotime.category import DcaMorphism
    from mereotime.contact import PrecontactAlgebra as PA

    d = from_contact_algebra(PA.overlap(FiniteBA(2)))
    path = tmp_path / "identity.json"
    write_path(path, DcaMorphism.identity(d))
    code, out, _ = run(["check", path], capsys)
    assert code == 0
    assert "f1:Boolean homomorphism" in out

    weak = from_contact_algebra(PA.largest(FiniteBA(2)))
    bad = DcaMorphism.from_table(d, weak, tuple(d.base.elements()))
    bad_path = tmp_path / "bad_morphism.json"
    write_path(bad_path, bad)
    code, out, _ = run(["check", bad_path], capsys)
    assert code == 1
    assert "FAIL  f2:reflects Cs" in out


def test_check_of_a_morphism_judges_its_ends(tmp_path, capsys):
    # {p} is not regular closed on two points with closed base ({p}, top), so
    # S2 fails on both ends, though the identity passes t1-t4.
    space = DMSpace(FiniteTopSpace(2, (1, 3)), 0b11, 0b11, Relation.empty(2), (0, 1, 3))
    path = tmp_path / "identity.json"
    write_path(path, DmsMorphism.identity(space))
    code, out, _ = run(["check", path, "--format", "json"], capsys)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    for end in ("dom", "cod"):
        assert checks[f"{end} satisfies S1-S8"] == {"name": f"{end} satisfies S1-S8", "holds": False, "witness": ["S2"]}
    assert all(checks[name]["holds"] for name in checks if name.startswith("t"))


def test_multiple_paths_aggregate_exit_codes(trivial_dca_file, tmp_path, capsys):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("nope")
    code, out, _ = run(["check", trivial_dca_file, garbage], capsys)
    assert code == 2
    assert "result: ok" in out  # the valid input was still processed, in order


def test_topological_definability_rejects_irr():
    from mereotime.dms import dual_space, topological_definability
    from mereotime.errors import PreconditionError
    from mereotime.snapshot import TimeCondition

    d = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    space = dual_space(d).space
    with pytest.raises(PreconditionError):
        topological_definability(space, TimeCondition.IRR)


def test_console_entry_point_runs():
    # The child imports the package from wherever this process found it,
    # installed or not.
    package_root = os.path.dirname(os.path.dirname(mereotime.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mereotime.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "mereotime" in proc.stdout


def _exit_output(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("command", [None, *(c[0] for c in FILE_COMMANDS), "generate"])
def test_help_matches_a_freshly_built_parser(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    shared = _exit_output(lambda: main(argv), capsys)
    fresh = _exit_output(lambda: build_parser().parse_args(argv), capsys)
    assert shared == fresh
    assert shared[0] == 0 and shared[1].startswith("usage: mereotime")


def _usage_cases(command: str) -> list[list[str]]:
    """`--help`, no path (no required options for `generate`), an unknown
    option and an invalid `--format`."""
    given = ["--kind", "dca", "--size", "1"] if command == "generate" else ["model.json"]
    return [[command, "--help"], [command], [command, *given, "--bogus"], [command, *given, "--format", "xml"]]


@pytest.mark.parametrize("command", [c[0] for c in FILE_COMMANDS] + ["generate"])
def test_dispatch_to_a_command_parser_matches_the_top_level_parse(command, capsys):
    """`main` reads well-formed file commands from `COMMAND_TABLE`; what a
    usage error prints and its exit code are those of `PARSER.parse_args`."""
    for argv in _usage_cases(command):
        through_main = _exit_output(lambda: main(argv), capsys)
        through_parser = _exit_output(lambda: PARSER.parse_args(argv), capsys)
        assert through_main == through_parser, argv
        assert through_main[0] == (0 if "--help" in argv else 2), argv
    assert set(COMMAND_TABLE) == {c[0] for c in FILE_COMMANDS}


# Paths, option names and values, abbreviations, `=` forms, help, a
# negative number and the end-of-options marker.
ALPHABET = ("a.json", "b.json", "--format", "json", "text", "xml", "--out", "d", "-h", "--form", "--format=json",
            "-1", "--")


def _parse_outcome(parse, argv, capsys):
    """The namespace `parse(argv)` returns, or its exit code and output."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


@pytest.mark.parametrize("command", [c[0] for c in FILE_COMMANDS])
def test_direct_reading_matches_the_parser(command, capsys):
    """Every argv of up to three tokens over `ALPHABET` after a file command,
    and runs of paths broken or flanked by options: `main`'s parse and
    `PARSER.parse_args` give the same namespace, or the same exit code and
    output."""
    longer = (("a.json", "--format", "json", "b.json"), ("--format", "json", "a.json", "b.json", "--format", "text"),
              ("--out", "d", "a.json", "--out", "d", "b.json"), ("--out", "d", "a.json", "b.json", "--out", "e"))
    read = 0
    for rest in itertools.chain(*(itertools.product(ALPHABET, repeat=n) for n in range(4)), longer):
        argv = [command, *rest]
        through_main = _parse_outcome(cli._parse, argv, capsys)
        assert through_main == _parse_outcome(PARSER.parse_args, argv, capsys), argv
        read += isinstance(through_main, dict)
    assert read > 0


def test_workload_argv_is_read_without_argparse(tmp_path, monkeypatch):
    """The benchmark's `represent` and `dualize` operations run well-formed
    argv, which `main` reads without `PARSER`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS

    names = ("boolean", "contact", "snapshot", "dca", "dms", "category", "models", "generate", "cli")
    m = {name: importlib.import_module(f"mereotime.{name}") for name in names}
    for name in ("represent", "dualize"):
        workload = WORKLOADS[name]()
        workload.generate(m, tmp_path / name, random.Random(0))
        argvs = [[str(a) for a in op.call.args[1]] for op in workload.round(m)]
        expected = [PARSER.parse_args(argv) for argv in argvs]
        with monkeypatch.context() as patch:
            patch.setattr(PARSER, "parse_args", lambda argv: pytest.fail(f"parse_args({argv})"))
            assert [cli._parse(argv) for argv in argvs] == expected


@pytest.mark.parametrize("argv", [[], ["--help"], ["nonsense", "x"], ["--bogus", "check", "x"]])
def test_argv_without_a_known_command_goes_through_the_top_level_parser(argv, capsys):
    through_main = _exit_output(lambda: main(argv), capsys)
    assert through_main == _exit_output(lambda: PARSER.parse_args(argv), capsys)
    assert through_main[0] == (0 if argv == ["--help"] else 2)


def test_main_without_argv_reads_sys_argv(trivial_dca_file, capsys, monkeypatch):
    argv = ["check", str(trivial_dca_file), "--format", "json"]
    given = run(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["mereotime", *argv])
    code = main()
    out = capsys.readouterr()
    read = code, out.out, out.err
    for seen in (given, read):
        assert seen[0] == 0 and seen[2] == ""
    body, body_read = (json.loads(seen[1]) for seen in (given, read))
    body.pop("elapsed_ms"), body_read.pop("elapsed_ms")
    assert body_read == body
    monkeypatch.setattr(sys, "argv", ["mereotime", "check"])
    assert _exit_output(main, capsys) == _exit_output(lambda: PARSER.parse_args(["check"]), capsys)


def test_json_reports_are_canonical_and_digest_their_members(tmp_path, monkeypatch, capsys):
    """Every golden case, in both file versions: the report line is canonical
    JSON, as in model files, and its digest is `models.digest` of its
    command, input digest, checks and info."""
    from test_golden import CASES, _model_dir

    for version, write in ((1, write_path_v1), (2, write_path)):
        root = tmp_path / f"v{version}"
        root.mkdir()
        monkeypatch.chdir(_model_dir(root, write))
        for command, name in CASES:
            argv = [command, f"{name}.json", "--format", "json"]
            if command in ("represent", "dualize"):
                argv += ["--out", "out"]
            _, out, _ = run(argv, capsys)
            line, = out.splitlines()
            body = json.loads(line)
            assert line + "\n" == canonical_dumps(body), (version, command, name)
            covered = {key: body[key] for key in ("command", "input_digest", "checks", "info")}
            assert body["report_digest"] == digest(covered), (version, command, name)


def test_usage_error_leaves_the_parser_reusable(trivial_dca_file, capsys):
    first = run(["points", trivial_dca_file], capsys)
    code, _, err = _exit_output(lambda: main(["points", str(trivial_dca_file), "--format", "xml"]), capsys)
    assert code == 2 and "invalid choice: 'xml'" in err
    code, _, err = _exit_output(lambda: main(["points"]), capsys)
    assert code == 2 and "required: path" in err
    assert run(["points", trivial_dca_file], capsys) == first


def test_consecutive_commands_share_no_arguments(
    trivial_dca_file, chain_dca_file, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("MEREOTIME_OUT", str(tmp_path / "env"))
    code, out, _ = run(["dualize", chain_dca_file, "--out", tmp_path / "given", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["input"] == str(chain_dca_file)
    code, out, _ = run(["check", trivial_dca_file], capsys)
    assert code == 0 and out.startswith(f"== check {trivial_dca_file}\n")
    code, out, _ = run(["dualize", trivial_dca_file], capsys)
    assert code == 0 and f"model_file: \"{tmp_path / 'env'}" in out
    assert not (tmp_path / "given" / "trivial_dca.dual.json").exists()
    assert "out" not in vars(PARSER.parse_args(["check", "x"]))


def test_malformed_check_stays_within_budget(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text("{ not json", encoding="utf-8")
    times = []
    for _ in range(50):
        start = time.perf_counter()
        code = main(["check", str(path)])
        times.append(time.perf_counter() - start)
        assert code == 2
    capsys.readouterr()
    assert statistics.median(times) < 0.6e-3, statistics.median(times)


def test_dualize_of_a_dms_requires_s2(tmp_path, capsys):
    # The family {0, {0}} lacks the top: no subalgebra of RC, so no dual.
    space = DMSpace(FiniteTopSpace(2, (1, 2)), 0b11, 0b11, Relation.total(2), (0, 0b01))
    path = tmp_path / "no_top.json"
    write_path(path, space)
    code, out, _ = run(["check", path], capsys)
    assert code == 1
    assert "FAIL  S2  witness=['missing bounds']" in out
    code, out, err = run(["dualize", path, "--out", tmp_path / "out"], capsys)
    assert code == 1 and out == ""
    assert "S2 fails (witness ['missing bounds'])" in err
    assert not (tmp_path / "out" / "no_top.dual_algebra.json").exists()


def test_write_path_returns_the_digest_of_the_written_text(trivial_dca_file, tmp_path):
    _, d, _, _ = load_path(trivial_dca_file)
    path = tmp_path / "again.json"
    assert write_path(path, d) == digest(encode(d)) == digest(json.loads(path.read_text()))
