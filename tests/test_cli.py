import json
import os
import statistics
import subprocess
import sys
import time

import pytest

import mereotime
from mereotime.boolean import FiniteBA
from mereotime.cli import FILE_COMMANDS, PARSER, build_parser, main
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import from_contact_algebra, standard_dca
from mereotime.dms import DMSpace, FiniteTopSpace, dual_space
from mereotime.models import digest, encode, load_path, write_path
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
    total = frozenset((x, y) for x in range(4) for y in range(4))
    space = DMSpace(FiniteTopSpace(4, (1, 2, 4, 8)), 0b1111, 0b1111, total, regions)
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


def test_report_digest_stable_across_runs(chain_dca_file, capsys):
    code, out1, _ = run(["check", chain_dca_file, "--format", "json"], capsys)
    code2, out2, _ = run(["check", chain_dca_file, "--format", "json"], capsys)
    assert code == code2 == 0
    digest1 = json.loads(out1)["report_digest"]
    digest2 = json.loads(out2)["report_digest"]
    assert digest1 == digest2


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


def test_model_round_trip_byte_identical(tmp_path):
    ts = TimeStructure.of(2, {(0, 1)})
    model = build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full")
    objects = [
        Relation.of(2, {(0, 1)}),
        ts,
        standard_dca(model),
        model,
        dual_space(standard_dca(model)).space,
    ]
    for obj in objects:
        path = tmp_path / "model.json"
        write_path(path, obj)
        first = path.read_bytes()
        _, loaded, _, _ = load_path(path)
        write_path(path, loaded)
        assert path.read_bytes() == first


def test_schema_rejections(tmp_path, capsys):
    cases = [
        {"kind": "nonsense", "format_version": 1},
        {"kind": "dca", "format_version": 99},
        {"kind": "adjacency", "format_version": 1, "point_count": 2, "pairs": [[0, 5]]},
        {"kind": "adjacency", "format_version": 1, "point_count": 2, "pairs": "zap"},
        [1, 2, 3],
    ]
    for i, payload in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(["check", path], capsys)
        assert code == 2, payload
        assert "error" in err


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


def test_oversized_full_model_exits_two_naming_the_bound(tmp_path, capsys):
    payload = {
        "kind": "dmst",
        "format_version": 1,
        "time": {"point_count": 1, "prec": [[0, 0]]},
        "coordinates": [{"atom_count": 40, "contact": [[i, i] for i in range(40)]}],
        "mode": "full",
    }
    path = tmp_path / "forty.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, _, err = run(["check", path], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    line = err.strip()
    assert line.startswith("error:") and line != "error: bad dmst payload:"
    assert str(2**40) in line and str(FULL_REGION_CAP) in line, line


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


def test_rich_models_are_sized_before_they_are_built(tmp_path, capsys):
    # Twelve singleton seeds on two 6-atom coordinates cut 12 cells: 4,096 regions.
    six = tmp_path / "rich6.json"
    six.write_text(
        json.dumps(_two_moment_rich(6, [[[i], []] for i in range(6)] + [[[], [i]] for i in range(6)]))
    )
    start = time.perf_counter()
    code, out, _ = run(["check", six], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0, out

    # On two 10-atom coordinates 20 cells give 2^20 regions, over the bound.
    ten = tmp_path / "rich10.json"
    ten.write_text(
        json.dumps(_two_moment_rich(10, [[[i], [i]] for i in range(10)] + [[[i], []] for i in range(10)]))
    )
    start = time.perf_counter()
    code, _, err = run(["check", ten], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    line = err.strip()
    assert line.startswith("error:") and "rich model too large" in line, line
    assert "1048576" in line and str(FULL_REGION_CAP) in line, line


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
    bad = DcaMorphism(d, weak, tuple(d.base.elements()))
    bad_path = tmp_path / "bad_morphism.json"
    write_path(bad_path, bad)
    code, out, _ = run(["check", bad_path], capsys)
    assert code == 1
    assert "FAIL  f2:reflects Cs" in out


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
    total = frozenset((x, y) for x in range(2) for y in range(2))
    space = DMSpace(FiniteTopSpace(2, (1, 2)), 0b11, 0b11, total, (0, 0b01))
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
