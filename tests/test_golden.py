"""Golden report digests of the file commands.

Each case runs one file command with `--format json` on a fixed model file
and compares its exit code and `report_digest` with values recorded before
the one-pass kernels of `contact.check_axioms` and
`snapshot.time_axiom_failures`, and the reuse of the dual algebra as RC's in
`dms.rc_dca`, were written.  The digest covers
the command, the input file's digest, every check in order with its verdict
and witness, and the info block, so a kernel rewrite that changes any
verdict, witness or the order of the checks fails here byte for byte.
Written files are named relative to the working directory, so the
`model_file` paths in the info block do not depend on where the test runs.
The fixtures are written in format version 1 (`conftest.write_path_v1`), the
format the digests were recorded on; their version 2 twins, as
`models.write_path` writes them, must give the same exit codes, checks and
info.
"""

from __future__ import annotations

import json

import pytest

from conftest import write_path_v1
from mereotime.boolean import FiniteBA
from mereotime.cli import main
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import DCA, from_contact_algebra, standard_dca
from mereotime.dms import DMSpace, dual_space
from mereotime.models import write_path
from mereotime.snapshot import TimeStructure, build_dmst


def _path(k: int) -> PrecontactAlgebra:
    return PrecontactAlgebra.from_atom_pairs(
        FiniteBA(k), {(i, j) for i in range(k) for j in range(k) if abs(i - j) <= 1}
    )


def _models() -> dict[str, tuple]:
    """File name -> (model, claims)."""
    chain = TimeStructure.of(2, {(0, 1)})
    cycle = TimeStructure.of(3, {(0, 1), (1, 2), (2, 0), (1, 1)})
    snapshot = standard_dca(build_dmst(chain, [_path(2), _path(1)], mode="full"))
    trivial = from_contact_algebra(_path(3))
    broken = DCA.from_pairs(
        3,
        {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2)},
        {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)},
        {(0, 1), (1, 2)},
    )
    cycle_model = build_dmst(cycle, [_path(2), _path(1), _path(1)], mode="full")
    space = dual_space(snapshot).space
    coarse = DMSpace(space.space, space.space_points, space.time_points, space.prec, (0, space.space.universe))
    return {
        "adjacency_bad": (Relation.of(3, {(0, 1), (1, 2), (2, 2)}), ["contact", "C5'", "CE"]),
        "adjacency_path": (_path(3).relation, ["contact", "CE"]),
        "time_cycle": (cycle, None),
        "dca_snapshot": (snapshot, None),
        "dca_trivial": (trivial, None),
        "dca_broken": (broken, None),
        "dca_cycle": (standard_dca(cycle_model), None),
        "dmst_cycle": (cycle_model, None),
        "dmst_rich": (build_dmst(chain, [_path(2), _path(2)], mode="rich", regions=[(1, 2)]), None),
        "dms_dual": (space, None),
        "dms_coarse": (coarse, None),
    }


CASES = (
    ("check", "adjacency_bad"),
    ("check", "adjacency_path"),
    ("check", "time_cycle"),
    ("check", "dca_snapshot"),
    ("check", "dca_trivial"),
    ("check", "dca_broken"),
    ("check", "dca_cycle"),
    ("check", "dmst_cycle"),
    ("check", "dmst_rich"),
    ("check", "dms_dual"),
    ("check", "dms_coarse"),
    ("points", "dca_snapshot"),
    ("points", "dca_trivial"),
    ("points", "dca_broken"),
    ("points", "dca_cycle"),
    ("represent", "dca_snapshot"),
    ("represent", "dca_trivial"),
    ("correspondence", "dmst_cycle"),
    ("correspondence", "dmst_rich"),
    ("correspondence", "dca_snapshot"),
    ("correspondence", "dca_trivial"),
    ("correspondence", "dca_cycle"),
    ("dualize", "dca_snapshot"),
    ("dualize", "dca_trivial"),
    ("dualize", "dms_dual"),
    ("roundtrip", "dca_snapshot"),
    ("roundtrip", "dca_trivial"),
    ("roundtrip", "dca_cycle"),
    ("roundtrip", "dms_dual"),
)

# (exit code, report digest) per case.
GOLDEN = {
    'check-adjacency_bad': (1, 'cf184c8615cf85b0cd1a8b718f1fd5770c3e115a9de75ebed0a88953c3c3ed91'),
    'check-adjacency_path': (1, 'ae3f59367276d605cefbdc1ad07ebe649045eb1f58d31768c1703cf2586a20a6'),
    'check-time_cycle': (0, '6c86263b48a468a9a65f7529b2b23054baf3543fd23fc5847a1d382b0f4d0e39'),
    'check-dca_snapshot': (0, '79f862617bb5438e5a17741ab398c200ad7ab9ea1ecbc00c74dcaa455a6d3462'),
    'check-dca_trivial': (0, 'c128bb1ec0c459e5b7977116a8a8afdbd18793ab4a0685f153bd9d0fa10de143'),
    'check-dca_broken': (1, 'aed9e601e53c232475a05fec1402cec3229e68bf06cd930f6395619a6531fb0c'),
    'check-dca_cycle': (0, '39b48b012fd82aa1c1c26ebba145c88fc356166d1f7377c6497280689197d2c2'),
    'check-dmst_cycle': (0, 'fe540baece20241b2f1299bd672830518e4fa389bf3548e9e868c1d16426a3f3'),
    'check-dmst_rich': (0, '05c013417d15509daa67623ed0ad4a53d8ebaeaeb705074d6272144b206360d4'),
    'check-dms_dual': (0, 'd2f240dbb0bff6b646bb9ab8c6ed0810ebb61036d4979d411934cbefe61e3ea9'),
    'check-dms_coarse': (1, '7da907f6ab82fbdb03fe70c933d06b9b27b828ba8996090951e44d4f94698db6'),
    'points-dca_snapshot': (0, '3505d05e83bebe48804f143b0b2da03384cf27963e7f76a508ab23f8333ea214'),
    'points-dca_trivial': (0, '48e48a55130697840a5b5f96c7ad1569c645eecf718086944816f14619c25473'),
    'points-dca_broken': (1, '1f77aedb2fad0af3a1725170365c4cc7071cdbe172bcdf87c26c37c5216bcbb8'),
    'points-dca_cycle': (0, '1b0e99041f4e7657e3189b870b2fe051f8deeb358dc3937119bf2d135922c056'),
    'represent-dca_snapshot': (0, '39bf3799d770a089ec61933710077ef78eef7936a40e859f0ba8df9e2f50f11c'),
    'represent-dca_trivial': (0, '5711081b32743529e2177f4bba0b08db3d83540ae9025b1bb7de1e4bb75e5cf0'),
    'correspondence-dmst_cycle': (0, '1b62a17815a133783333b968fd15b7c8f1048537ab8e5e948f779cd7306b3fef'),
    'correspondence-dmst_rich': (0, 'df6a292c7289dc8bb95852e2cbd938e13deec03e682f166e6286ecc083249eb2'),
    'correspondence-dca_snapshot': (0, '79d237a820d1acd493f19f9da1a035fc0229041f978e77e16d0d8e62768b2197'),
    'correspondence-dca_trivial': (0, '0cb7acb447aa84f026f298e95b7482227745f7a22724d95ca143a94723360abc'),
    'correspondence-dca_cycle': (0, '90a076e631e76dedb258e25f13623355fa633b4a2d89d1cb58f1d5b06c8ea219'),
    'dualize-dca_snapshot': (0, '92f8cc44d9c040b312636a770749088ff676afc9f565d850c478ea8c61335800'),
    'dualize-dca_trivial': (0, '4815f5d07f482d0471e1e812ddda00d59510196876b4f5b7b46a584e5eadc421'),
    'dualize-dms_dual': (0, 'cd51c7caba13b0cc1276734b6402f8d167445fa4d76bbc727e2cc05fc94eb2fd'),
    'roundtrip-dca_snapshot': (0, 'baf21e8d0ed14e1c44b68459b17a1b947303922d1ee4510da47d45b34c601d68'),
    'roundtrip-dca_trivial': (0, '3080e7ed74a30fea5f42990d3cf6a3d0fdeef520301e6e0f59f346b085e2fdfa'),
    'roundtrip-dca_cycle': (0, '847e644b7e9283d55fa77bd1458529acc6c46e62c59071ee6f15ff5b81df3402'),
    'roundtrip-dms_dual': (0, 'bd5e8c730a7f650c9e3d236ca0ad1bbc58d863a0a576c3855b38facbbcd0b238'),
}


def _model_dir(root, write):
    for name, (model, claims) in _models().items():
        write(root / f"{name}.json", model, claims=claims)
    return root


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return _model_dir(tmp_path_factory.mktemp("golden"), write_path_v1)


@pytest.fixture(scope="module")
def model_dir_v2(tmp_path_factory):
    return _model_dir(tmp_path_factory.mktemp("golden_v2"), write_path)


def run_case(command: str, name: str, capsys) -> tuple[int, dict]:
    args = [command, f"{name}.json", "--format", "json"]
    if command in ("represent", "dualize"):
        args += ["--out", "out"]
    code = main(args)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, (command, name, lines)
    return code, json.loads(lines[0])


@pytest.mark.parametrize("command,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_report_digest_matches_golden(command, name, model_dir, monkeypatch, capsys):
    monkeypatch.chdir(model_dir)
    code, body = run_case(command, name, capsys)
    assert (code, body["report_digest"]) == GOLDEN[f"{command}-{name}"]


def test_version_2_twins_report_as_the_golden_files(model_dir, model_dir_v2, monkeypatch, capsys):
    """Each fixture's version 2 twin gives the same exit code, checks and
    info; only the digests of the input and of the report differ."""
    for command, name in CASES:
        seen = []
        for root in (model_dir, model_dir_v2):
            monkeypatch.chdir(root)
            seen.append(run_case(command, name, capsys))
        (code, body), (code_v2, body_v2) = seen
        assert code == code_v2 == GOLDEN[f"{command}-{name}"][0], (command, name)
        assert (body_v2["checks"], body_v2["info"]) == (body["checks"], body["info"]), (command, name)
        for key in ("input_digest", "report_digest"):
            assert body_v2[key] != body[key], (command, name, key)
