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
info.  Two more records pin what the digests do not cover: the `--format
text` output of each case, and every file `generate` writes for each kind
at seed 7 and sizes 1 to 3, and exhaustively at size 2.  All three records
were taken before the command-line reports became `reporting.Report`s and
`generate` read its generator tables, except those of the `check` of the
identity morphism files and of the `correspondence` of the `dms` files,
taken when those commands began to report naturality and definability.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import write_path_v1
from mereotime.boolean import FiniteBA
from mereotime.category import DcaMorphism, DmsMorphism
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
        "morphism_dca": (DcaMorphism.identity(snapshot), None),
        "morphism_dms": (DmsMorphism.identity(space), None),
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
    ("check", "morphism_dca"),
    ("check", "morphism_dms"),
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
    ("correspondence", "dms_dual"),
    ("correspondence", "dms_coarse"),
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
    'check-morphism_dca': (0, '4ece72bec7197f479dbad70aa9e4341e86b819f3bbd305a757f578ac569c6682'),
    'check-morphism_dms': (0, '27d5a0924f8847c4fa98ba209bcda953f0d99ba68d718dd514627e0609c5291b'),
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
    'correspondence-dms_dual': (0, 'e46fad769d5a0253c6a13d4732617b7cfbd216986369c6d1da6d5deac1d2d420'),
    'correspondence-dms_coarse': (1, '8c5bffe8bc797e48783e4e556e4d210f0ec849ebe71cdd53910f5d9fb69e80e7'),
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


# sha256 of the `--format text` output per case.
GOLDEN_TEXT = {
    'check-adjacency_bad': '9add1641d3e004991f816a61cbb739cd43fd408176a32060f25f83e07e0cca3b',
    'check-adjacency_path': 'f92c709e9085743d9cabdf6a107c0f1f8a9d172d4a273fd439faf2b249b735b1',
    'check-time_cycle': 'd2764f771320ad7db2e6eb5c534b9cee105e34de7e083acb54e5f55634a5b353',
    'check-dca_snapshot': '529c39a7ac21037e7b4da3480af8d377d8f8b13a8b67324acbbc181958f173da',
    'check-dca_trivial': 'dc8d46276bb22d27a78b0522885e0d0ee67b9621729b97de51680bcbf1c7ba55',
    'check-dca_broken': 'b6cd189e5a884e43cd2474dc3953ee57d00817754f1cd1759c0da3d45beeb273',
    'check-dca_cycle': 'b5ed7b99dfa66201daa1b50212368dc8372c469e765e2a08ed20634d71f0e2c2',
    'check-dmst_cycle': 'f2854b33e58d2a9e21e7ad39b74ef237c505f653946811db9175a2da00e97134',
    'check-dmst_rich': '47e0f904f50f70b8bd724ab5d5f16c6d7c06ac3d3cc61df78d1aab8600897209',
    'check-dms_dual': '74ca024f6beca1a4be9b39cf1008ad05093c1f084ac5bce25fd8cca941721c00',
    'check-dms_coarse': 'ff607b92205e6d7c7034ead3e220f675c21262f4d0d8d92ef11f1d4c0da73cd8',
    'check-morphism_dca': '39d3849c5d20409a5eed12c250b6b24aa5b42a0e35169eae4162ce0bcb344bf7',
    'check-morphism_dms': 'dad0abe99a3352caf8a5af199a50d788f5498940ff0f0c12917338c550b09a74',
    'points-dca_snapshot': 'e77e1990050ca39ac4a77c66b8131408eab03cee004e44294454448da89a4275',
    'points-dca_trivial': 'd3f69440099ac07a5e2e87273ef54862ba8fac8ca36fe9a743d9700b158a47da',
    'points-dca_broken': 'f94a10b7b3ac6bf55af510611b428395d96f33992e15f2206c64639f17ca8856',
    'points-dca_cycle': 'c22cd1e67a2a7c16b9e99307ca525320595f1afc56d75c59f7ad9a7509421122',
    'represent-dca_snapshot': '865418aa933b1799e6e264fbbc904638d006f3ed4ac9c532259e775d9c0b2a88',
    'represent-dca_trivial': 'c2da6a7b42adf689a6d46b729b674ad2deb50f49df176aae4ed6abb1b0394059',
    'correspondence-dmst_cycle': 'f848511bc0a7f51edabcf43195fa0cff6ab0d6eec7ae5bc40b9b6f19e20221a0',
    'correspondence-dmst_rich': '2b8bb8b296e040ba97c0c07243297fb68a96b4ed99134f69020eb1655ab7ea6c',
    'correspondence-dca_snapshot': '1970d646f3c7a75b2438be43018dbfad7ed9cd5ac2eee7e54e9e033478121c49',
    'correspondence-dca_trivial': 'd74ed0eee71f878306d7d68e6470b075c823f95e171fc1dc0a643e50885792d0',
    'correspondence-dca_cycle': '2559ef3974d27a1233c9ddb9d656c96a277dd578b67b900b54640db96430cd41',
    'correspondence-dms_dual': '928e716e952aca513778ed86569b7e4ec2e6f87fdb59bafe38ba91d212237c63',
    'correspondence-dms_coarse': '6c137d7a0788cdae038fdb87b2ff7d3ecf70cbd335ac618eef658a9713b00158',
    'dualize-dca_snapshot': '7c56561c18deb18c2313949ab2acf57f786c45cad807bfcbb971286133ca010b',
    'dualize-dca_trivial': 'ff5e11c5d3d8a3a279709dc4fe15b15f38dee0918604dbd571d7f4d318a26e5b',
    'dualize-dms_dual': '8ce0374d319d78c6ed25d0898fdd405382ec7398d069090d20c4fbde67b1daad',
    'roundtrip-dca_snapshot': '721eccae7f3c7e7e7df99d14ee6ad6bdfe6ebb304181ae2e4e7673d7053db480',
    'roundtrip-dca_trivial': '7c3d22ac8294cda48c313ffe847baf079695c16636a100308e1af1bda03ac2a7',
    'roundtrip-dca_cycle': '4db661100159addd93e78cb6a6da2b641331faf72d815647e1535e1ac79d0245',
    'roundtrip-dms_dual': 'cbfa9aeab783128d370ee2262011b6d5c0587fd234b7bed8689cab85bf33a716',
}


@pytest.mark.parametrize("command,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_text_report_matches_golden(command, name, model_dir, monkeypatch, capsys):
    monkeypatch.chdir(model_dir)
    args = [command, f"{name}.json", "--format", "text"]
    if command in ("represent", "dualize"):
        args += ["--out", "out"]
    assert main(args) == GOLDEN[f"{command}-{name}"][0]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_TEXT[f"{command}-{name}"], out


# sha256 of each file `generate` writes, by file name.
GENERATED = {
    'adjacency_s1_seed7.json': '7684ccb8ab20f53ee9ce73339cb0d589093ed7f8c9c331301282ec806eacf2fe',
    'adjacency_s2_0000.json': '5b86c04d15e34a41cb4e65a9c1918e2df55ebf19c0eb4365e66f606b84bcd2b3',
    'adjacency_s2_0001.json': 'c596e58fa91009b564940fd8c9e7121a79766a09d10a123a84fa5eb1c7779dde',
    'adjacency_s2_0002.json': '868f8545dbab3e132edd6b0a9d7c6eb341fce6dbb121002ab0ca0d195a7d0845',
    'adjacency_s2_0003.json': '8d7a7ee6800d481ba852097bf39c8d55edb5851b2d8a50d844244e842b939bc2',
    'adjacency_s2_0004.json': '2bc76d06380722c1e4f8d95743613ea985ae5c14f08a0d80ded2bfe9e6eb58fc',
    'adjacency_s2_0005.json': '08e2adaefd1799c1bba2eefd8aa5225c0e5d14809eb94471dd31b11ae350736b',
    'adjacency_s2_0006.json': '2cd57e2a8e7a74cad144b2fb5b8c060f817e642be1326e1dfc09acca4de31200',
    'adjacency_s2_0007.json': 'cbdfe56397e1bd13e00dcb2134ab1009492ceacc4b4b85f76cd8444c7bf7c1a7',
    'adjacency_s2_0008.json': '4afaf24b4439775f897bb307fa622dca1e244140db4c622cae84ee9c4318b325',
    'adjacency_s2_0009.json': '93f8706fb05137b85e0ab469c5a8ad1ffd684dcab6ee915d0e4a2d2959d920b9',
    'adjacency_s2_0010.json': 'f7bd7d8221e3324ac2812d41a2a155506c5e2c2199d25cce2c10ce76c9584fa9',
    'adjacency_s2_0011.json': 'cf4659ab3aba6e4ccdb0e88087d1db41798f416cf930f8e201a74cd7a584bfe1',
    'adjacency_s2_0012.json': '51f7c89f2fc0f82c0e0a17994dea85be3374f6ea7a41a6927e1d35cd93d1d368',
    'adjacency_s2_0013.json': '69d4f97531f5262e718e996a5d46e44baf546356c0927c4a9643952177e1669a',
    'adjacency_s2_0014.json': '18a3ddec78506abefbd5f762a18a0a75cae535dd40cc901d76c9a951b11b7d2f',
    'adjacency_s2_0015.json': '4fc89801e4d3d14da2d7a2c1c160c42ffdb44881e3004df3a4a5b045682a1684',
    'adjacency_s2_seed7.json': 'cf4659ab3aba6e4ccdb0e88087d1db41798f416cf930f8e201a74cd7a584bfe1',
    'adjacency_s3_seed7.json': '8bb9a6facaf1b0f71c797740d21d41eaa4e31972cca31d6aa50d8db4958c5221',
    'dca_s1_seed7.json': '62e424a6f46eccb3b99e9510393611c8f4339b05f4f7ecbd85a0066d31086488',
    'dca_s2_seed7.json': '1ea3c3c2fa8138a87e1ad0ad49620d344444b65a1291ba38882a660c10c0ae3d',
    'dca_s3_seed7.json': 'bf5ad7193e65725a0a3e20ae9ebecc751b5d58ed488354eb8682f1bd17b8608a',
    'dmst_s1_seed7.json': '8d61a1452c1576feac772e149f0cb1429a2bef131f28efb2a4554ba14f368be8',
    'dmst_s2_seed7.json': '9349276675a0fb371fc86b44ef543cba5387fbdd9ee7467e18bcc383b8603446',
    'dmst_s3_seed7.json': '1ff9a8e4562abd41bf80aeefe1cfc639491493dbd7a86f27f9933509fb564211',
    'time_structure_s1_seed7.json': '43ee50deb564b881cce90c3dace5a6b54b21f4acdfa4e473002db1ab4118d567',
    'time_structure_s2_0000.json': 'feae8dd225437bc4d9bf25e23e87d76aa91769a05f1d22de9e02e564de333cbc',
    'time_structure_s2_0001.json': 'e88db25baab4f07795ede0a58220ce9c6c0dbf63865ea7c70f831ee2891d0594',
    'time_structure_s2_0002.json': '82a117e7dd8dcc95a88760f2cf8180d6437a789334552a27383e85d7c532df41',
    'time_structure_s2_0003.json': '9b0c2879eff8b9b5df39d6f458e001600d188ddaeb1016e0e6d32156a302e356',
    'time_structure_s2_0004.json': 'f0ef1d419c3bfc10d5c9c53ec3dd7e37b06845abea9e87f13e8f53548c4c8ceb',
    'time_structure_s2_0005.json': '7301258b15bd95cac251d40da64bc0c57b16b837f7cc2ffc259f56797036a89b',
    'time_structure_s2_0006.json': 'c51a5bfe02390202494b375b183b0f2cc784472d09a3da3fa6eb4bd91551cf97',
    'time_structure_s2_0007.json': 'f8cba992bc92ea39ddf8605b49c39495947cd1c39ee94ec29b92c82a96ecc26f',
    'time_structure_s2_0008.json': '580914a94635ecc797533e2efff40d6ab4aaba94ee112aa88cec5c930840e397',
    'time_structure_s2_0009.json': '514a1110fd22ed7c7c07cf73f8c397732d2f61ab496fb422734aa004e46468e4',
    'time_structure_s2_0010.json': '8a468e0ad32115abf99d79081f5abd8164e19535be071f6d693c1e14e052a78e',
    'time_structure_s2_0011.json': '606448dd2fb38f7628225f1e919d6b4a0537d609770c60369516cb1c7bf5c24a',
    'time_structure_s2_0012.json': '7c9ea756d6f8e731a6da5d18d53f37f68081be98f23fc9962a5ba875233b54aa',
    'time_structure_s2_0013.json': '953456e4e99cb75ad8dca71561a201c8d688f0b379b6e70814b76bfb01fb5157',
    'time_structure_s2_0014.json': '32c7a0383ac8702facf78619ceb8f42a2138c1a066944697cccaaa2bb3eef0ff',
    'time_structure_s2_0015.json': 'ed7475decf2e9c4c525e1088ab645cf1abe732d86a1aeb65275c8fa2d565548b',
    'time_structure_s2_seed7.json': '606448dd2fb38f7628225f1e919d6b4a0537d609770c60369516cb1c7bf5c24a',
    'time_structure_s3_seed7.json': '647b65526010d414e4c8b792d516b680203c685c1a62709ef269021baed2fe71',
}


def test_generated_files_match_golden(tmp_path, capsys):
    kinds = ("adjacency", "time_structure", "dca", "dmst")
    runs = [[kind, str(size), "--seed", "7"] for kind in kinds for size in (1, 2, 3)]
    runs += [[kind, "2", "--exhaustive"] for kind in ("adjacency", "time_structure")]
    for kind, size, *rest in runs:
        assert main(["generate", "--kind", kind, "--size", size, *rest, "--out", str(tmp_path)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert written == GENERATED
