"""The three workloads: their inputs, their operations and the checks on them.

A workload generates its inputs once, with the package's own generators,
constructors and writers, and then hands out rounds.  A round is a fixed list of operations;
every run attempts whole rounds, so each run has the same mix of operations
and the same share of failed ones.  No two operations of a round receive
value-equal inputs.  The command-line workloads clear every function cache
before each operation; the sweep clears them at the start of each round and
keeps them warm within it, as one library session would.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle


@dataclass
class Op:
    """One call into the program, and the check of what it returned."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[], str]
    # Substring of the failure every run of this operation shows today
    # because of a known fault in the program; None when it must pass.
    known_fault: str | None = None


@dataclass
class CliResult:
    code: object
    out: str
    err: str


def run_cli(m, argv) -> CliResult:
    """`mereotime ARGV` in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = m["cli"].main([str(a) for a in argv])
    return CliResult(code, out.getvalue(), err.getvalue())


def file_digest(path: Path) -> Callable[[], str]:
    return lambda: oracle.digest(path.read_text(encoding="utf-8") if path.exists() else f"missing {path}")


def _sorted_pairs(pairs) -> list[list[int]]:
    return sorted([int(x), int(y)] for x, y in pairs)


# -- sweep -----------------------------------------------------------------


class Sweep:
    """Library calls over many small structures, caches warm within a round."""

    name = "sweep"
    cold = False
    SAMPLE = 2000  # seeded 4-atom relations per round
    # Per-layer metrics every traced round must read above 0.
    MOVES = ("contact.check_axioms_s", "contact.canonical_s", "contact.clans_s", "snapshot.build_dmst_s",
             "snapshot.correspondence_s", "dms.representation_s", "dms.stability_s", "dms.closed_sets",
             "cache.entries")

    def generate(self, m, root: Path, rng: random.Random) -> None:
        gen = m["generate"]
        cells = list(itertools.product(range(4), repeat=2))
        self.relations = [(r.size, _sorted_pairs(r.pairs)) for n in (1, 2, 3) for r in gen.all_relations(n)]
        self.relations += [
            (4, [list(cells[i]) for i in range(16) if bits >> i & 1])
            for bits in rng.sample(range(1 << 16), self.SAMPLE)
        ]
        self.times = [(ts.point_count, _sorted_pairs(ts.prec)) for ts in gen.all_time_structures(3)]

    def round(self, m) -> list[Op]:
        FiniteBA = m["boolean"].FiniteBA
        one_atom = m["contact"].PrecontactAlgebra.overlap(FiniteBA(1))
        ops = [
            Op(f"relation.n{n}", partial(_relation_op, m, n, pairs), partial(_relation_check, n, pairs),
               partial(oracle.digest, ["relation", n, pairs]))
            for n, pairs in self.relations
        ]
        ops += [
            Op("correspondence.t3", partial(_correspondence_op, m, one_atom, moments, prec),
               partial(_correspondence_check, moments, prec), partial(oracle.digest, ["model", moments, prec]))
            for moments, prec in self.times
        ]
        for d in m["generate"].trivial_dcas(4):
            n, space = d.base.atom_count, _sorted_pairs(d.space_rel.pairs)
            ops.append(
                Op(f"representation.n{n}", partial(_representation_op, m, d),
                   partial(_representation_check, m, d, [(n, space)]),
                   partial(oracle.digest, ["trivial dca", n, space]))
            )
        return ops


def _relation_op(m, n, pairs):
    c = m["contact"]
    algebra = c.PrecontactAlgebra(m["boolean"].FiniteBA(n), c.Relation(n, frozenset(map(tuple, pairs))))
    report = c.check_axioms(algebra)
    canonical = c.canonical_relation(algebra)
    clans = c.clans(algebra) if report["C4"].holds and report["C5"].holds else None
    return report, canonical, clans


def _relation_check(n, pairs, value) -> list[str]:
    report, canonical, clans = value
    return oracle.check_relation(
        n,
        set(map(tuple, pairs)),
        {c.name: c.holds for c in report.checks},
        canonical.pairs,
        None if clans is None else [c.support for c in clans],
    )


def _correspondence_op(m, coordinate, moments, prec):
    s = m["snapshot"]
    model = s.build_dmst(s.TimeStructure(moments, frozenset(map(tuple, prec))), [coordinate] * moments, mode="full")
    return s.correspondence_check(model)


def _correspondence_check(moments, prec, rows) -> list[str]:
    return oracle.check_correspondence(moments, prec, [(r.condition.name, r.left, r.right) for r in rows])


def _representation_op(m, d):
    return m["dms"].verify_representation_topo(d)


def _representation_check(m, d, coordinates, report) -> list[str]:
    # Both calls are answered from the caches the operation filled.
    result = m["dms"].dual_space(d)
    counts = {
        "t_clans": len(m["dca"].clan_structure(d).t_clans),
        "points": result.space.space.point_count,
        "regions": len(result.space.regions),
        "s_clans": bin(result.space.space_points).count("1"),
        "clusters": bin(result.space.time_points).count("1"),
    }
    return oracle.check_representation([c.name for c in report.checks if not c.holds], counts, coordinates)


# -- command-line workloads ------------------------------------------------


@dataclass
class Model:
    """A generated full model, described by plain data for the checks."""

    coordinates: list  # (atom count, contact pairs) per moment
    prec: list

    @property
    def moments(self) -> int:
        return len(self.coordinates)


# Inputs of one size class differ only by a seeded relabelling of one shape,
# so that what they cost does not depend on the seed: contact edges per
# coordinate size, and before-after pairs per number of moments.
CONTACT_SHAPES = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2)),
    4: ((0, 1), (1, 2), (2, 3)),
    5: ((0, 1), (1, 2), (2, 3), (3, 4), (1, 3)),
    6: ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
}
TIME_SHAPES = {
    1: ((0, 0),),
    2: ((0, 1),),
    3: ((0, 1), (0, 2), (1, 2)),
    4: ((0, 1), (1, 2), (2, 3), (3, 0), (0, 0)),
}


def contact_pairs(rng: random.Random, size: int) -> list[list[int]]:
    """The contact shape of `size` atoms under a seeded relabelling."""
    perm = rng.sample(range(size), size)
    edges = {(perm[x], perm[y]) for x, y in CONTACT_SHAPES[size]}
    return _sorted_pairs({(i, i) for i in range(size)} | edges | {(y, x) for x, y in edges})


def seeded_model(rng: random.Random, sizes) -> Model:
    """Coordinate sizes per moment of the shape, moments and atoms relabelled."""
    moments = len(sizes)
    perm = rng.sample(range(moments), moments)
    coordinates = [None] * moments
    for i, k in enumerate(sizes):
        coordinates[perm[i]] = (k, contact_pairs(rng, k))
    return Model(coordinates, _sorted_pairs({(perm[i], perm[j]) for i, j in TIME_SHAPES[moments]}))


def build_model(m, model: Model):
    c, s = m["contact"], m["snapshot"]
    coordinates = [c.PrecontactAlgebra(m["boolean"].FiniteBA(k), c.Relation.of(k, pairs)) for k, pairs in model.coordinates]
    return s.build_dmst(s.TimeStructure.of(model.moments, model.prec), coordinates, mode="full")


def build_trivial(m, model: Model):
    (n, pairs), = model.coordinates
    c = m["contact"]
    return m["dca"].from_contact_algebra(c.PrecontactAlgebra(m["boolean"].FiniteBA(n), c.Relation.of(n, pairs)))


class _CliWorkload:
    cold = True
    ATTEMPTS = 10_000

    def _fresh(self, m, kind: str, draw, path: Path) -> Model:
        """Write the first drawn input of `kind` that is new to the round."""
        for _ in range(self.ATTEMPTS):
            model = draw()
            key = oracle.digest([kind, model.coordinates, model.prec])
            if key not in self.seen:
                self.seen.add(key)
                if kind == "dmst":
                    obj = build_model(m, model)
                elif kind == "trivial":
                    obj = build_trivial(m, model)
                else:
                    obj = m["dca"].standard_dca(build_model(m, model))
                m["models"].write_path(path, obj)
                return model
        raise SystemExit(f"error: no new input for {path.name} in {self.ATTEMPTS} draws")

    def _op(self, m, label, argv, check, path, known_fault=None) -> Op:
        return Op(label, partial(run_cli, m, [*argv, "--format", "json"]), check, file_digest(path), known_fault)


def _checked(check):
    """Check of a command that must exit 0 with a JSON report."""

    def run(result: CliResult) -> list[str]:
        return oracle.check_exit(result.code, 0, result.err) or check(json.loads(result.out))

    return run


class Represent(_CliWorkload):
    """check, points, represent and correspondence on 5-7 atom models."""

    name = "represent"
    MOVES = ("contact.check_axioms_s", "snapshot.build_dmst_s", "snapshot.correspondence_s", "dca.validate_s",
             "dca.clan_structure_s", "dca.embedding_s", "dca.canonical_model_s", "dca.standard_dca_s",
             "models.load_s", "models.write_s", "cli.self_s")
    # (coordinate sizes per moment, sets per round): 5 to 7 atoms over 1 to 4
    # moments.  A set is six files: four algebras and two models.
    CLASSES = (((5,), 6), ((4, 1), 6), ((2, 2, 1, 1), 2), ((2, 2, 2), 1), ((4, 2), 1), ((2, 2, 2, 1), 1))
    # Malformed files, each with the command that reads it; all must exit 2.
    MALFORMED = (
        ("check", "not-json", "{ \"kind\": \"dca\", "),
        ("points", "missing-field", {"kind": "dca", "format_version": 1, "atom_count": 1,
                                     "space_contact": [[0, 0]], "time_contact": [[0, 0]]}),
        ("represent", "unknown-kind", {"kind": "region", "format_version": 1}),
        ("correspondence", "pair-out-of-range", {"kind": "dca", "format_version": 1, "atom_count": 2,
                                                 "space_contact": [[0, 5]], "time_contact": [[0, 0]],
                                                 "precedence": []}),
        ("check", "format-version", {"kind": "dca", "format_version": 9}),
        ("check", "point-count-abc", {"kind": "time_structure", "format_version": 1,
                                      "point_count": "abc", "prec": []}),
    )
    # `models.decode` lets the ValueError of int("abc") escape.
    FAULTS = {"point-count-abc": "uncaught ValueError"}

    def generate(self, m, root: Path, rng: random.Random) -> None:
        self.out, self.seen = root / "out", set()
        root.mkdir(parents=True)
        self.files = []
        for sizes, sets in self.CLASSES:
            tag = "x".join(map(str, sizes))
            for i in range(sets):
                for command in ("check", "points", "represent", "correspondence"):
                    path = root / f"dca-{tag}-{i}-{command}.json"
                    model = self._fresh(m, "dca", partial(seeded_model, rng, sizes), path)
                    self.files.append((command, "dca", tag, path, model))
                for command in ("check", "correspondence"):
                    path = root / f"dmst-{tag}-{i}-{command}.json"
                    model = self._fresh(m, "dmst", partial(seeded_model, rng, sizes), path)
                    self.files.append((command, "dmst", tag, path, model))
        for command, name, content in self.MALFORMED:
            path = root / f"{name}.json"
            path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
            self.files.append((command, "malformed", name, path, None))

    def round(self, m) -> list[Op]:
        shutil.rmtree(self.out, ignore_errors=True)
        ops = []
        for command, kind, tag, path, model in self.files:
            argv = [command, path] + (["--out", self.out] if command == "represent" else [])
            if kind == "malformed":
                check = partial(_exits_two, command)
                ops.append(self._op(m, f"{command}.malformed", argv, check, path, self.FAULTS.get(tag)))
                continue
            check = _checked(partial(REPRESENT_CHECKS[command, kind], model, self.out / f"{path.stem}.canonical.json"))
            ops.append(self._op(m, f"{command}.{kind}.{tag}", argv, check, path))
        return ops


def _exits_two(command, result: CliResult) -> list[str]:
    failures = oracle.check_exit(result.code, 2, result.err)
    if not failures and not result.err.startswith("error:"):
        failures.append(f"{command} exit 2 without an error message")
    return failures


def _dmst_info(model: Model, payload) -> list[str]:
    info = payload.get("info", {})
    regions = oracle.dual_counts(model.coordinates)["regions"]
    out = oracle.check_report(payload)
    return out + [f"{key} reads {info.get(key)!r}" for key, want in
                  (("full", True), ("rich", True), ("regions", regions)) if info.get(key) != want]


def _represented(model: Model, written: Path, payload) -> list[str]:
    out = oracle.check_report(payload, required=("h injective", "Cs respected", "B respected"))
    if not written.exists():
        return out + [f"{written.name} not written"]
    return out + oracle.check_model_file(json.loads(written.read_text(encoding="utf-8")), model.coordinates)


REPRESENT_CHECKS = {
    ("check", "dca"): lambda model, _, payload: oracle.check_report(payload, required=("Cs<=Ct", "CtE", "CtB", "BCt")),
    ("points", "dca"): lambda model, _, payload: oracle.check_points(payload.get("info", {}), model.coordinates, model.prec),
    ("represent", "dca"): _represented,
    ("correspondence", "dca"): lambda model, _, payload: oracle.check_report(payload)
    + oracle.check_rows_dca(payload.get("info", {}).get("rows", []), model.moments, model.prec),
    ("check", "dmst"): lambda model, _, payload: _dmst_info(model, payload),
    ("correspondence", "dmst"): lambda model, _, payload: oracle.check_report(payload)
    + oracle.check_rows_dmst(payload.get("info", {}).get("rows", []), model.moments, model.prec),
}


class Dualize(_CliWorkload):
    """dualize, and check and roundtrip of what it wrote, on 7-18 point spaces."""

    name = "dualize"
    MOVES = ("dca.validate_s", "dms.dual_space_s", "dms.validate_s", "dms.regular_closed_s", "dms.classify_s",
             "dms.closed_sets", "category.roundtrip_s", "category.isomorphism_s", "models.load_s",
             "models.write_s", "cli.self_s")
    # (("trivial", atoms) or ("snapshot", coordinate sizes), sets per round),
    # with dual spaces of 7, 15, 8, 10, 16, 14 and 18 points.  A set is three
    # algebras: one dualized and its space checked, one dualized and its
    # space round-tripped, one round-tripped.
    CLASSES = ((("trivial", 3), 1), (("trivial", 4), 4), (("snapshot", (3, 1)), 2), (("snapshot", (3, 2)), 2),
               (("snapshot", (4, 1)), 7), (("snapshot", (3, 3)), 2), (("snapshot", (4, 2)), 2))
    FAILING = 2  # 6-atom trivial algebras per round
    # `FiniteTopSpace.closed_family` stops at `_FAMILY_CAP` closed sets.
    FAULT = "closed-set family too large"

    def generate(self, m, root: Path, rng: random.Random) -> None:
        self.out, self.seen = root / "out", set()
        root.mkdir(parents=True)
        self.files = []
        for (kind, size), sets in self.CLASSES:
            tag = f"{kind}{size if kind == 'trivial' else 'x'.join(map(str, size))}"
            draw = partial(seeded_model, rng, (size,) if kind == "trivial" else size)
            for i in range(sets):
                for role in ("dualize-check", "dualize-roundtrip", "roundtrip"):
                    path = root / f"{tag}-{i}-{role}.json"
                    self.files.append((role, tag, path, self._fresh(m, "trivial" if kind == "trivial" else "dca", draw, path)))
        for i in range(self.FAILING):
            path = root / f"trivial6-{i}-dualize.json"
            model = self._fresh(m, "trivial", partial(seeded_model, rng, (6,)), path)
            self.files.append(("dualize-failing", "trivial6", path, model))

    def round(self, m) -> list[Op]:
        shutil.rmtree(self.out, ignore_errors=True)
        ops, later = [], []
        for role, tag, path, model in self.files:
            dual = self.out / f"{path.stem}.dual.json"
            if role == "roundtrip":
                check = _checked(partial(oracle.check_report, required=("extent map is an isomorphism",)))
                later.append(self._op(m, f"roundtrip.dca.{tag}", ["roundtrip", path], check, path))
                continue
            fault = self.FAULT if role == "dualize-failing" else None
            ops.append(self._op(m, f"dualize.{tag}", ["dualize", path, "--out", self.out],
                                _checked(partial(_dualized, model, dual)), path, fault))
            if role == "dualize-check":
                later.append(self._op(m, f"check.dms.{tag}", ["check", dual], _checked(_space_checked), dual))
            elif role == "dualize-roundtrip":
                check = _checked(partial(oracle.check_report, required=("trace map is an isomorphism",)))
                later.append(self._op(m, f"roundtrip.dms.{tag}", ["roundtrip", dual], check, dual))
        return ops + later


def _dualized(model: Model, written: Path, payload) -> list[str]:
    out = oracle.check_report(payload, required=oracle.SPACE_AXIOMS)
    if not written.exists():
        return out + [f"{written.name} not written"]
    return out + oracle.check_dual_file(json.loads(written.read_text(encoding="utf-8")), model.coordinates)


def _space_checked(payload) -> list[str]:
    return oracle.check_report(payload, required=oracle.SPACE_AXIOMS) + oracle.check_space_info(payload.get("info", {}))


WORKLOADS = {w.name: w for w in (Sweep, Represent, Dualize)}
