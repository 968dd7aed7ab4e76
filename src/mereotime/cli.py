"""Command-line interface: ingestion, verification commands and generators.

Every file command runs one pipeline, `_file_command`: load the model file,
refuse a kind the command does not read (`FILE_COMMANDS` lists the kinds
each command reads), fill a fresh report with the command's body and emit
it.

Exit codes: 0 all checks passed, 1 some check or capability failed,
2 unreadable or schema-invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

from . import generate as gen
from .boolean import atoms_of
from .category import DcaMorphism, duality_roundtrip, validate_dca_morphism, validate_dms_morphism
from .contact import CONTACT_AXIOMS, PRECONTACT_AXIOMS, contact_from_adjacency
from .dca import (
    canonical_standard_dca,
    canonical_time_structure,
    clan_structure,
    correspondence2,
    standard_dca,
    t_clan_count,
)
from .dms import check_s2, classify, dual, dual_space, validate_dms
from .errors import MereotimeError, PreconditionError, SchemaError, ValidationError
from .models import KINDS, SPACE_POINT_CAP, digest, load_path, write_path
from .reporting import plain
from .snapshot import (
    TIME_CONDITIONS,
    check_time_condition,
    correspondence_check,
    is_full,
    is_rich,
)

OUTPUT_ENV = "MEREOTIME_OUT"


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


class CommandReport:
    def __init__(self, command: str, source: str, input_digest: str):
        self.command = command
        self.source = source
        self.input_digest = input_digest
        self.checks: list[dict] = []
        self.info: dict = {}
        self.started = time.perf_counter()

    def add_check(self, name: str, holds: bool, witness=None, note=None) -> None:
        entry = {"name": name, "holds": bool(holds)}
        if witness is not None:
            entry["witness"] = plain(witness)
        if note is not None:
            entry["note"] = note
        self.checks.append(entry)

    def absorb(self, report) -> None:
        for c in report.checks:
            self.add_check(c.name, c.holds, c.witness, c.note)

    @property
    def ok(self) -> bool:
        return all(c["holds"] for c in self.checks)

    def payload(self) -> dict:
        body = {
            "command": self.command,
            "input": self.source,
            "input_digest": self.input_digest,
            "ok": self.ok,
            "checks": self.checks,
            "info": self.info,
        }
        body["report_digest"] = digest(
            {k: body[k] for k in ("command", "input_digest", "checks", "info")}
        )
        body["elapsed_ms"] = round((time.perf_counter() - self.started) * 1000, 3)
        return body

    def emit(self, fmt: str) -> None:
        body = self.payload()
        if fmt == "json":
            print(json.dumps(body, sort_keys=True))
            return
        print(f"== {self.command} {self.source}")
        for check in self.checks:
            mark = "PASS" if check["holds"] else "FAIL"
            extra = ""
            if "witness" in check:
                extra = f"  witness={check['witness']}"
            if "note" in check:
                extra += f"  note={check['note']}"
            print(f"{mark}  {check['name']}{extra}")
        for key, value in self.info.items():
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        print(f"result: {'ok' if self.ok else 'FAILED'}")


def _claim_axioms(claims) -> list[str]:
    out: list[str] = []
    for claim in claims:
        if claim == "precontact":
            out.extend(PRECONTACT_AXIOMS)
        elif claim == "contact":
            out.extend(CONTACT_AXIOMS)
        else:
            out.append(claim)
    return list(dict.fromkeys(out))


def _file_command(kinds, body, args) -> int:
    """Run one file command: 0 if every check of its report holds, else 1."""
    kind, obj, extras, payload = load_path(args.path)
    if kind not in kinds:
        raise SchemaError(f"{args.command} expects a {' or '.join(kinds)} file")
    report = CommandReport(args.command, str(args.path), digest(payload))
    body(args, report, kind, obj, extras)
    report.emit(args.format)
    return 0 if report.ok else 1


def _check_command(args, report, kind, obj, extras) -> None:
    if kind == "adjacency":
        algebra = contact_from_adjacency(obj)
        table = algebra.axiom_report
        for name in _claim_axioms(extras["claims"]):
            if name not in table:
                raise SchemaError(f"unknown claim {name!r}")
            check = table[name]
            report.add_check(name, check.holds, check.witness)
        report.info["axioms"] = {c.name: c.holds for c in table.checks}
    elif kind == "time_structure":
        report.info["conditions"] = {
            cond.name: check_time_condition(obj, cond).holds for cond in TIME_CONDITIONS
        }
    elif kind == "dca":
        report.absorb(obj.report)
    elif kind == "dmst":
        for i, coord in enumerate(obj.coordinates):
            failing = [
                c for c in coord.axiom_report.checks if c.name in CONTACT_AXIOMS and not c.holds
            ]
            report.add_check(
                f"coordinate {i} is a contact algebra",
                not failing,
                failing[0].witness if failing else None,
                note=failing[0].name if failing else None,
            )
        rich = is_rich(obj)
        report.info["rich"] = rich
        report.info["full"] = is_full(obj)
        report.info["regions"] = obj.region_count
        if rich:
            report.absorb(standard_dca(obj).report)
        else:
            report.info["note"] = "model is not rich; induced algebra not required to validate"
    elif kind == "dms":
        space_report = validate_dms(obj)
        report.absorb(space_report)
        if space_report.ok:
            shape = classify(obj)
            report.info["T0"] = shape.is_t0
            report.info["DM_compact"] = shape.is_dm_compact
    elif kind == "morphism":
        if isinstance(obj, DcaMorphism):
            report.absorb(validate_dca_morphism(obj))
        else:
            report.absorb(validate_dms_morphism(obj))


def _admit_t_clans(d) -> None:
    """Refuse a valid algebra whose t-clans, its dual space's points, are
    over the `dms` file bound, before listing any."""
    d.require_valid()
    count = t_clan_count(d)
    if count > SPACE_POINT_CAP:
        raise SchemaError(f"dca has {count} t-clans, over the dual space point bound of {SPACE_POINT_CAP}")


def _points_command(args, report, kind, obj, extras) -> None:
    validation = obj.report
    if not validation.ok:
        report.absorb(validation)
        return
    _admit_t_clans(obj)
    structure = clan_structure(obj)
    canonical = canonical_time_structure(obj)
    report.info["ultrafilters"] = [[x] for x in obj.base.atoms()]
    report.info["s_clans"] = [list(atoms_of(s)) for s in structure.s_clans]
    report.info["t_clans"] = [list(atoms_of(s)) for s in structure.t_clans]
    report.info["clusters"] = [list(atoms_of(s)) for s in structure.clusters]
    report.info["gamma"] = [
        {"t_clan": list(atoms_of(s)), "cluster": list(atoms_of(c))}
        for s, c in sorted(structure.gamma.items())
    ]
    report.info["counts"] = {
        "ultrafilters": obj.base.atom_count,
        "s_clans": len(structure.s_clans),
        "t_clans": len(structure.t_clans),
        "clusters": len(structure.clusters),
    }
    report.info["canonical_time"] = {
        "point_count": canonical.structure.point_count,
        "prec": sorted(list(p) for p in canonical.structure.prec),
    }


def _represent_command(args, report, kind, obj, extras) -> None:
    from .dca import verify_embedding

    report.absorb(verify_embedding(obj))
    canonical = canonical_standard_dca(obj)
    target = _out_dir(args) / (Path(args.path).stem + ".canonical.json")
    write_path(target, canonical.model)
    report.info["model_file"] = str(target)


def _dualize_command(args, report, kind, obj, extras) -> None:
    if kind == "dca":
        _admit_t_clans(obj)
        result = dual_space(obj)
        report.absorb(validate_dms(result.space))
        model, suffix = result.space, ".dual.json"
    else:
        s2 = check_s2(obj)
        if not s2.holds:
            witness = plain(s2.witness)
            raise ValidationError(f"region family is not a Boolean subalgebra: S2 fails (witness {witness})")
        algebra = dual(obj)
        report.absorb(algebra.dca.report)
        model, suffix = algebra.dca, ".dual_algebra.json"
    target = _out_dir(args) / (Path(args.path).stem + suffix)
    write_path(target, model)
    report.info["model_file"] = str(target)


def _roundtrip_command(args, report, kind, obj, extras) -> None:
    if kind == "dca":
        _admit_t_clans(obj)
    report.absorb(duality_roundtrip(obj))


def _correspondence_command(args, report, kind, obj, extras) -> None:
    if kind == "dmst":
        rows = correspondence_check(obj)
        for row in rows:
            report.add_check(
                f"{row.condition.name} matches {row.condition.region_axiom}",
                row.agree,
                witness=(row.left, row.right) if not row.agree else None,
                note=row.note,
            )
        report.info["rows"] = [
            {"condition": r.condition.name, "left": r.left, "right": r.right} for r in rows
        ]
    else:
        rows = correspondence2(obj)
        for row in rows:
            report.add_check(
                f"{row.condition.name} three-way",
                row.agree,
                witness=(row.on_ultrafilters, row.on_clusters, row.on_regions)
                if not row.agree
                else None,
            )
        report.info["rows"] = [
            {
                "condition": r.condition.name,
                "ultrafilters": r.on_ultrafilters,
                "clusters": r.on_clusters,
                "regions": r.on_regions,
            }
            for r in rows
        ]


def _generate_command(args) -> int:
    try:
        gen.check_size(args.kind, args.size)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    written = []

    def emit(name: str, obj, claims=None):
        target = out / f"{name}.json"
        write_path(target, obj, claims=claims)
        written.append(str(target))

    if args.exhaustive:
        if args.kind == "adjacency":
            for i, rel in enumerate(gen.all_relations(args.size)):
                emit(f"adjacency_s{args.size}_{i:04d}", rel)
        elif args.kind == "time_structure":
            for i, ts in enumerate(gen.all_time_structures(args.size)):
                emit(f"time_structure_s{args.size}_{i:04d}", ts)
        else:
            print("error: exhaustive generation covers adjacency and time_structure", file=sys.stderr)
            return 2
    else:
        import random

        rng = random.Random(args.seed)
        if args.kind == "adjacency":
            n = args.size
            rows = [sum(1 << y for y in range(n) if rng.random() < 0.5) for _ in range(n)]
            emit(f"adjacency_s{n}_seed{args.seed}", gen.Relation.from_rows(n, rows))
        elif args.kind == "time_structure":
            emit(
                f"time_structure_s{args.size}_seed{args.seed}",
                gen.seeded_time_structure(rng, args.size),
            )
        elif args.kind == "dca":
            emit(f"dca_s{args.size}_seed{args.seed}", gen.seeded_dca(args.seed, args.size))
        elif args.kind == "dmst":
            emit(f"dmst_s{args.size}_seed{args.seed}", gen.seeded_model(rng, args.size))
    for path in written:
        print(path)
    return 0


# The commands that read model files: name, help, the kinds of file the
# command reads, its body (run by `_file_command`), and whether the command
# writes model files to --out.
FILE_COMMANDS = (
    ("check", "validate a model file", KINDS, _check_command, False),
    ("points", "clan inventory of an algebra", ("dca",), _points_command, False),
    ("represent", "snapshot representation of an algebra", ("dca",), _represent_command, True),
    ("dualize", "dual space of an algebra, or dual algebra of a space", ("dca", "dms"), _dualize_command, True),
    ("roundtrip", "duality round-trip checks", ("dca", "dms"), _roundtrip_command, False),
    ("correspondence", "time condition / time axiom correspondence", ("dmst", "dca"), _correspondence_command,
     False),
)
OUT_HELP = f"output directory (default ${OUTPUT_ENV} or .)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mereotime",
        description="Finite-model toolkit for region-based theories of space and time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, kinds, body, writes in FILE_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("paths", nargs="+", metavar="path", help="model file(s)")
        if writes:
            p.add_argument("--out", help=OUT_HELP)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=partial(_file_command, kinds, body))

    g = sub.add_parser("generate", help="generate model files")
    g.add_argument("--kind", required=True, choices=("adjacency", "time_structure", "dca", "dmst"))
    g.add_argument("--size", required=True, type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--out", help=OUT_HELP)
    g.set_defaults(handler=_generate_command)
    return parser


# Parsing leaves the parser unchanged, so one parser serves every call of `main`.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    paths = getattr(args, "paths", None)
    worst = 0
    # inputs are independent; they are processed in input order
    for path in paths if paths is not None else [None]:
        if path is not None:
            args.path = path
        try:
            code = args.handler(args)
        except (SchemaError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except MereotimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
