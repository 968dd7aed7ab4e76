"""Command-line interface: a renderer of library results.

Each step from argv to stdout runs once.  `main` hands a known command's
arguments straight to that command's own parser (`PARSER.commands`); no
command, an unknown one or a top-level option goes through `PARSER`, which
also reports arguments no parser knows.  Every file command then runs one
pipeline, `_file_command`: load the model file, refuse a kind the command
does not read (`FILE_COMMANDS` lists the kinds each command reads), fill a
fresh `CommandReport`, a `reporting.Report` of the library's own checks,
with the command's body and emit it.  With `--format json` the report is
one line of canonical JSON, as in model files, assembled from its members'
canonical texts, which `report_digest` covers too; the text view prints the
same entries.  `correspondence` reads one table per kind of file, and
`generate` reads `generate.EXHAUSTIVE` and `generate.SEEDED`.

Exit codes: 0 all checks passed, 1 some check or capability failed,
2 unreadable or schema-invalid input, or a question past a named size
bound: the points or regions of a dual space, or an exhaustive listing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import partial
from hashlib import sha256
from operator import attrgetter
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
    verify_embedding,
)
from .dms import check_s2, classify, dual, dual_space, validate_dms
from .errors import MereotimeError, PreconditionError, SchemaError, ValidationError, count_text
from .models import CANONICAL, KINDS, SPACE_POINT_CAP, SPACE_REGION_CAP, digest, load_path, write_path
from .reporting import Report, plain
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


# The report members `report_digest` covers, in canonical (sorted) order.
_DIGESTED = ("checks", "command", "info", "input_digest")


class CommandReport(Report):
    """The report of one file command on one file; `subject` is the command."""

    def __init__(self, command: str, source: str, input_digest: str):
        super().__init__(command)
        self.source = source
        self.input_digest = input_digest
        self.info: dict = {}
        self.started = time.perf_counter()

    def payload(self) -> dict:
        """The report's JSON members, without its digest and elapsed time."""
        checks = []
        for c in self.checks:
            entry = {"name": c.name, "holds": bool(c.holds)}
            if c.witness is not None:
                entry["witness"] = plain(c.witness)
            if c.note is not None:
                entry["note"] = c.note
            checks.append(entry)
        return {
            "checks": checks,
            "command": self.subject,
            "info": self.info,
            "input": self.source,
            "input_digest": self.input_digest,
            "ok": self.ok,
        }

    def _json(self, body: dict) -> str:
        """The report as canonical JSON, as in model files, each member encoded once.

        `report_digest` is `models.digest` of the command, input digest,
        checks and info: the sha256 of their canonical object and a newline,
        assembled from the same member texts as the output.
        """
        text = {key: CANONICAL.encode(value) for key, value in body.items()}
        covered = "{" + ",".join(f'"{key}":{text[key]}' for key in _DIGESTED) + "}\n"
        text["report_digest"] = '"' + sha256(covered.encode("utf-8")).hexdigest() + '"'
        text["elapsed_ms"] = CANONICAL.encode(round((time.perf_counter() - self.started) * 1000, 3))
        return "{" + ",".join(f'"{key}":{text[key]}' for key in sorted(text)) + "}"

    def emit(self, fmt: str) -> None:
        body = self.payload()
        if fmt == "json":
            print(self._json(body))
            return
        print(f"== {self.subject} {self.source}")
        for check in body["checks"]:
            mark = "PASS" if check["holds"] else "FAIL"
            extra = ""
            if "witness" in check:
                extra = f"  witness={check['witness']}"
            if "note" in check:
                extra += f"  note={check['note']}"
            print(f"{mark}  {check['name']}{extra}")
        for key, value in self.info.items():
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        print(f"result: {'ok' if body['ok'] else 'FAILED'}")


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
        table = contact_from_adjacency(obj).axiom_report
        for name in _claim_axioms(extras["claims"]):
            if name not in table:
                raise SchemaError(f"unknown claim {name!r}")
            report.checks.append(table[name])
        report.info["axioms"] = {c.name: c.holds for c in table.checks}
    elif kind == "time_structure":
        report.info["conditions"] = {
            cond.name: check_time_condition(obj, cond).holds for cond in TIME_CONDITIONS
        }
    elif kind == "dca":
        report.extend(obj.report.checks)
    elif kind == "dmst":
        for i, coord in enumerate(obj.coordinates):
            failing = coord.contact_failure
            witness, note = (None, None) if failing is None else (failing.witness, failing.name)
            report.add(f"coordinate {i} is a contact algebra", failing is None, witness, note)
        rich = is_rich(obj)
        report.info["rich"] = rich
        report.info["full"] = is_full(obj)
        report.info["regions"] = obj.region_count
        if rich:
            report.extend(standard_dca(obj).report.checks)
        else:
            report.info["note"] = "model is not rich; induced algebra not required to validate"
    elif kind == "dms":
        space_report = validate_dms(obj)
        report.extend(space_report.checks)
        if space_report.ok:
            shape = classify(obj)
            report.info["T0"] = shape.is_t0
            report.info["DM_compact"] = shape.is_dm_compact
    elif kind == "morphism":
        validate = validate_dca_morphism if isinstance(obj, DcaMorphism) else validate_dms_morphism
        report.extend(validate(obj).checks)


def _admit_dual_space(d, regions: bool = True) -> None:
    """Refuse a valid algebra whose dual space is over the `dms` file bounds,
    before listing any of it: its t-clans, the points, and, unless `regions`
    is false, its 2^n regions, the joins of its n atoms' extents."""
    d.require_valid()
    count = t_clan_count(d)
    if count > SPACE_POINT_CAP:
        raise SchemaError(f"dca has {count_text(count)} t-clans, over the dual space point bound of {SPACE_POINT_CAP}")
    count = 1 << d.base.atom_count
    if regions and count > SPACE_REGION_CAP:
        too_many = f"{count_text(count)} regions, over the dual space region bound of {SPACE_REGION_CAP}"
        raise SchemaError(f"dca has {too_many}")


def _points_command(args, report, kind, obj, extras) -> None:
    validation = obj.report
    if not validation.ok:
        report.extend(validation.checks)
        return
    _admit_dual_space(obj, regions=False)
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
    report.extend(verify_embedding(obj).checks)
    canonical = canonical_standard_dca(obj)
    target = _out_dir(args) / (Path(args.path).stem + ".canonical.json")
    write_path(target, canonical.model)
    report.info["model_file"] = str(target)


def _dualize_command(args, report, kind, obj, extras) -> None:
    if kind == "dca":
        _admit_dual_space(obj)
        result = dual_space(obj)
        report.extend(validate_dms(result.space).checks)
        model, suffix = result.space, ".dual.json"
    else:
        s2 = check_s2(obj)
        if not s2.holds:
            witness = plain(s2.witness)
            raise ValidationError(f"region family is not a Boolean subalgebra: S2 fails (witness {witness})")
        algebra = dual(obj)
        report.extend(algebra.dca.report.checks)
        model, suffix = algebra.dca, ".dual_algebra.json"
    target = _out_dir(args) / (Path(args.path).stem + suffix)
    write_path(target, model)
    report.info["model_file"] = str(target)


def _roundtrip_command(args, report, kind, obj, extras) -> None:
    if kind == "dca":
        _admit_dual_space(obj)
    report.extend(duality_roundtrip(obj).checks)


def _correspondence_command(args, report, kind, obj, extras) -> None:
    # Per kind: the correspondence table, the name of a row's check, and the
    # info columns with the row fields they show; a disagreeing row is
    # witnessed by its columns.  Built per call, so that the tables are
    # called through this module's names, which a tracer may rebind.
    table, name, columns = {
        "dmst": (
            correspondence_check,
            lambda c: f"{c.name} matches {c.region_axiom}",
            {"left": "left", "right": "right"},
        ),
        "dca": (
            correspondence2,
            lambda c: f"{c.name} three-way",
            {"ultrafilters": "on_ultrafilters", "clusters": "on_clusters", "regions": "on_regions"},
        ),
    }[kind]
    shown = attrgetter(*columns.values())
    report.info["rows"] = []
    for row in table(obj):
        values = shown(row)
        report.add(name(row.condition), row.agree, None if row.agree else values, getattr(row, "note", None))
        report.info["rows"].append({"condition": row.condition.name, **dict(zip(columns, values))})


def _generate_command(args) -> int:
    try:
        gen.check_size(args.kind, args.size, args.exhaustive)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _out_dir(args)
    if args.exhaustive:
        tagged = ((f"{i:04d}", obj) for i, obj in enumerate(gen.EXHAUSTIVE[args.kind](args.size)))
    else:
        tagged = [(f"seed{args.seed}", gen.SEEDED[args.kind](random.Random(args.seed), args.size))]
    written = []
    for tag, obj in tagged:
        target = out / f"{args.kind}_s{args.size}_{tag}.json"
        write_path(target, obj)
        written.append(str(target))
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
    """The `mereotime` parser; its `commands` table maps each command's name
    to the command's own parser."""
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
        p.set_defaults(command=name, handler=partial(_file_command, kinds, body))

    g = sub.add_parser("generate", help="generate model files")
    g.add_argument("--kind", required=True, choices=tuple(gen.SEEDED))
    g.add_argument("--size", required=True, type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--out", help=OUT_HELP)
    g.set_defaults(command="generate", handler=_generate_command)
    parser.commands = dict(sub.choices)
    return parser


# Parsing leaves the parser unchanged, so one parser serves every call of `main`.
PARSER = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` once: a known command's arguments by that command's own
    parser, anything else (no command, an unknown one, top-level options) by
    `PARSER`.  Arguments no parser knows are reported by `PARSER`, as its
    own parse of a command's arguments reports them."""
    parser = PARSER.commands.get(argv[0]) if argv else None
    if parser is None:
        return PARSER.parse_args(argv)
    args, unknown = parser.parse_known_args(argv[1:])
    if unknown:
        PARSER.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
