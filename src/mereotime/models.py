"""Kind-tagged JSON model files and their canonical serialization.

One structured-text format: UTF-8 JSON with an explicit kind tag and a
format version.  Relations are sorted pair arrays, sets are sorted index
arrays, so files diff cleanly and serialization round-trips byte for byte.

Reading is strict: one reader per JSON shape (a size, a pair array, an
index list), each index a JSON integer, not a boolean, below its declared
size.  `schemas/modelfile.schema.json` is the one table of fields and
types; a file it refuses is refused here with the field named, and the
fuzz gate in `tests/test_fuzz.py` holds `decode` to it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .boolean import FiniteBA, atoms_of
from .category import DcaMorphism, DmsMorphism
from .contact import PrecontactAlgebra, Relation
from .dca import DCA
from .dms import DMSpace, FiniteTopSpace
from .errors import MereotimeError, SchemaError, ValidationError
from .snapshot import DMST, FULL_REGION_CAP, TimeStructure, build_dmst, is_full

FORMAT_VERSION = 1
KINDS = ("adjacency", "time_structure", "dca", "dmst", "dms", "morphism")
# Largest relation size a file may declare (adjacency and time-structure
# point_count, dca and coordinate atom_count), checked before anything is
# built.  Seconds for a whole `python -m mereotime.cli check` process on the
# costliest file of a size, the total relation (all three total for a dca);
# best of three, Python 3.11 on a 2-core Xeon:
#     size   KB/rel.   adjacency   time_structure    dca
#       64        39       0.23         0.24         0.19
#      128       168       0.19         0.23         0.28
#      256       730       0.30         0.36         0.57
#      512     3,033       1.28         1.24         2.78
# The bound keeps every such check under 1 s.
RELATION_SIZE_CAP = 256
# Largest `point_count` a dms file may declare, checked before anything is
# built.  The file lists up to point_count^2 before-after pairs.  Seconds
# (best of three) and peak MB for a whole `python -m mereotime.cli` process
# on the dual space of the trivial path algebra on n atoms: 2^n - 1 points,
# total before-after; `check` stops at the closed-family cap.  Python 3.11
# on a 2-core Xeon:
#     points       KB    check   roundtrip   peak MB
#        127      175     0.60      0.26        41
#        255      789     0.59      0.34        50
#        511    3,344     1.19      0.98        97
#      1,023   13,844     4.04      3.87       328
# The bound admits the 1,023-point dual of the 10-atom trivial algebra; each
# doubling of the points quadruples the pairs to read.
SPACE_POINT_CAP = 1024


def canonical_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def digest(payload: dict) -> str:
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def _pairs(relation: Relation) -> list[list[int]]:
    return [[x, y] for x, row in enumerate(relation.rows) for y in atoms_of(row)]


def encode(obj, claims=None) -> dict:
    """Model dictionary for any supported structure."""
    # A time structure is a Relation too: test it first.
    if isinstance(obj, TimeStructure):
        kind, body = "time_structure", {"point_count": obj.point_count, "prec": _pairs(obj)}
    elif isinstance(obj, Relation):
        kind, body = "adjacency", {"point_count": obj.size, "pairs": _pairs(obj)}
        if claims:
            body["claims"] = sorted(claims)
    elif isinstance(obj, DCA):
        kind, body = "dca", {
            "atom_count": obj.base.atom_count,
            "space_contact": _pairs(obj.space_rel),
            "time_contact": _pairs(obj.time_rel),
            "precedence": _pairs(obj.prec_rel),
        }
    elif isinstance(obj, DMST):
        kind, body = "dmst", {
            "time": {"point_count": obj.time.point_count, "prec": _pairs(obj.time)},
            "coordinates": [
                {"atom_count": c.base.atom_count, "contact": _pairs(c.relation)} for c in obj.coordinates
            ],
        }
        if is_full(obj):
            body["mode"] = "full"
        else:
            body["mode"] = "custom"
            body["regions"] = [[list(atoms_of(x)) for x in region] for region in obj.regions]
    elif isinstance(obj, DMSpace):
        kind, body = "dms", {
            "point_count": obj.space.point_count,
            "closed_base": [list(atoms_of(b)) for b in obj.space.closed_base],
            "space_points": list(atoms_of(obj.space_points)),
            "time_points": list(atoms_of(obj.time_points)),
            "prec": _pairs(obj.prec),
            "regions": [list(atoms_of(a)) for a in obj.regions],
        }
    elif isinstance(obj, DcaMorphism):
        kind, body = "morphism", {
            "morphism_kind": "dca",
            "dom": encode(obj.dom),
            "cod": encode(obj.cod),
            "map": [list(atoms_of(obj(a))) for a in obj.dom.base.elements()],
        }
    elif isinstance(obj, DmsMorphism):
        kind, body = "morphism", {
            "morphism_kind": "dms",
            "dom": encode(obj.dom),
            "cod": encode(obj.cod),
            "map": list(obj.point_map),
        }
    else:
        raise SchemaError(f"cannot encode {type(obj).__name__}")
    return {"kind": kind, "format_version": FORMAT_VERSION, **body}


def _require(payload: dict, key: str):
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    return payload[key]


def _typed(value, expected: type, what: str):
    """`value` if it has the JSON type `expected` (int, dict or list)."""
    if isinstance(value, bool) or not isinstance(value, expected):
        noun = {int: "an integer", dict: "an object", list: "an array"}[expected]
        raise SchemaError(f"field {what!r} must be {noun}")
    return value


def _field(payload: dict, key: str, expected: type, where: str = ""):
    return _typed(_require(payload, key), expected, where + key)


def _size(payload: dict, key: str, where: str = "", bound: int = RELATION_SIZE_CAP) -> int:
    size = _field(payload, key, int, where)
    if size < 1:
        raise SchemaError(f"field {where + key!r} is {size}, below the minimum of 1")
    if size > bound:
        raise SchemaError(f"field {where + key!r} is {size}, over the size bound of {bound}")
    return size


def _index(value, what: str, size: int) -> int:
    """`value` if it is an index below `size`: a JSON integer, not a boolean.

    The readers of pair arrays and index lists apply the same test inline
    and call this only to name the failing value.
    """
    if type(value) is not int or not 0 <= value < size:
        raise SchemaError(f"field {what!r} holds {json.dumps(value)}, not an index below {size}")
    return value


def _relation(payload: dict, key: str, size: int, where: str = "") -> Relation:
    """Relation on `size` points read from a pair array."""
    what = where + key
    rows = [0] * size
    for pair in _field(payload, key, list, where):
        if type(pair) is not list or len(pair) != 2:
            raise SchemaError(f"field {what!r} holds {json.dumps(pair)}, not a pair")
        x, y = pair
        if type(x) is not int or type(y) is not int or not (0 <= x < size and 0 <= y < size):
            _index(x, what, size)
            _index(y, what, size)
        rows[x] |= 1 << y
    return Relation.from_rows(size, rows)


def _mask(raw, what: str, size: int) -> int:
    """Mask of an index list, each index below `size`."""
    out = 0
    for i in _typed(raw, list, what):
        if type(i) is not int or not 0 <= i < size:
            _index(i, what, size)
        out |= 1 << i
    return out


def decode(payload: dict):
    """Structure named by the payload's kind tag.

    Returns (kind, object, extras); extras carries optional fields such as
    an adjacency file's claims.  Every field is read to the types of
    `schemas/modelfile.schema.json`, and every index is also checked
    against its declared size, so the constructors below fail only where
    they decide something about the structure.
    """
    if not isinstance(payload, dict):
        raise SchemaError("model file must hold a JSON object")
    kind = _require(payload, "kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    version = _field(payload, "format_version", int)
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}")
    extras: dict = {}

    if kind == "adjacency":
        size = _size(payload, "point_count")
        relation = _relation(payload, "pairs", size)
        claims = _typed(payload.get("claims", ["precontact"]), list, "claims")
        if not all(isinstance(claim, str) for claim in claims):
            raise SchemaError("field 'claims' must be an array of strings")
        extras["claims"] = claims
        return kind, relation, extras
    if kind == "time_structure":
        size = _size(payload, "point_count")
        return kind, TimeStructure.from_rows(size, _relation(payload, "prec", size).rows), extras
    if kind == "dca":
        n = _size(payload, "atom_count")
        relations = [_relation(payload, key, n) for key in ("space_contact", "time_contact", "precedence")]
        return kind, DCA(FiniteBA(n), *relations), extras
    if kind == "dmst":
        time_raw = _field(payload, "time", dict)
        moments = _size(time_raw, "point_count", "time.")
        ts = TimeStructure.from_rows(moments, _relation(time_raw, "prec", moments, "time.").rows)
        coordinates = []
        for i, coord in enumerate(_field(payload, "coordinates", list)):
            where = f"coordinates[{i}]."
            n = _size(_typed(coord, dict, f"coordinates[{i}]"), "atom_count", where)
            coordinates.append(PrecontactAlgebra(FiniteBA(n), _relation(coord, "contact", n, where)))
        mode = payload.get("mode", "full")
        regions = None
        if mode != "full" or "regions" in payload:
            listed = _field(payload, "regions", list)
            if len(listed) > FULL_REGION_CAP:
                raise SchemaError(f"field 'regions' lists {len(listed)} regions, over the bound of {FULL_REGION_CAP}")
            widest = max((c.base.atom_count for c in coordinates), default=0)
            regions = [
                tuple(_mask(x, f"regions[{i}]", widest) for x in _typed(region, list, f"regions[{i}]"))
                for i, region in enumerate(listed)
            ]
        try:
            model = build_dmst(ts, coordinates, mode=mode, regions=regions)
        except MereotimeError as exc:
            raise SchemaError(f"bad dmst payload: {exc}") from exc
        return kind, model, extras
    if kind == "dms":
        count = _size(payload, "point_count", bound=SPACE_POINT_CAP)
        base = tuple(sorted(_mask(b, "closed_base", count) for b in _field(payload, "closed_base", list)))
        regions = tuple(sorted(_mask(a, "regions", count) for a in _field(payload, "regions", list)))
        space = DMSpace(
            FiniteTopSpace(count, base),
            _mask(_require(payload, "space_points"), "space_points", count),
            _mask(_require(payload, "time_points"), "time_points", count),
            _relation(payload, "prec", count),
            regions,
        )
        return kind, space, extras
    # kind == "morphism"
    morphism_kind = _require(payload, "morphism_kind")
    if morphism_kind not in ("dca", "dms"):
        raise SchemaError(f"unknown morphism_kind {morphism_kind!r}")
    ends = [decode(_require(payload, key)) for key in ("dom", "cod")]
    if any(end[0] != morphism_kind for end in ends):
        raise SchemaError(f"a {morphism_kind} morphism needs {morphism_kind} files as dom and cod")
    (_, dom, _), (_, cod, _) = ends
    raw_map = _field(payload, "map", list)
    try:
        if morphism_kind == "dca":
            table = tuple(_mask(entry, "map", cod.base.atom_count) for entry in raw_map)
            return kind, DcaMorphism.from_table(dom, cod, table), extras
        point_map = tuple(_index(x, "map", cod.space.point_count) for x in raw_map)
        return kind, DmsMorphism(dom, cod, point_map), extras
    except ValidationError as exc:
        raise SchemaError(f"bad morphism payload: {exc}") from exc


def load_path(path) -> tuple[str, object, dict, dict]:
    """Parse a model file: kind, object, extras and the raw payload."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        kind, obj, extras = decode(payload)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno}") from exc
    except ValueError as exc:
        # json.loads refuses integer literals past sys.get_int_max_str_digits().
        raise SchemaError(f"{path}: holds an integer too long to read") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply to read") from exc
    return kind, obj, extras, payload


def write_path(path, obj, claims=None) -> str:
    """Write a model's canonical text; return its digest, equal to `digest` of the payload."""
    text = canonical_dumps(encode(obj, claims=claims))
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
