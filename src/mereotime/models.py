"""Kind-tagged JSON model files and their canonical serialization.

One structured-text format: UTF-8 JSON with an explicit kind tag and a
format version, written canonically (sorted keys, no spaces), so files diff
cleanly and serialization round-trips byte for byte.  Version 2, the one
written, stores a relation on `size` points as its successor rows, one
mask per point, and every member of a family of point sets (a closed
base, regions, a dca morphism's images) as one mask; a mask is a canonical
lowercase hex string ("0", "1d", never "01", "0x1d" or "1D").  The two
distinguished point sets of a `dms` file, `space_points` and
`time_points`, stay sorted index lists, and a `dms` morphism's map stays
one point index per point.  Version 1, still read, stores relations as
sorted pair arrays and every point set as a sorted index list.

Reading is strict: one reader per JSON shape (a size, a relation, a point
set), each index a JSON integer, not a boolean, below its declared size,
and each mask a string in canonical form below 2^size.
`schemas/modelfile.schema.json` is the one table of fields and types; a
file it refuses is refused here with the field named, and the fuzz gate in
`tests/test_fuzz.py` holds `decode` to it.
"""

from __future__ import annotations

import hashlib
import json
import re

from .boolean import FiniteBA, atoms_of
from .category import DcaMorphism, DmsMorphism
from .contact import PrecontactAlgebra, Relation
from .dca import DCA
from .dms import DMSpace, FiniteTopSpace
from .errors import MereotimeError, SchemaError, ValidationError
from .snapshot import DMST, FULL_REGION_CAP, TimeStructure, build_dmst, is_full

FORMAT_VERSION = 2
READ_VERSIONS = (1, 2)
KINDS = ("adjacency", "time_structure", "dca", "dmst", "dms", "morphism")
# Largest relation size a file may declare (adjacency and time-structure
# point_count, dca and coordinate atom_count), checked before anything is
# built.  Seconds, best of three, for whole `python -m mereotime.cli`
# processes on version 2 files: `check` of each kind of the total relation
# (all three total for a dca), and `represent` of that dca and of the chain
# (identity contacts, strict linear precedence); Python 3.11, 2-core Xeon:
#     size   KB/rel.   adjacency   time_structure    dca   represent   chain represent
#       64       1.3       0.12         0.11         0.12      0.12          0.11
#      128       4.5       0.12         0.11         0.13      0.16          0.14
#      256        17       0.12         0.15         0.17      0.36          0.24
#      512        67       0.17         0.31         0.41      1.33          0.73
#    1,024       265       0.41         1.03         1.53         -             -
# Rows written as pairs made reading the cost (`check` of a 512-size dca
# took 2.78 s from a 3 MB version 1 file); with rows, `check` and the chain
# stay under 1 s at 512, but the total dca's `represent` does not: 256.
RELATION_SIZE_CAP = 256
# Largest `point_count` a dms file may declare, and the most t-clans (points
# of the dual space) `points`, `dualize` and `roundtrip` of a dca file will
# list; checked before anything is built.  A version 2 file holds
# point_count rows of point_count/4 hex digits.  Seconds (best of three) and
# the largest peak MB for whole `python -m mereotime.cli` processes on the
# dual space of the trivial path algebra on n atoms (2^n - 1 points, total
# before-after; `check` stops at the closed-family cap) and, for `points`,
# on the algebra itself; Python 3.11 on a 2-core Xeon:
#     points       KB    check   roundtrip   dualize   points   peak MB
#        255       35     0.16      0.17       0.12     0.17       22
#        511      135     0.17      0.21       0.13     0.13       25
#      1,023      531     0.12      0.17       0.14     0.12       35
#      2,047    2,112     0.17      0.34       0.17     0.13       70
#      4,095    8,418     0.35      1.02       0.34     0.17      200
# Version 1 files, listing the pairs, took 3.87 s to round-trip at 1,023
# points (13.8 MB).  The bound admits the 2,047-point dual of the 11-atom
# trivial algebra and keeps every such process under 1 s; each doubling of
# the points quadruples the bytes to read.
SPACE_POINT_CAP = 2048
# Most regions a dms file may list, and the most regions (2^n for n atoms)
# `dualize` and `roundtrip` of a dca file will list for its dual space;
# checked with the t-clans, before anything is listed.  Seconds (best of
# three) and the larger peak MB for whole `python -m mereotime.cli`
# processes on the chain on n atoms (identity space and time contact,
# strict linear precedence: n t-clans); Python 3.11 on a 2-core Xeon:
#     atoms      regions   roundtrip   dualize   peak MB
#        16       65,536      0.28       0.36        40
#        17      131,072      0.35       0.41        59
#        18      262,144      0.42       0.45*       70
#        19      524,288      0.82       0.82*      144
#        20    1,048,576      1.35       1.45*      220
#        21    2,097,152      2.77       2.71*      516
# (* exits 1 at the closed-family bound.)  At 24 atoms both commands end in
# a MemoryError under a 1 GB address-space limit.  The bound keeps
# `roundtrip` of a chain under 1 s; the trivial algebras stop at the point
# bound (11 atoms) first.
SPACE_REGION_CAP = 1 << 19


# The one canonical encoder (sorted keys, no spaces) of files, digests and command
# reports.  Every payload is a tree, built here or parsed from JSON, so it skips the cycle check.
CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_dumps(payload: dict) -> str:
    return CANONICAL.encode(payload) + "\n"


def digest(payload: dict) -> str:
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def _hex(masks) -> list[str]:
    return [format(mask, "x") for mask in masks]


def encode(obj, claims=None) -> dict:
    """Model dictionary for any supported structure."""
    # A time structure is a Relation too: test it first.
    if isinstance(obj, TimeStructure):
        kind, body = "time_structure", {"point_count": obj.point_count, "prec": _hex(obj.rows)}
    elif isinstance(obj, Relation):
        kind, body = "adjacency", {"point_count": obj.size, "pairs": _hex(obj.rows)}
        if claims:
            body["claims"] = sorted(claims)
    elif isinstance(obj, DCA):
        kind, body = "dca", {
            "atom_count": obj.base.atom_count,
            "space_contact": _hex(obj.space_rel.rows),
            "time_contact": _hex(obj.time_rel.rows),
            "precedence": _hex(obj.prec_rel.rows),
        }
    elif isinstance(obj, DMST):
        kind, body = "dmst", {
            "time": {"point_count": obj.time.point_count, "prec": _hex(obj.time.rows)},
            "coordinates": [
                {"atom_count": c.base.atom_count, "contact": _hex(c.relation.rows)} for c in obj.coordinates
            ],
        }
        if is_full(obj):
            body["mode"] = "full"
        else:
            body["mode"] = "custom"
            body["regions"] = [_hex(region) for region in obj.regions]
    elif isinstance(obj, DMSpace):
        kind, body = "dms", {
            "point_count": obj.space.point_count,
            "closed_base": _hex(obj.space.closed_base),
            "space_points": list(atoms_of(obj.space_points)),
            "time_points": list(atoms_of(obj.time_points)),
            "prec": _hex(obj.prec.rows),
            "regions": _hex(obj.regions),
        }
    elif isinstance(obj, DcaMorphism):
        kind, body = "morphism", {
            "morphism_kind": "dca",
            "dom": encode(obj.dom),
            "cod": encode(obj.cod),
            "map": _hex(map(obj, obj.dom.base.elements())),
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


def _regions(payload: dict, bound: int) -> list:
    """The `regions` array, refused past `bound` entries before any is read."""
    listed = _field(payload, "regions", list)
    if len(listed) > bound:
        raise SchemaError(f"field 'regions' lists {len(listed)} regions, over the bound of {bound}")
    return listed


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


_HEX = re.compile("0|[1-9a-f][0-9a-f]*")


def _hex_masks(values: list, what: str, size: int) -> list[int]:
    """Masks below 2^size, entry i read from the canonical lowercase hex
    string `values[i]` of the field `what`.

    Each length is bounded before the string is matched or converted, so a
    long string costs no more than a short one.
    """
    width, masks = (size + 3) // 4, []
    for i, value in enumerate(values):
        if type(value) is str and len(value) <= width and _HEX.fullmatch(value):
            mask = int(value, 16)
            if not mask >> size:
                masks.append(mask)
                continue
        entry, shown = f"{what}[{i}]", json.dumps(value)
        if len(shown) > 40:
            shown = shown[:36] + "..."
        raise SchemaError(f"field {entry!r} holds {shown}, not a canonical hex mask below 2^{size}")
    return masks


def _index_mask(raw, what: str, size: int) -> int:
    """Mask of an index list, each index below `size`."""
    out = 0
    for i in _typed(raw, list, what):
        if type(i) is not int or not 0 <= i < size:
            _index(i, what, size)
        out |= 1 << i
    return out


def _masks(values: list, what: str, size: int, version: int) -> list[int]:
    """The point sets below 2^size listed in the field `what`: index lists
    in version 1, hex masks in version 2."""
    if version == 1:
        return [_index_mask(raw, what, size) for raw in values]
    return _hex_masks(values, what, size)


def _relation(payload: dict, key: str, size: int, version: int, where: str = "") -> Relation:
    """Relation on `size` points in field `key`: a pair array in version 1,
    its successor rows, one hex mask per point, in version 2."""
    what, raw = where + key, _field(payload, key, list, where)
    if version == 2:
        if len(raw) != size:
            raise SchemaError(f"field {what!r} has {len(raw)} entries, not one row per point ({size})")
        return Relation.from_rows(size, _hex_masks(raw, what, size))
    rows = [0] * size
    for pair in raw:
        if type(pair) is not list or len(pair) != 2:
            raise SchemaError(f"field {what!r} holds {json.dumps(pair)}, not a pair")
        x, y = pair
        if type(x) is not int or type(y) is not int or not (0 <= x < size and 0 <= y < size):
            _index(x, what, size)
            _index(y, what, size)
        rows[x] |= 1 << y
    return Relation.from_rows(size, rows)


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
    if version not in READ_VERSIONS:
        raise SchemaError(f"unsupported format_version {version!r}")
    extras: dict = {}

    if kind == "adjacency":
        size = _size(payload, "point_count")
        relation = _relation(payload, "pairs", size, version)
        claims = _typed(payload.get("claims", ["precontact"]), list, "claims")
        if not all(isinstance(claim, str) for claim in claims):
            raise SchemaError("field 'claims' must be an array of strings")
        extras["claims"] = claims
        return kind, relation, extras
    if kind == "time_structure":
        size = _size(payload, "point_count")
        return kind, TimeStructure.from_rows(size, _relation(payload, "prec", size, version).rows), extras
    if kind == "dca":
        n = _size(payload, "atom_count")
        relations = [_relation(payload, key, n, version) for key in ("space_contact", "time_contact", "precedence")]
        return kind, DCA(FiniteBA(n), *relations), extras
    if kind == "dmst":
        time_raw = _field(payload, "time", dict)
        moments = _size(time_raw, "point_count", "time.")
        ts = TimeStructure.from_rows(moments, _relation(time_raw, "prec", moments, version, "time.").rows)
        coordinates = []
        for i, coord in enumerate(_field(payload, "coordinates", list)):
            where = f"coordinates[{i}]."
            n = _size(_typed(coord, dict, f"coordinates[{i}]"), "atom_count", where)
            coordinates.append(PrecontactAlgebra(FiniteBA(n), _relation(coord, "contact", n, version, where)))
        mode = payload.get("mode", "full")
        regions = None
        if mode != "full" or "regions" in payload:
            listed = _regions(payload, FULL_REGION_CAP)
            widest = max((c.base.atom_count for c in coordinates), default=0)
            regions = [
                tuple(_masks(_typed(region, list, f"regions[{i}]"), f"regions[{i}]", widest, version))
                for i, region in enumerate(listed)
            ]
        try:
            model = build_dmst(ts, coordinates, mode=mode, regions=regions)
        except MereotimeError as exc:
            raise SchemaError(f"bad dmst payload: {exc}") from exc
        return kind, model, extras
    if kind == "dms":
        count = _size(payload, "point_count", bound=SPACE_POINT_CAP)
        base = tuple(sorted(_masks(_field(payload, "closed_base", list), "closed_base", count, version)))
        regions = tuple(sorted(_masks(_regions(payload, SPACE_REGION_CAP), "regions", count, version)))
        space = DMSpace(
            FiniteTopSpace(count, base),
            _index_mask(_require(payload, "space_points"), "space_points", count),
            _index_mask(_require(payload, "time_points"), "time_points", count),
            _relation(payload, "prec", count, version),
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
            table = tuple(_masks(raw_map, "map", cod.base.atom_count, version))
            return kind, DcaMorphism.from_table(dom, cod, table), extras
        point_map = tuple(_index(x, "map", cod.space.point_count) for x in raw_map)
        return kind, DmsMorphism(dom, cod, point_map), extras
    except ValidationError as exc:
        raise SchemaError(f"bad morphism payload: {exc}") from exc


def load_path(path) -> tuple[str, object, dict, dict]:
    """Parse a model file: kind, object, extras and the raw payload."""
    try:
        with open(path, encoding="utf-8") as file:
            payload = json.load(file)
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
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
