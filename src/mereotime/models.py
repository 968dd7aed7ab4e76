"""Kind-tagged JSON model files and their canonical serialization.

One structured-text format: UTF-8 JSON with an explicit kind tag and a
format version.  Relations are sorted pair arrays, sets are sorted index
arrays, so files diff cleanly and serialization round-trips byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .boolean import FiniteBA
from .category import DcaMorphism, DmsMorphism
from .contact import PrecontactAlgebra, Relation
from .dca import DCA
from .dms import DMSpace, FiniteTopSpace
from .errors import SchemaError
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


def _pairs(relation) -> list[list[int]]:
    return [list(p) for p in sorted(relation)]


def _mask_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def encode(obj, claims=None) -> dict:
    """Model dictionary for any supported structure."""
    if isinstance(obj, Relation):
        payload = {
            "kind": "adjacency",
            "format_version": FORMAT_VERSION,
            "point_count": obj.size,
            "pairs": _pairs(obj.pairs),
        }
        if claims:
            payload["claims"] = sorted(claims)
        return payload
    if isinstance(obj, TimeStructure):
        return {
            "kind": "time_structure",
            "format_version": FORMAT_VERSION,
            "point_count": obj.point_count,
            "prec": _pairs(obj.prec),
        }
    if isinstance(obj, DCA):
        return {
            "kind": "dca",
            "format_version": FORMAT_VERSION,
            "atom_count": obj.base.atom_count,
            "space_contact": _pairs(obj.space_rel.pairs),
            "time_contact": _pairs(obj.time_rel.pairs),
            "precedence": _pairs(obj.prec_rel.pairs),
        }
    if isinstance(obj, DMST):
        payload = {
            "kind": "dmst",
            "format_version": FORMAT_VERSION,
            "time": {"point_count": obj.time.point_count, "prec": _pairs(obj.time.prec)},
            "coordinates": [
                {"atom_count": c.base.atom_count, "contact": _pairs(c.relation.pairs)}
                for c in obj.coordinates
            ],
        }
        if is_full(obj):
            payload["mode"] = "full"
        else:
            payload["mode"] = "custom"
            payload["regions"] = [[_mask_list(x) for x in region] for region in obj.regions]
        return payload
    if isinstance(obj, DMSpace):
        return {
            "kind": "dms",
            "format_version": FORMAT_VERSION,
            "point_count": obj.space.point_count,
            "closed_base": [_mask_list(b) for b in obj.space.closed_base],
            "space_points": _mask_list(obj.space_points),
            "time_points": _mask_list(obj.time_points),
            "prec": _pairs(obj.prec.pairs),
            "regions": [_mask_list(a) for a in obj.regions],
        }
    if isinstance(obj, DcaMorphism):
        return {
            "kind": "morphism",
            "format_version": FORMAT_VERSION,
            "morphism_kind": "dca",
            "dom": encode(obj.dom),
            "cod": encode(obj.cod),
            "map": [_mask_list(obj(a)) for a in obj.dom.base.elements()],
        }
    if isinstance(obj, DmsMorphism):
        return {
            "kind": "morphism",
            "format_version": FORMAT_VERSION,
            "morphism_kind": "dms",
            "dom": encode(obj.dom),
            "cod": encode(obj.cod),
            "map": list(obj.point_map),
        }
    raise SchemaError(f"cannot encode {type(obj).__name__}")


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


def _int_pairs(raw, what: str) -> frozenset[tuple[int, int]]:
    try:
        pairs = frozenset((int(x), int(y)) for x, y in raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be an array of index pairs") from exc
    return pairs


def _mask(raw, what: str, size: int) -> int:
    out = 0
    try:
        for i in map(int, raw):
            if not 0 <= i < size:
                raise SchemaError(f"field {what!r} holds index {i}, out of range for size {size}")
            out |= 1 << i
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be an array of indices") from exc
    return out


def decode(payload: dict):
    """Structure named by the payload's kind tag.

    Returns (kind, object, extras); extras carries optional fields such as
    an adjacency file's claims.
    """
    if not isinstance(payload, dict):
        raise SchemaError("model file must hold a JSON object")
    kind = _require(payload, "kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    version = _require(payload, "format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version!r}")
    extras: dict = {}

    if kind == "adjacency":
        size = _size(payload, "point_count")
        pairs = _int_pairs(_require(payload, "pairs"), "pairs")
        claims = _typed(payload.get("claims", ["precontact"]), list, "claims")
        if not all(isinstance(claim, str) for claim in claims):
            raise SchemaError("field 'claims' must be an array of strings")
        extras["claims"] = claims
        return kind, _checked(Relation, size, pairs), extras
    if kind == "time_structure":
        size = _size(payload, "point_count")
        prec = _int_pairs(_require(payload, "prec"), "prec")
        return kind, _checked(TimeStructure, size, prec), extras
    if kind == "dca":
        n = _size(payload, "atom_count")
        try:
            keys = ("space_contact", "time_contact", "precedence")
            pairs = [_int_pairs(_require(payload, key), key) for key in keys]
            obj = DCA(FiniteBA(n), *(Relation(n, p) for p in pairs))
        except Exception as exc:
            raise SchemaError(f"bad dca payload: {exc}") from exc
        return kind, obj, extras
    if kind == "dmst":
        time_raw = _field(payload, "time", dict)
        ts = _checked(
            TimeStructure,
            _size(time_raw, "point_count", "time."),
            _int_pairs(_require(time_raw, "prec"), "time.prec"),
        )
        coordinates = []
        for i, coord in enumerate(_field(payload, "coordinates", list)):
            n = _size(_typed(coord, dict, f"coordinates[{i}]"), "atom_count", f"coordinates[{i}].")
            pairs = _int_pairs(_require(coord, "contact"), "contact")
            coordinates.append(
                PrecontactAlgebra(FiniteBA(n), _checked(Relation, n, pairs))
            )
        mode = payload.get("mode", "full")
        regions = None
        if mode != "full":
            listed = _field(payload, "regions", list)
            if len(listed) > FULL_REGION_CAP:
                raise SchemaError(f"field 'regions' lists {len(listed)} regions, over the bound of {FULL_REGION_CAP}")
            widest = max((c.base.atom_count for c in coordinates), default=0)
            regions = [
                tuple(_mask(x, "region coordinate", widest) for x in _typed(region, list, f"regions[{i}]"))
                for i, region in enumerate(listed)
            ]
        try:
            model = build_dmst(ts, coordinates, mode=mode, regions=regions)
        except Exception as exc:
            raise SchemaError(f"bad dmst payload: {exc}") from exc
        return kind, model, extras
    if kind == "dms":
        count = _size(payload, "point_count", bound=SPACE_POINT_CAP)
        base = tuple(sorted(_mask(b, "closed_base", count) for b in _field(payload, "closed_base", list)))
        regions = tuple(sorted(_mask(a, "regions", count) for a in _field(payload, "regions", list)))
        try:
            space = DMSpace(
                FiniteTopSpace(count, base),
                _mask(_require(payload, "space_points"), "space_points", count),
                _mask(_require(payload, "time_points"), "time_points", count),
                Relation(count, _int_pairs(_require(payload, "prec"), "prec")),
                regions,
            )
        except Exception as exc:
            raise SchemaError(f"bad dms payload: {exc}") from exc
        return kind, space, extras
    if kind == "morphism":
        morphism_kind = _require(payload, "morphism_kind")
        _, dom, _ = decode(_require(payload, "dom"))
        _, cod, _ = decode(_require(payload, "cod"))
        raw_map = _require(payload, "map")
        try:
            if morphism_kind == "dca":
                table = tuple(_mask(entry, "map entry", cod.base.atom_count) for entry in raw_map)
                return kind, DcaMorphism.from_table(dom, cod, table), extras
            if morphism_kind == "dms":
                return kind, DmsMorphism(dom, cod, tuple(int(x) for x in raw_map)), extras
        except Exception as exc:
            raise SchemaError(f"bad morphism payload: {exc}") from exc
        raise SchemaError(f"unknown morphism_kind {morphism_kind!r}")
    raise SchemaError(f"unhandled kind {kind!r}")  # pragma: no cover


def _checked(cls, size, pairs):
    try:
        return cls(size, pairs)
    except Exception as exc:
        raise SchemaError(f"bad {cls.__name__.lower()} payload: {exc}") from exc


def load_path(path) -> tuple[str, object, dict, dict]:
    """Parse a model file: kind, object, extras and the raw payload."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        kind, obj, extras = decode(payload)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply to read") from exc
    return kind, obj, extras, payload


def write_path(path, obj, claims=None) -> str:
    """Write a model's canonical text; return its digest, equal to `digest` of the payload."""
    text = canonical_dumps(encode(obj, claims=claims))
    Path(path).write_text(text, encoding="utf-8")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
