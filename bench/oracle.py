"""Answers computed apart from the program, and the checks that use them.

Nothing here imports mereotime.  Every expected value comes from a
definition evaluated by enumeration over plain Python sets, or from a
counting property of the paper's constructions.  Each check takes plain
observations of the program's output and returns a list of failures, each
with a witness; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json

# The precontact axioms hold for every relation in atom normal form.
ALWAYS_TRUE = ("C1", "C2", "C3'", "C3''")
SPACE_AXIOMS = tuple(f"S{i}" for i in range(1, 9))


def digest(value) -> str:
    """Digest of a JSON-able value, equal exactly when the values are equal."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_reflexive(n: int, pairs) -> bool:
    return all((x, x) in pairs for x in range(n))


def is_symmetric(pairs) -> bool:
    return all((y, x) in pairs for x, y in pairs)


def is_transitive(pairs) -> bool:
    return all((x, z) in pairs for x, y in pairs for w, z in pairs if y == w)


def cliques(n: int, pairs) -> set[int]:
    """Nonempty atom sets whose distinct members are pairwise related, as masks."""
    out = set()
    for size in range(1, n + 1):
        for members in itertools.combinations(range(n), size):
            if all((x, y) in pairs for x in members for y in members if x != y):
                out.add(sum(1 << x for x in members))
    return out


def _time_conditions():
    return {
        "RS": lambda T, b: all(any(b(m, n) for n in T) for m in T),
        "LS": lambda T, b: all(any(b(n, m) for n in T) for m in T),
        "UP_DIR": lambda T, b: all(
            any(b(i, k) and b(j, k) for k in T) for i in T for j in T
        ),
        "DOWN_DIR": lambda T, b: all(
            any(b(k, i) and b(k, j) for k in T) for i in T for j in T
        ),
        "CIRC": lambda T, b: all(
            any(b(j, k) and b(k, i) for k in T) for i in T for j in T if b(i, j)
        ),
        "DENS": lambda T, b: all(
            any(b(i, k) and b(k, j) for k in T) for i in T for j in T if b(i, j)
        ),
        "REF": lambda T, b: all(b(m, m) for m in T),
        "IRR": lambda T, b: not any(b(m, m) for m in T),
        "LIN": lambda T, b: all(b(m, n) or b(n, m) for m in T for n in T),
        "TRI": lambda T, b: all(b(m, n) or b(n, m) for m in T for n in T if m != n),
        "TR": lambda T, b: all(
            b(i, k) for i in T for j in T for k in T if b(i, j) and b(j, k)
        ),
    }


TIME_CONDITIONS = _time_conditions()


def time_conditions(moments: int, prec) -> dict[str, bool]:
    """Truth of the eleven first-order time conditions on a finite structure."""
    prec = set(map(tuple, prec))
    moments_range = range(moments)
    before = lambda i, j: (i, j) in prec
    return {name: test(moments_range, before) for name, test in TIME_CONDITIONS.items()}


# -- library sweep ---------------------------------------------------------


def check_relation(n: int, pairs, verdicts: dict, canonical, clan_masks) -> list[str]:
    """Axiom verdicts, canonical relation and clans of one atom relation.

    C4 holds exactly when the relation is symmetric, C5 and C5' when it is
    reflexive, CE when it is transitive; the canonical relation gives back
    the relation; the clans, computed for contact relations only, are the
    nonempty cliques.
    """
    pairs = set(pairs)
    expected = dict.fromkeys(ALWAYS_TRUE, True)
    expected["C4"] = is_symmetric(pairs)
    expected["C5"] = expected["C5'"] = is_reflexive(n, pairs)
    expected["CE"] = is_transitive(pairs)
    out = [
        f"{name} reads {verdicts.get(name)!r}, expected {want} on {sorted(pairs)}"
        for name, want in expected.items()
        if verdicts.get(name) is not want
    ]
    if set(canonical) != pairs:
        out.append(f"canonical relation {sorted(canonical)} differs from {sorted(pairs)}")
    is_contact = expected["C4"] and expected["C5"]
    if is_contact != (clan_masks is not None):
        out.append(f"clans {'missing' if is_contact else 'computed'} for {sorted(pairs)}")
    elif is_contact and (len(clan_masks) != len(set(clan_masks)) or set(clan_masks) != cliques(n, pairs)):
        out.append(f"clans {sorted(clan_masks)} are not the cliques {sorted(cliques(n, pairs))}")
    return out


def check_correspondence(moments: int, prec, rows) -> list[str]:
    """Rows (name, condition side, axiom side) of a full model's table."""
    expected = time_conditions(moments, prec)
    out = []
    if sorted(name for name, _, _ in rows) != sorted(expected):
        out.append(f"rows {[name for name, _, _ in rows]} do not cover the eleven conditions")
    for name, left, right in rows:
        if left != expected.get(name):
            out.append(f"{name}: condition reads {left}, expected {expected.get(name)} on {sorted(prec)}")
        if right != left:
            out.append(f"{name}: axiom reads {right}, condition {left} on {sorted(prec)}")
    return out


def dual_counts(coordinates) -> dict[str, int]:
    """Counts for the algebra of a full model, from its coordinates alone.

    `coordinates` lists (atom count, contact pairs) per moment.  Clusters
    are the moments, t-clans the nonempty atom sets of one moment, s-clans
    the cliques of each coordinate's contact; the dual space has one point
    per t-clan and one region per element.
    """
    atoms = sum(k for k, _ in coordinates)
    t_clans = sum((1 << k) - 1 for k, _ in coordinates)
    return {
        "ultrafilters": atoms,
        "clusters": len(coordinates),
        "t_clans": t_clans,
        "s_clans": sum(len(cliques(k, set(map(tuple, p)))) for k, p in coordinates),
        "points": t_clans,
        "regions": 1 << atoms,
    }


def check_counts(observed: dict, expected: dict) -> list[str]:
    return [
        f"{key} reads {observed.get(key)!r}, expected {want}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


def check_representation(report_failures, counts: dict, coordinates) -> list[str]:
    """Topological representation of the algebra of a full model."""
    out = [f"representation check fails: {name}" for name in report_failures]
    expected = dual_counts(coordinates)
    return out + check_counts(counts, {k: expected[k] for k in counts})


# -- command line ----------------------------------------------------------


def check_exit(code, want: int, stderr: str) -> list[str]:
    if code != want:
        return [f"exit {code!r}, expected {want}: {stderr.strip()[-200:]}"]
    return []


def check_report(payload: dict, required=()) -> list[str]:
    """A JSON command report whose checks all hold and name `required`."""
    checks = payload.get("checks", [])
    names = {c.get("name") for c in checks}
    out = [
        f"check {c.get('name')} fails, witness {c.get('witness')!r}"
        for c in checks
        if c.get("holds") is not True
    ]
    out += [f"check {name} missing" for name in required if name not in names]
    if not checks:
        out.append("report carries no checks")
    if payload.get("ok") is not all(c.get("holds") is True for c in checks):
        out.append(f"ok reads {payload.get('ok')!r} against its checks")
    return out


def check_points(info: dict, coordinates, prec) -> list[str]:
    """Clan inventory of the algebra of a full model."""
    expected = dual_counts(coordinates)
    out = check_counts(
        info.get("counts", {}), {k: expected[k] for k in ("ultrafilters", "s_clans", "t_clans", "clusters")}
    )
    canonical = info.get("canonical_time", {})
    if canonical.get("point_count") != len(coordinates):
        out.append(f"canonical time has {canonical.get('point_count')} moments, expected {len(coordinates)}")
    else:
        out += _isomorphic_conditions(len(coordinates), canonical.get("prec", []), prec)
    return out


def _isomorphic_conditions(moments: int, observed_prec, prec) -> list[str]:
    """The conditions are invariant under isomorphism of time structures."""
    got = time_conditions(moments, observed_prec)
    want = time_conditions(moments, prec)
    return [f"canonical time: {k} reads {got[k]}, the model's time {want[k]}" for k in want if got[k] != want[k]]


def check_model_file(model: dict, coordinates) -> list[str]:
    """The canonical snapshot model written by `represent`."""
    out = []
    if model.get("kind") != "dmst" or model.get("mode") != "full":
        out.append(f"model file has kind {model.get('kind')!r}, mode {model.get('mode')!r}")
    sizes = sorted(c.get("atom_count") for c in model.get("coordinates", []))
    if sizes != sorted(k for k, _ in coordinates):
        out.append(f"coordinate sizes {sizes}, expected {sorted(k for k, _ in coordinates)}")
    if model.get("time", {}).get("point_count") != len(coordinates):
        out.append(f"model time has {model.get('time', {}).get('point_count')} moments")
    return out


def check_rows_dmst(rows, moments: int, prec) -> list[str]:
    return check_correspondence(moments, prec, [(r["condition"], r["left"], r["right"]) for r in rows])


def check_rows_dca(rows, moments: int, prec) -> list[str]:
    """The three readings agree, and the cluster reading matches the model's time."""
    expected = time_conditions(moments, prec)
    out = []
    if sorted(r["condition"] for r in rows) != sorted(k for k in expected if k != "IRR"):
        out.append(f"rows {[r['condition'] for r in rows]} do not cover the ten axioms")
    for r in rows:
        if not r["ultrafilters"] == r["clusters"] == r["regions"]:
            out.append(f"{r['condition']}: readings {r['ultrafilters']}, {r['clusters']}, {r['regions']} differ")
        if r["clusters"] != expected.get(r["condition"]):
            out.append(f"{r['condition']}: reads {r['clusters']}, the model's time gives {expected.get(r['condition'])}")
    return out


def check_dual_file(space: dict, coordinates) -> list[str]:
    """The dual space file written by `dualize`."""
    expected = dual_counts(coordinates)
    observed = {
        "points": space.get("point_count"),
        "regions": len(space.get("regions", [])),
        "s_clans": len(space.get("space_points", [])),
        "clusters": len(space.get("time_points", [])),
    }
    out = [] if space.get("kind") == "dms" else [f"dual file has kind {space.get('kind')!r}"]
    return out + check_counts(observed, {k: expected[k] for k in observed})


def check_space_info(info: dict) -> list[str]:
    return [f"dual space {key} reads {info.get(key)!r}" for key in ("T0", "DM_compact") if info.get(key) is not True]
