"""Shared fixtures and slow reference oracles.

The slow oracles re-state definitions as direct quantifier loops,
independent of the packed-table implementations they check.  The
element-level evaluators below them decide the same axioms by exhaustive
evaluation on every element pair; the atom-level decisions of `contact`,
`dca`, `snapshot`, `category` and `dms` are tested against them, verdict
and witness.  The per-condition oracles decide one time condition or one
region time axiom at a time, as the package did before it decided all of
them in one pass per frame.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import pytest

from mereotime.boolean import (
    FiniteBA,
    Grill,
    additive,
    atoms_of,
    mask_of,
    meeting,
)
from mereotime.contact import (
    CONTACT_AXIOMS,
    PRECONTACT_AXIOMS,
    Clan,
    FactorAlgebra,
    PrecontactAlgebra,
    Relation,
    _first_missing,
    _included,
    clans,
)
from mereotime.category import DcaMorphism, DmsMorphism, compose, lower, raise_
from mereotime.dca import DCA, ClanStructure, canonical_standard_dca, clan_structure, standard_dca, validate_dca
from mereotime.dms import DMSpace, FiniteTopSpace, classify, dual, dual_space
from mereotime.errors import CapabilityError, DimensionMismatch, PreconditionError, ValidationError
from mereotime.models import canonical_dumps
from mereotime.reporting import Check, Report
from mereotime.snapshot import (
    DCA_TIME_AXIOMS,
    DMST,
    FREE_VARIABLE_AXIOMS,
    TimeCondition,
    TimeStructure,
    build_dmst,
    is_full,
    time_axiom_holds,
)
from mereotime import generate as gen


# -- slow reference checks ------------------------------------------------


def slow_c1(base, rel):
    return all(not rel(a, b) or (a != 0 and b != 0) for a in base.elements() for b in base.elements())


def slow_c2(base, rel):
    for a in base.elements():
        for b in base.elements():
            if not rel(a, b):
                continue
            for a2 in base.elements():
                for b2 in base.elements():
                    if base.leq(a, a2) and base.leq(b, b2) and not rel(a2, b2):
                        return False
    return True


def slow_c3_left(base, rel):
    return all(
        not rel(a, b | c) or rel(a, b) or rel(a, c)
        for a in base.elements()
        for b in base.elements()
        for c in base.elements()
    )


def slow_c3_right(base, rel):
    return all(
        not rel(a | b, c) or rel(a, c) or rel(b, c)
        for a in base.elements()
        for b in base.elements()
        for c in base.elements()
    )


def slow_c4(base, rel):
    return all(not rel(a, b) or rel(b, a) for a in base.elements() for b in base.elements())


def slow_c5(base, rel):
    return all(not a & b or rel(a, b) for a in base.elements() for b in base.elements())


def slow_ce(base, rel):
    for a in base.elements():
        for b in base.elements():
            if rel(a, b):
                continue
            if not any(
                not rel(a, c) and not rel(base.one ^ c, b) for c in base.elements()
            ):
                return False
    return True


def slow_interpolation(base, premise, left, right):
    return all(
        slow_interpolation_at(base, premise, left, right, a, b)
        for a in base.elements()
        for b in base.elements()
    )


def slow_interpolation_at(base, premise, left, right, a, b):
    """The interpolation axiom at one element pair."""
    return premise(a, b) or any(
        not left(a, c) and not right(base.one ^ c, b) for c in base.elements()
    )


def brute_clans(algebra: PrecontactAlgebra) -> list[int]:
    """Nonempty cliques of the atom relation, by direct subset filtering."""
    n = algebra.base.atom_count
    out = []
    for support in range(1, 1 << n):
        atoms = [i for i in range(n) if support >> i & 1]
        if all((x, y) in algebra.relation.pairs for x in atoms for y in atoms):
            out.append(support)
    return sorted(out, key=lambda m: [i for i in range(n) if m >> i & 1])


def clan_precedence(d) -> frozenset[tuple[int, int]]:
    """Clan precedence from its ultrafilter definition: the pairs of t-clans,
    by support, where every atom of the left precedes every atom of the right."""
    t_clans = brute_clans(d.ct_algebra)
    return frozenset(
        (left, right)
        for left in t_clans
        for right in t_clans
        if all((x, y) in d.prec_rel.pairs for x in atoms_of(left) for y in atoms_of(right))
    )


def submasks(mask: int):
    """All submasks of `mask` including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def is_filter_members(base, members) -> bool:
    """The filter laws: holds 1, upward closed and closed under meets."""
    members = set(members)
    return (
        base.one in members
        and all(b in members for a in members for b in base.elements() if base.leq(a, b))
        and all(a & b in members for a in members for b in members)
    )


def is_ideal_members(base, members) -> bool:
    """The ideal laws: holds 0, downward closed and closed under joins."""
    members = set(members)
    return (
        0 in members
        and all(b in members for a in members for b in base.elements() if base.leq(b, a))
        and all(a | b in members for a in members for b in members)
    )


def is_grill_members(base, members) -> bool:
    members = set(members)
    if base.one not in members or 0 in members:
        return False
    for a in members:
        for b in base.elements():
            if base.leq(a, b) and b not in members:
                return False
    for a in base.elements():
        for b in base.elements():
            if (a | b) in members and a not in members and b not in members:
                return False
    return True


def all_atom_relations(n):
    cells = list(itertools.product(range(n), repeat=2))
    for bits in range(1 << len(cells)):
        yield Relation(n, frozenset(c for i, c in enumerate(cells) if bits >> i & 1))


# -- pair-set references for the row kernels of `Relation` ------------------


def pair_sets(n):
    """Every pair set on `n` points, as frozensets."""
    cells = list(itertools.product(range(n), repeat=2))
    for bits in range(1 << len(cells)):
        yield frozenset(c for i, c in enumerate(cells) if bits >> i & 1)


def row_kernel_sample():
    """(size, pairs) for every relation on up to 3 points and 200 seeded ones on 4."""
    for n in (1, 2, 3):
        yield from ((n, pairs) for pairs in pair_sets(n))
    cells = list(itertools.product(range(4), repeat=2))
    for bits in random.Random(10).sample(range(1 << 16), 200):
        yield 4, frozenset(c for i, c in enumerate(cells) if bits >> i & 1)


def pair_compose(left, right) -> frozenset:
    return frozenset((x, z) for x, y in left for w, z in right if y == w)


def pair_converse(pairs) -> frozenset:
    return frozenset((y, x) for x, y in pairs)


def pair_image(pairs, a: int) -> int:
    """Mask of the successors of the points in the mask `a`."""
    return mask_of({y for x, y in pairs if a >> x & 1})


def pair_inclusion_witness(left, right):
    """The smallest pair of `left` missing from `right`, as singleton masks."""
    missing = set(left) - set(right)
    if not missing:
        return None
    x, y = min(missing)
    return 1 << x, 1 << y


def inclusion_check(name: str, left: Relation, right: Relation) -> Check:
    """left <= right on atom relations of one size, decided on their rows as
    the DCA interaction axioms are (`contact._included`)."""
    if left.size != right.size:
        raise DimensionMismatch(f"compared relations have sizes {left.size} and {right.size}")
    return _included(name, left.rows, right.rows)


def pair_properties(n, pairs) -> dict[str, bool]:
    out = {
        "reflexive": all((i, i) in pairs for i in range(n)),
        "symmetric": pairs == pair_converse(pairs),
        "transitive": pair_compose(pairs, pairs) <= pairs,
    }
    out["equivalence"] = all(out.values())
    return out


def element_time_condition(ts: TimeStructure, cond: TimeCondition) -> Check:
    """Decide one time condition by pair lookups, with the smallest witness."""
    t, prec = range(ts.point_count), ts.prec
    before = lambda i, j: (i, j) in prec
    name = cond.name

    def fail(*witness):
        return Check(name, False, witness=tuple(witness))

    if cond is TimeCondition.RS:
        for m in t:
            if not any(before(m, n) for n in t):
                return fail(m)
    elif cond is TimeCondition.LS:
        for m in t:
            if not any(before(n, m) for n in t):
                return fail(m)
    elif cond is TimeCondition.UP_DIR:
        for i, j in itertools.product(t, t):
            if not any(before(i, k) and before(j, k) for k in t):
                return fail(i, j)
    elif cond is TimeCondition.DOWN_DIR:
        for i, j in itertools.product(t, t):
            if not any(before(k, i) and before(k, j) for k in t):
                return fail(i, j)
    elif cond is TimeCondition.CIRC:
        for i, j in itertools.product(t, t):
            if before(i, j) and not any(before(j, k) and before(k, i) for k in t):
                return fail(i, j)
    elif cond is TimeCondition.DENS:
        for i, j in itertools.product(t, t):
            if before(i, j) and not any(before(i, k) and before(k, j) for k in t):
                return fail(i, j)
    elif cond is TimeCondition.REF:
        for m in t:
            if not before(m, m):
                return fail(m)
    elif cond is TimeCondition.IRR:
        for m in t:
            if before(m, m):
                return fail(m)
    elif cond is TimeCondition.LIN:
        for m, n in itertools.product(t, t):
            if not before(m, n) and not before(n, m):
                return fail(m, n)
    elif cond is TimeCondition.TRI:
        for m, n in itertools.product(t, t):
            if m != n and not before(m, n) and not before(n, m):
                return fail(m, n)
    elif cond is TimeCondition.TR:
        for i, j, k in itertools.product(t, t, t):
            if before(i, j) and before(j, k) and not before(i, k):
                return fail(i, j, k)
    return Check(name, True)


# -- per-condition oracles for the one-pass time evaluators ----------------


def condition_failure(cond: TimeCondition, relation: Relation):
    """First failing instance of one time condition, as moments, in
    lexicographic order; O(t^2) word operations on the relation's rows."""
    rows, cols = relation.rows, relation.columns
    t = range(relation.size)
    pairs = itertools.product(t, t)
    if cond is TimeCondition.RS:
        failing = ((m,) for m in t if not rows[m])
    elif cond is TimeCondition.LS:
        failing = ((m,) for m in t if not cols[m])
    elif cond is TimeCondition.UP_DIR:
        failing = ((i, j) for i, j in pairs if not rows[i] & rows[j])
    elif cond is TimeCondition.DOWN_DIR:
        failing = ((i, j) for i, j in pairs if not cols[i] & cols[j])
    elif cond is TimeCondition.CIRC:
        failing = ((i, j) for i, j in pairs if rows[i] >> j & 1 and not rows[j] & cols[i])
    elif cond is TimeCondition.DENS:
        failing = ((i, j) for i, j in pairs if rows[i] >> j & 1 and not rows[i] & cols[j])
    elif cond is TimeCondition.REF:
        failing = ((m,) for m in t if not rows[m] >> m & 1)
    elif cond is TimeCondition.IRR:
        failing = ((m,) for m in t if rows[m] >> m & 1)
    elif cond in (TimeCondition.LIN, TimeCondition.TRI):
        full = (1 << relation.size) - 1
        for m in t:
            exempt = 1 << m if cond is TimeCondition.TRI else 0
            unrelated = full & ~(rows[m] | cols[m] | exempt)
            if unrelated:
                return m, _lowest(unrelated)
        return None
    elif cond is TimeCondition.TR:
        for i in t:
            for j in atoms_of(rows[i]):
                if rows[j] & ~rows[i]:
                    return i, j, _lowest(rows[j] & ~rows[i])
        return None
    else:  # pragma: no cover
        raise ValueError(f"unknown condition {cond}")
    return next(failing, None)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def atom_frame(source) -> tuple[Relation, Relation]:
    """Time contact and precedence of the atoms of a DCA or a snapshot model."""
    if isinstance(source, DMST):
        return source.atom_relations
    return source.time_rel, source.prec_rel


def atom_failure(cond: TimeCondition, existential_p: bool, time: Relation, prec: Relation):
    """First failing instance of one region axiom on an atom frame, as atom
    masks, by one scan of the atom pairs in lexicographic order."""
    t_rows, p_rows, p_cols = time.rows, prec.rows, prec.columns
    atoms = range(len(p_rows))
    pairs = itertools.product(atoms, atoms)
    if cond in (TimeCondition.RS, TimeCondition.LS, TimeCondition.LIN):
        moments = condition_failure(cond, prec)
        return moments and tuple(1 << x for x in moments)
    if cond is TimeCondition.REF:
        return _first_missing(t_rows, p_rows)
    if cond is TimeCondition.TR:
        return _first_missing(map(prec.forward_image, p_rows), p_rows)
    if cond in FREE_VARIABLE_AXIOMS:
        # For every p (for some p, existentially) one of two precedence
        # facts holds: on atoms x, y in scope the rows `left` and `right`
        # meet (one is nonempty), and the first p to fail is `right`.
        if cond is TimeCondition.UP_DIR:
            cases = ((x, y, p_rows[x], p_rows[y]) for x, y in pairs)
        elif cond is TimeCondition.DOWN_DIR:
            cases = ((x, y, p_cols[x], p_cols[y]) for x, y in pairs)
        elif cond is TimeCondition.CIRC:
            cases = ((x, y, p_rows[y], p_cols[x]) for x, y in pairs if p_rows[x] >> y & 1)
        else:
            cases = ((x, y, p_rows[x], p_cols[y]) for x, y in pairs if p_rows[x] >> y & 1)
        for x, y, left, right in cases:
            if existential_p and not (left or right):
                return 1 << x, 1 << y
            if not existential_p and not left & right:
                return 1 << x, 1 << y, right
        return None
    if cond is TimeCondition.IRR:
        failing = (
            (x, y)
            for x, y in pairs
            if p_rows[x] >> y & 1
            and not any(t_rows[y] & ~t_rows[z] for z in atoms_of(t_rows[x]))
        )
    elif cond is TimeCondition.TRI:
        failing = (
            (x, y) for x, y in pairs if not (t_rows[x] >> y | p_rows[x] >> y | p_cols[x] >> y) & 1
        )
    else:  # pragma: no cover
        raise ValueError(f"unknown axiom {cond}")
    return next(((1 << x, 1 << y) for x, y in failing), None)


def path_snapshot_dca(sizes):
    """Algebra of the full model over a chain of moments, one path-contact
    coordinate of the given atom count per moment."""
    coordinates = [
        PrecontactAlgebra.from_atom_pairs(
            FiniteBA(k), {(i, j) for i in range(k) for j in range(k) if abs(i - j) <= 1}
        )
        for k in sizes
    ]
    time = TimeStructure.of(len(sizes), {(i, i + 1) for i in range(len(sizes) - 1)})
    return standard_dca(build_dmst(time, coordinates, mode="full"))


# -- element-level evaluators ---------------------------------------------


def element_rows(base, rel) -> list[int]:
    """Element-level relation as bitmask rows: bit b of rows[a] means rel(a,b)."""
    out = []
    for a in base.elements():
        row = 0
        for b in base.elements():
            if rel(a, b):
                row |= 1 << b
        out.append(row)
    return out


def _transpose_rows(base, rows) -> list[int]:
    cols = [0] * base.size
    for a, row in enumerate(rows):
        for b in atoms_of(row):
            cols[b] |= 1 << a
    return cols


def _star_columns(base, rows) -> list[int]:
    """Bit c of result[b] means rel(c*, b)."""
    one = base.one
    cols = [0] * base.size
    for c in base.elements():
        for b in atoms_of(rows[one ^ c]):
            cols[b] |= 1 << c
    return cols


def interpolation_check(base, name, premise, left, right) -> Check:
    """Check: not premise(a,b) implies some c with not left(a,c), not right(c*,b).

    This is the shared shape of the Efremovich axiom, the compositional
    axioms and the DCA interaction axioms, evaluated on every element pair;
    the witness is the first failing pair (a, b) in ascending order.
    """
    premise_rows = element_rows(base, premise)
    left_rows = element_rows(base, left)
    right_star_cols = _star_columns(base, element_rows(base, right))
    everything = (1 << base.size) - 1
    for a in base.elements():
        for b in atoms_of(~premise_rows[a] & everything):
            if ~left_rows[a] & ~right_star_cols[b] & everything == 0:
                return Check(name, False, witness=(a, b))
    return Check(name, True)


def satisfies_cluster_condition(algebra: PrecontactAlgebra, clan: Clan) -> bool:
    """Direct check: every element outside the clan misses some member."""
    for a in algebra.base.elements():
        if clan.contains(a):
            continue
        if not any(
            clan.contains(b) and not algebra.related(a, b) for b in algebra.base.elements()
        ):
            return False
    return True


def element_precontact_checks(base, rows) -> list[Check]:
    """C1, C2, C3' and C3'' of the element relation with these rows, from the
    slow oracles.  Their inputs here are atom-generated, so every check holds
    and none needs a witness.  Cached by the rows: the sweeps draw their
    relations from a few hundred atom relations."""
    return list(_slow_precontact(base.atom_count, tuple(rows)))


@lru_cache(maxsize=None)
def _slow_precontact(n, rows) -> tuple[Check, ...]:
    base = FiniteBA(n)
    rel = lambda a, b: bool(rows[a] >> b & 1)
    oracles = (slow_c1, slow_c2, slow_c3_left, slow_c3_right)
    return tuple(Check(name, oracle(base, rel)) for name, oracle in zip(PRECONTACT_AXIOMS, oracles))


def element_axiom_checks(base, rel) -> list[Check]:
    """C1, C2, C3', C3'', C4, C5, C5' and CE of `rel`, over all elements."""
    rows = element_rows(base, rel)
    out = element_precontact_checks(base, rows)
    cols = _transpose_rows(base, rows)
    witness = next(
        ((a, next(atoms_of(rows[a] & ~cols[a]))) for a in base.elements() if rows[a] & ~cols[a]),
        None,
    )
    out.append(Check("C4", witness is None, witness))
    witness = next(
        ((a, b) for a in base.elements() for b in base.elements() if a & b and not rows[a] >> b & 1),
        None,
    )
    out.append(Check("C5", witness is None, witness))
    witness = next(((a,) for a in base.nonzero_elements() if not rows[a] >> a & 1), None)
    out.append(Check("C5'", witness is None, witness))
    out.append(interpolation_check(base, "CE", rel, rel, rel))
    return out


def element_canonical(base, rel) -> Relation:
    """Atom pairs (x,y) such that every a containing x relates to every b containing y."""
    n = base.atom_count
    pairs = set()
    for x in range(n):
        for y in range(n):
            if all(
                rel((1 << x) | extra_a, (1 << y) | extra_b)
                for extra_a in submasks(base.one ^ (1 << x))
                for extra_b in submasks(base.one ^ (1 << y))
            ):
                pairs.add((x, y))
    return Relation(n, frozenset(pairs))


def element_validate_dca(d) -> Report:
    """Every defining axiom of a dynamic contact algebra, over all elements."""
    report = Report(subject="dynamic contact algebra")
    base = d.base
    for prefix, rel, names in (
        ("Cs", d.space_contact, CONTACT_AXIOMS),
        ("Ct", d.time_contact, CONTACT_AXIOMS),
    ):
        for check in element_axiom_checks(base, rel):
            if check.name in names:
                report.add(f"{prefix}:{check.name}", check.holds, check.witness)
    witness = next(
        (
            (a, b)
            for a in base.elements()
            for b in base.elements()
            if d.space_contact(a, b) and not d.time_contact(a, b)
        ),
        None,
    )
    report.add("Cs<=Ct", witness is None, witness)
    cte = interpolation_check(base, "CtE", d.time_contact, d.time_contact, d.time_contact)
    report.extend([cte])
    for check in element_precontact_checks(base, element_rows(base, d.precedes)):
        report.add(f"B:{check.name}", check.holds, check.witness)
    report.extend(
        [
            interpolation_check(base, "CtB", d.precedes, d.time_contact, d.precedes),
            interpolation_check(base, "BCt", d.precedes, d.precedes, d.time_contact),
        ]
    )
    return report


def embedding_refutations(d) -> dict:
    """The checks of the snapshot representation that carry a witness, each
    as the predicate on elements that a failing instance satisfies."""
    d.require_valid()
    canonical = canonical_standard_dca(d)
    model, base, factors = canonical.model, d.base, canonical.factors
    h = {a: canonical.embed(a) for a in base.elements()}

    def middle_cs(a, b):
        return any(f.algebra.related(f.project(a), f.project(b)) for f in factors)

    def middle_ct(a, b):
        return any(f.project(a) != 0 and f.project(b) != 0 for f in factors)

    def middle_b(a, b):
        return any(
            factors[i].project(a) != 0 and factors[j].project(b) != 0
            for (i, j) in canonical.time.structure.prec
        )

    def respected(left_rel, middle, right_rel):
        return lambda a, b: not (left_rel(a, b) == middle(a, b) == right_rel(h[a], h[b]))

    return {
        "h preserves join and meet": lambda a, b: (
            h[a | b] != model.join(h[a], h[b]) or h[a & b] != model.meet(h[a], h[b])
        ),
        "h preserves complement": lambda a: h[base.one ^ a] != model.compl(h[a]),
        "h injective": lambda a, b: a != b and h[a] == h[b],
        "Cs respected": respected(d.space_contact, middle_cs, model.space_contact),
        "Ct respected": respected(d.time_contact, middle_ct, model.time_contact),
        "B respected": respected(d.precedes, middle_b, model.precedes),
        "order respected": lambda a, b: (
            base.leq(a, b) != all(x & ~y == 0 for x, y in zip(h[a], h[b]))
        ),
    }


def element_verify_embedding(d) -> Report:
    """The snapshot representation of `d`, checked on every element pair."""
    refutations = embedding_refutations(d)
    canonical = canonical_standard_dca(d)
    model = canonical.model
    base = d.base
    pairs = list(itertools.product(base.elements(), repeat=2))

    report = Report(subject="snapshot representation")
    report.add("h(0)=0", canonical.embed(0) == model.zero)
    report.add("h(1)=1", canonical.embed(base.one) == model.one)
    for name, refutes in refutations.items():
        instances = [(a,) for a in base.elements()] if name == "h preserves complement" else pairs
        witness = next((w for w in instances if refutes(*w)), None)
        report.add(name, witness is None, witness)
    for cond in DCA_TIME_AXIOMS:
        report.add(
            f"time axiom {cond.region_axiom} preserved",
            element_time_axiom(d, cond).holds == element_time_axiom(model, cond).holds,
        )
    return report


def rc_relations(space: DMSpace) -> dict:
    """Time contact, space contact and precedence of the regular-sets
    algebra of a space, on arbitrary point sets."""
    return {
        "Ct": lambda a, b: bool(a & b),
        "Cs": lambda a, b: bool(a & b & space.space_points),
        "B": lambda a, b: bool(space.prec.forward_image(a) & b),
    }


def element_carrier(source):
    """Elements, complement, nonzero test, time contact and precedence of a
    dynamic algebra, a snapshot model, or the RC algebra of a space."""
    if isinstance(source, DMST):
        prec = source.time.prec
        return (
            source.regions,
            source.compl,
            source.is_nonzero,
            lambda a, b: any(x and y for x, y in zip(a, b)),
            lambda a, b: any(a[m] and b[n] for m, n in prec),
        )
    if isinstance(source, DMSpace):
        rc, rel = ElementRC(source.space), rc_relations(source)
        return rc.carrier, rc.compl, bool, rel["Ct"], rel["B"]
    one = source.base.one
    return list(source.base.elements()), lambda a: one ^ a, bool, source.time_contact, source.precedes


class AxiomView:
    """Indexed tables for evaluating the region-level time axioms.

    Works over any finite Boolean carrier: the caller supplies the element
    list (canonical order), complement, nonzero test and the time-contact and
    precedence relations.  Rows are packed into int bitmasks so the heavily
    quantified axioms reduce to word operations.
    """

    def __init__(self, elements, star, is_nonzero, time_contact, precedes):
        self.elements = list(elements)
        count = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        self.index = index
        self.ones = (1 << count) - 1
        self.star_index = [index[star(e)] for e in self.elements]
        self.nonzero = 0
        for i, e in enumerate(self.elements):
            if is_nonzero(e):
                self.nonzero |= 1 << i
        zero_candidates = [i for i in range(count) if not (self.nonzero >> i) & 1]
        if len(zero_candidates) != 1:
            raise ValidationError("carrier must have exactly one zero element")
        self.zero_index = zero_candidates[0]
        self.one_index = self.star_index[self.zero_index]
        self.ct_rows = [0] * count
        self.b_rows = [0] * count
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if time_contact(a, b):
                    self.ct_rows[i] |= 1 << j
                if precedes(a, b):
                    self.b_rows[i] |= 1 << j

    @cached_property
    def b_cols(self):
        cols = [0] * len(self.elements)
        for i, row in enumerate(self.b_rows):
            for j in atoms_of(row):
                cols[j] |= 1 << i
        return cols

    @cached_property
    def b_rows_star(self):
        """b_rows_star[i] has bit p set iff element i precedes star(p)."""
        return [
            sum(1 << p for p in range(len(self.elements)) if (row >> self.star_index[p]) & 1)
            for row in self.b_rows
        ]

    @cached_property
    def b_cols_star(self):
        """b_cols_star[j] has bit p set iff star(p) precedes element j."""
        cols = self.b_cols
        return [
            sum(1 << p for p in range(len(self.elements)) if (col >> self.star_index[p]) & 1)
            for col in cols
        ]

    def indices(self):
        return range(len(self.elements))

    def nonzero_indices(self):
        return atoms_of(self.nonzero)


def element_time_axiom(source, cond: TimeCondition, existential_p: bool = False) -> Check:
    """Decide one region-level time axiom on every element of the carrier.

    The four axioms displaying a free variable p are read with p universally
    quantified; `existential_p=True` evaluates the alternative reading for
    comparison.
    """
    view = element_view(source)
    name = cond.region_axiom

    def value(i):
        return view.elements[i]

    def fail(*idxs):
        return Check(name, False, witness=tuple(value(i) for i in idxs))

    ones = view.ones
    if cond is TimeCondition.RS:
        for a in view.nonzero_indices():
            if not (view.b_rows[a] >> view.one_index) & 1:
                return fail(a)
    elif cond is TimeCondition.LS:
        for a in view.nonzero_indices():
            if not (view.b_rows[view.one_index] >> a) & 1:
                return fail(a)
    elif cond is TimeCondition.UP_DIR:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                cover = view.b_rows[a] | view.b_rows_star[b]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    p = _lowest_missing(cover, ones)
                    return fail(a, b, p)
    elif cond is TimeCondition.DOWN_DIR:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                cover = view.b_cols[a] | view.b_cols_star[b]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    return fail(a, b, _lowest_missing(cover, ones))
    elif cond is TimeCondition.CIRC:
        for a in view.indices():
            for b in atoms_of(view.b_rows[a]):
                cover = view.b_rows[b] | view.b_cols_star[a]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    return fail(a, b, _lowest_missing(cover, ones))
    elif cond is TimeCondition.DENS:
        for a in view.indices():
            for b in atoms_of(view.b_rows[a]):
                cover = view.b_rows[a] | view.b_cols_star[b]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    return fail(a, b, _lowest_missing(cover, ones))
    elif cond is TimeCondition.REF:
        for a in view.indices():
            extra = view.ct_rows[a] & ~view.b_rows[a]
            if extra:
                return fail(a, next(atoms_of(extra)))
    elif cond is TimeCondition.IRR:
        for a in view.indices():
            for b in atoms_of(view.b_rows[a]):
                if not any(
                    view.ct_rows[b] & ~view.ct_rows[c] for c in atoms_of(view.ct_rows[a])
                ):
                    return fail(a, b)
    elif cond is TimeCondition.LIN:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                if not (view.b_rows[a] >> b) & 1 and not (view.b_rows[b] >> a) & 1:
                    return fail(a, b)
    elif cond is TimeCondition.TRI:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                if (
                    not (view.ct_rows[a] >> b) & 1
                    and not (view.b_rows[a] >> b) & 1
                    and not (view.b_rows[b] >> a) & 1
                ):
                    return fail(a, b)
    elif cond is TimeCondition.TR:
        for a in view.indices():
            non_b = ~view.b_rows[a] & ones
            for b in atoms_of(non_b):
                if ~view.b_rows[a] & ~view.b_cols_star[b] & ones == 0:
                    return fail(a, b)
    else:  # pragma: no cover
        raise ValueError(f"unknown axiom {cond}")
    return Check(name, True)


def _lowest_missing(cover: int, ones: int) -> int:
    return next(atoms_of(~cover & ones))


def reading_comparison(source, cond: TimeCondition) -> tuple[bool, bool]:
    """Truth of a free-variable axiom under the universal and existential readings."""
    universal = time_axiom_holds(source, cond, existential_p=False)
    existential = time_axiom_holds(source, cond, existential_p=True)
    return universal, existential


Region = tuple[int, ...]


@lru_cache(maxsize=16)
def element_view(source) -> AxiomView:
    return AxiomView(*element_carrier(source))


def time_axiom_fails_at(source, cond, existential_p, witness) -> bool:
    """Whether a region axiom fails at the witnessed elements, by its definition."""
    elements, star, nonzero, ct, bb = element_carrier(source)
    one = star(next(e for e in elements if not nonzero(e)))
    a, *rest = witness
    b, p = (rest[0], rest[1:]) if rest else (None, ())
    if cond is TimeCondition.RS:
        return nonzero(a) and not bb(a, one)
    if cond is TimeCondition.LS:
        return nonzero(a) and not bb(one, a)
    if cond in FREE_VARIABLE_AXIOMS:
        scope, disjunction = {
            TimeCondition.UP_DIR: (nonzero(a) and nonzero(b), lambda q: bb(a, q) or bb(b, star(q))),
            TimeCondition.DOWN_DIR: (nonzero(a) and nonzero(b), lambda q: bb(q, a) or bb(star(q), b)),
            TimeCondition.CIRC: (bb(a, b), lambda q: bb(b, q) or bb(star(q), a)),
            TimeCondition.DENS: (bb(a, b), lambda q: bb(a, q) or bb(star(q), b)),
        }[cond]
        if existential_p:
            return scope and not p and not any(disjunction(q) for q in elements)
        return scope and len(p) == 1 and not disjunction(p[0])
    if cond is TimeCondition.REF:
        return ct(a, b) and not bb(a, b)
    if cond is TimeCondition.IRR:
        return bb(a, b) and not any(
            ct(a, c) and ct(b, d) and not ct(c, d) for c in elements for d in elements
        )
    if cond is TimeCondition.LIN:
        return nonzero(a) and nonzero(b) and not bb(a, b) and not bb(b, a)
    if cond is TimeCondition.TRI:
        return nonzero(a) and nonzero(b) and not (ct(a, b) or bb(a, b) or bb(b, a))
    return not bb(a, b) and not any(not bb(a, c) and not bb(star(c), b) for c in elements)


def pair_set_t2_failures(theta) -> list[tuple[int, int]]:
    """The before-after pairs of the domain that a space map does not
    preserve, ascending."""
    dom, cod = theta.dom, theta.cod
    return sorted((x, y) for x, y in dom.prec.pairs if (theta(x), theta(y)) not in cod.prec)


def pair_set_reflects_prec(theta) -> bool:
    """Every pair whose images are in before-after is in before-after."""
    dom, cod = theta.dom, theta.cod
    return all(
        (x, y) in dom.prec
        for x in dom.points()
        for y in dom.points()
        if (theta(x), theta(y)) in cod.prec
    )


def element_validate_dca_morphism(f) -> Report:
    """Boolean homomorphism reflecting all three relations, over all element pairs."""
    report = Report(subject="DCA morphism")
    dom, cod = f.dom, f.cod
    witness = next(
        (
            (a, b)
            for a in dom.base.elements()
            for b in dom.base.elements()
            if f(a | b) != f(a) | f(b)
        ),
        None,
    )
    hom = witness is None and all(
        f(dom.base.one ^ a) == cod.base.one ^ f(a) for a in dom.base.elements()
    )
    report.add("f1:Boolean homomorphism", hom, witness)
    for name, dom_rel, cod_rel in (
        ("f2:reflects Cs", dom.space_contact, cod.space_contact),
        ("f3:reflects Ct", dom.time_contact, cod.time_contact),
        ("f4:reflects B", dom.precedes, cod.precedes),
    ):
        witness = next(
            (
                (a, b)
                for a in dom.base.elements()
                for b in dom.base.elements()
                if cod_rel(f(a), f(b)) and not dom_rel(a, b)
            ),
            None,
        )
        report.add(name, witness is None, witness)
    return report


# -- element-table morphisms -----------------------------------------------


@dataclass(frozen=True)
class TableMorphism:
    """A DCA morphism as the table of all its element images; it can hold
    maps that no atom map expresses, such as non-homomorphisms."""

    dom: object
    cod: object
    table: tuple

    def __call__(self, a):
        return self.table[a]

    @classmethod
    def of(cls, f):
        return cls(f.dom, f.cod, tuple(f(a) for a in f.dom.base.elements()))


def region_masks(space) -> dict[int, int]:
    """The dual algebra's element for each of its point sets, by listing them all."""
    algebra = dual(space)
    return {algebra.atoms.join(m): m for m in algebra.dca.base.elements()}


def element_compose(first, second) -> TableMorphism:
    assert first.cod == second.dom
    return TableMorphism(
        first.dom, second.cod, tuple(second(first(a)) for a in first.dom.base.elements())
    )


def element_lower(f) -> DmsMorphism:
    """Preimage on t-clans, with the atom images read off the table."""
    dual_dom, dual_cod = dual_space(f.dom), dual_space(f.cod)
    point_map = tuple(
        dual_dom.points.index(mask_of(x for x in f.dom.base.atoms() if f(1 << x) & support))
        for support in dual_cod.points
    )
    return DmsMorphism(dual_cod.space, dual_dom.space, point_map)


def element_raise(theta) -> TableMorphism:
    """Preimage on every region of the codomain."""
    masks = region_masks(theta.dom)
    algebra = dual(theta.cod)
    table = tuple(
        masks[theta.preimage(algebra.atoms.join(m))] for m in algebra.dca.base.elements()
    )
    return TableMorphism(algebra.dca, dual(theta.dom).dca, table)


def element_extent_isomorphism(d) -> TableMorphism:
    result = dual_space(d)
    masks = region_masks(result.space)
    table = tuple(masks[meeting(result.points, a)] for a in d.base.elements())
    return TableMorphism(d, dual(result.space).dca, table)


def element_naturality(f) -> Report:
    """The double-dual square of an algebra morphism, on every element."""
    report = Report(subject="naturality")
    raised = element_raise(element_lower(f))
    g_dom, g_cod = element_extent_isomorphism(f.dom), element_extent_isomorphism(f.cod)
    witness = next(
        ((a,) for a in f.dom.base.elements() if raised(g_dom(a)) != g_cod(f(a))), None
    )
    report.add("double dual of extents", witness is None, witness)
    return report


def element_functor_laws(first, second) -> Report:
    """The functor laws with algebra maps as tables."""
    report = Report(subject="functor laws")
    if isinstance(first, DmsMorphism):
        composite = DmsMorphism(
            first.dom, second.cod, tuple(second(first(x)) for x in first.dom.points())
        )
        left = element_raise(composite)
        right = element_compose(element_raise(second), element_raise(first))
        report.add("raise reverses composition", left.table == right.table)
        raised = element_raise(DmsMorphism(first.dom, first.dom, tuple(first.dom.points())))
        report.add("raise preserves identity", raised.table == tuple(raised.dom.base.elements()))
        return report
    left = element_lower(element_compose(first, second))
    lower_first, lower_second = element_lower(first), element_lower(second)
    right = tuple(lower_first(lower_second(y)) for y in lower_second.dom.points())
    report.add("lower reverses composition", left.point_map == right)
    identity = TableMorphism(first.dom, first.dom, tuple(first.dom.base.elements()))
    lowered = element_lower(identity)
    report.add("lower preserves identity", lowered.point_map == tuple(lowered.dom.points()))
    return report


def element_dca_isomorphism_report(f) -> Report:
    """Morphism plus a two-sided inverse, found by inverting the table."""
    report = Report(subject="DCA isomorphism")
    validation = element_validate_dca_morphism(f)
    report.add("is a morphism", validation.ok)
    bijective = len(set(f.table)) == f.dom.base.size == f.cod.base.size
    report.add("bijective", bijective)
    if bijective and validation.ok:
        inverse_table = [0] * f.cod.base.size
        for a, image in enumerate(f.table):
            inverse_table[image] = a
        inverse = TableMorphism(f.cod, f.dom, tuple(inverse_table))
        report.add("inverse is a morphism", element_validate_dca_morphism(inverse).ok)
        report.add(
            "composition is the identity",
            all(inverse(f(a)) == a for a in f.dom.base.elements()),
        )
    return report


def element_validate_dms_morphism(theta) -> Report:
    """The four space-morphism conditions by scans: t1 over the space
    points, t2 over the before-after pairs, and t3 and t4 over every region
    of the codomain, in order, with preimages taken point by point."""
    report = Report(subject="DMS morphism")
    dom, cod = theta.dom, theta.cod
    witness = next(
        ((x,) for x in atoms_of(dom.space_points) if not cod.space_points >> theta(x) & 1), None
    )
    report.add("t1:preserves space points", witness is None, witness)
    failures = pair_set_t2_failures(theta)
    report.add("t2:preserves before-after", not failures, failures[0] if failures else None)

    def preimage(a):
        return mask_of(x for x in dom.points() if a >> theta(x) & 1)

    dom_regions = set(dom.regions)
    witness = next(((a,) for a in cod.regions if preimage(a) not in dom_regions), None)
    report.add("t3:preimages stay in the algebra", witness is None, witness)
    if witness is not None:
        report.add("t4:preimage preserves complement", False, witness=("not evaluable",))
        return report
    d_space, c_space = dom.space, cod.space
    witness = next(
        (
            (a,)
            for a in cod.regions
            if preimage(c_space.closure(c_space.universe ^ a))
            != d_space.closure(d_space.universe ^ preimage(a))
        ),
        None,
    )
    report.add("t4:preimage preserves complement", witness is None, witness)
    return report


class ElementRC:
    """Boolean algebra of the regular closed sets of a finite space, by its
    definition: join is union, meet cl(int(a & b)), complement cl(U - a)."""

    def __init__(self, space):
        self.space = space
        self.carrier = space.regular_closed
        self.index = {a: i for i, a in enumerate(self.carrier)}
        self.zero = 0
        self.one = space.universe

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return self.space.closure(self.space.interior(a & b))

    def compl(self, a):
        return self.space.closure(self.space.universe ^ a)


def coarsened(atoms, rng):
    """The joins of a random partition of the atoms into blocks: a Boolean
    subalgebra of the algebra the atoms generate."""
    blocks = [0] * rng.randint(1, len(atoms))
    for x in atoms:
        blocks[rng.randrange(len(blocks))] |= x
    family = {0}
    for b in blocks:
        family |= {a | b for a in family}
    return tuple(sorted(family))


def random_region_families(rng, count):
    """Spaces on 1-5 points with a random closed base and a random region
    family: a coarsening of RC, RC sampled with or without complements, any
    point sets, or RC with a stray set or a repeat.  Half of the spaces take
    the family itself as their closed base."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        universe = (1 << n) - 1
        base = tuple(sorted(rng.sample(range(universe + 1), rng.randint(1, min(universe + 1, 8)))))
        topology = FiniteTopSpace(n, base)
        rc = topology.regular_closed
        atoms = [a for a in rc if a and not any(b and b != a and b & ~a == 0 for b in rc)]
        sample = rng.sample(rc, rng.randint(0, len(rc)))
        complements = {topology.closure(universe ^ a) for a in sample}
        family = rng.choice(
            [
                coarsened(atoms, rng),
                tuple(sorted({0, universe, *sample})),
                tuple(sorted({0, universe, *sample, *complements})),
                tuple(sorted(rng.sample(range(universe + 1), rng.randint(1, universe + 1)))),
                tuple(sorted({*rc, rng.randint(0, universe)})),
                (*rc, rc[-1]),
            ]
        )
        if rng.random() < 0.5:
            topology = FiniteTopSpace(n, family)
        out.append(DMSpace(topology, universe, universe, Relation.empty(n), family))
    return out


def element_check_s2(candidate) -> Check:
    """S2 by a scan of every region: each must be regular closed with its
    regular-closed complement a region; then the family must be Boolean
    under union (the witness of `dual`) and recover every base member's
    closure."""
    space = candidate.space
    regions = candidate.regions
    members = set(regions)
    if len(members) != len(regions):
        return Check("S2", False, ("duplicate region",))
    if 0 not in members or space.universe not in members:
        return Check("S2", False, ("missing bounds",))
    for a in regions:
        if not space.is_regular_closed(a):
            return Check("S2", False, (a, "not regular closed"))
        if space.closure(space.universe ^ a) not in members:
            return Check("S2", False, (a, "complement escapes"))
    try:
        dual(candidate)
    except ValidationError as exc:
        return Check("S2", False, exc.witness)
    probe = FiniteTopSpace(space.point_count, tuple(sorted(members)))
    for b in space.closed_base:
        if probe.closure(b) != space.closure(b) or not probe.is_closed(space.closure(b)):
            return Check("S2", False, (b, "not a closed base"))
    return Check("S2", True)


def element_validate_dms(candidate) -> Report:
    """The eight space axioms, S2 on every pair of regions and S7 on the
    precedence table of all regions."""
    report = Report(subject="dynamic mereotopological space")
    space = candidate.space
    report.add("S1", space.point_count >= 1)

    regions = candidate.regions
    members = set(regions)
    s2_holds = True
    s2_witness = None
    if len(members) != len(regions):
        s2_holds, s2_witness = False, ("duplicate region",)
    elif 0 not in members or space.universe not in members:
        s2_holds, s2_witness = False, ("missing bounds",)
    else:
        for a in regions:
            if not space.is_regular_closed(a):
                s2_holds, s2_witness = False, (a, "not regular closed")
                break
            if space.closure(space.universe ^ a) not in members:
                s2_holds, s2_witness = False, (a, "complement escapes")
                break
        if s2_holds:
            for a, b in itertools.combinations(regions, 2):
                if a | b not in members:
                    s2_holds, s2_witness = False, (a, b, "join escapes")
                    break
                if space.closure(space.interior(a & b)) not in members:
                    s2_holds, s2_witness = False, (a, b, "meet escapes")
                    break
        if s2_holds:
            probe = FiniteTopSpace(space.point_count, tuple(sorted(members)))
            for b in space.closed_base:
                if probe.closure(b) != space.closure(b) or not probe.is_closed(space.closure(b)):
                    s2_holds, s2_witness = False, (b, "not a closed base")
                    break
    report.add("S2", s2_holds, s2_witness)

    report.add("S3", candidate.space_points != 0 and candidate.time_points != 0)
    s4_witness = next(
        ((a,) for a in space.regular_closed if a and not a & candidate.space_points), None
    )
    report.add("S4", s4_witness is None, s4_witness)
    report.add("S5", True)

    if not s2_holds:
        for name in ("S6", "S7", "S8"):
            report.add(name, False, witness=("not evaluable: S2 fails",))
        return report

    algebra = dual(candidate)
    sub = validate_dca(algebra.dca)
    report.add(
        "S6",
        sub.ok,
        witness=None if sub.ok else (sub.failures()[0].name, sub.failures()[0].witness),
    )

    # prec_rows[i]: the regions that region i precedes; contain[x]: the
    # regions containing point x
    precedes = rc_relations(candidate)["B"]
    prec_rows = [sum(1 << j for j, b in enumerate(regions) if precedes(a, b)) for a in regions]
    contain = [
        sum(1 << i for i, a in enumerate(regions) if a >> x & 1) for x in candidate.points()
    ]
    s7_witness = next(
        (
            (x, y)
            for x in candidate.points()
            for y in candidate.points()
            if all(prec_rows[i] & contain[y] == contain[y] for i in atoms_of(contain[x]))
            != ((x, y) in candidate.prec)
        ),
        None,
    )
    report.add("S7", s7_witness is None, s7_witness)

    if sub.ok:
        clusters = {algebra.dca.time_rel.rows[x] for x in algebra.dca.base.atoms()}
        s8_witness = next(
            (
                (x,)
                for x in atoms_of(candidate.time_points)
                if algebra.trace_support(x) not in clusters
            ),
            None,
        )
        report.add("S8", s8_witness is None, s8_witness)
    else:
        report.add("S8", False, witness=("not evaluable: S6 fails",))
    return report


def element_lifting_conditions(space, sub_family) -> list[Check]:
    """Density, co-density and separation of a region family, over every
    regular closed set and every pair of them."""
    carrier = ElementRC(space.space).carrier
    one = space.space.universe
    sub = sorted(set(sub_family))
    out = []
    witness = next(
        ((a,) for a in carrier if a and not any(m and m & ~a == 0 for m in sub)), None
    )
    out.append(Check("Dense", witness is None, witness))
    witness = next(
        ((a,) for a in carrier if a != one and not any(m != one and a & ~m == 0 for m in sub)),
        None,
    )
    out.append(Check("Co-dense", witness is None, witness))
    # above[i]: the sub members above carrier[i]; rel_rows[j]: the sub members
    # that sub member j relates to
    above = [sum(1 << j for j, m in enumerate(sub) if a & ~m == 0) for a in carrier]
    for name, rel in rc_relations(space).items():
        rel_rows = [sum(1 << j for j, w in enumerate(sub) if rel(m, w)) for m in sub]
        witness = next(
            (
                (a, b)
                for i, a in enumerate(carrier)
                for k, b in enumerate(carrier)
                if not rel(a, b)
                and not any(~rel_rows[j] & above[k] for j in atoms_of(above[i]))
            ),
            None,
        )
        out.append(Check(f"{name}-separation", witness is None, witness))
    return out


def lifting_separation_fails_at(sub_family, rel, a, b) -> bool:
    """Whether every sub member above `a` relates to every sub member above `b`."""
    return all(rel(m, w) for m in sub_family if a & ~m == 0 for w in sub_family if b & ~w == 0)


def element_extent_checks(d) -> list[Check]:
    """The extent map onto the dual of the dual space, on every element and
    every element pair."""
    result = dual_space(d)
    algebra = dual(result.space)
    target = algebra.dca
    masks = region_masks(result.space)
    image = {a: masks.get(meeting(result.points, a)) for a in d.base.elements()}
    out = [Check("extents land in the dual algebra", None not in image.values())]
    if None in image.values():
        return out
    injective = len(set(image.values())) == d.base.size
    onto = set(image.values()) == set(target.base.elements())
    witness = next(
        (
            (a, b)
            for a in d.base.elements()
            for b in d.base.elements()
            if image[a | b] != image[a] | image[b]
            or image[d.base.one ^ a] != target.base.one ^ image[a]
        ),
        None,
    )
    relations_ok = all(
        d.space_contact(a, b) == target.space_contact(image[a], image[b])
        and d.time_contact(a, b) == target.time_contact(image[a], image[b])
        and d.precedes(a, b) == target.precedes(image[a], image[b])
        for a in d.base.elements()
        for b in d.base.elements()
    )
    out.append(Check("extent map is a Boolean isomorphism", injective and onto and witness is None, witness))
    out.append(Check("extent map preserves and reflects the relations", relations_ok))
    return out


def element_density_check(space) -> Report:
    """The density analysis with the closure map checked on every pair of
    regular closed sets of the subspace of space points."""
    report = Report(subject="space-point density")
    spc = space.space
    report.add("closure of space points is everything", spc.closure(space.space_points) == spc.universe)
    inside = list(atoms_of(space.space_points))

    def restrict(a):
        return sum(1 << i for i, x in enumerate(inside) if a >> x & 1)

    def embed(a_sub):
        return sum(1 << x for i, x in enumerate(inside) if a_sub >> i & 1)

    sub_space = FiniteTopSpace(len(inside), tuple(sorted({restrict(b) for b in spc.closed_base})))
    sub_alg, full_alg = ElementRC(sub_space), ElementRC(spc)
    sub_rc, full_rc = sub_alg.carrier, full_alg.carrier
    lifted = {a: spc.closure(embed(a)) for a in sub_rc}
    report.add("closure maps subspace RC into RC", all(v in set(full_rc) for v in lifted.values()))
    report.add("closure map is a bijection", len(set(lifted.values())) == len(sub_rc) == len(full_rc))
    round_trip = all(restrict(lifted[a]) == a for a in sub_rc)
    back = all(lifted.get(restrict(b)) == b for b in full_rc)
    report.add("restriction inverts closure", round_trip and back)
    hom = all(
        lifted[sub_alg.join(a, b)] == full_alg.join(lifted[a], lifted[b])
        and lifted[sub_alg.compl(a)] == full_alg.compl(lifted[a])
        for a in sub_rc
        for b in sub_rc
    )
    report.add("closure map is a Boolean homomorphism", hom)
    return report


def rc_law_failures(rc) -> list[tuple]:
    """Boolean-algebra laws of an RC algebra that fail, with witnesses."""
    carrier, index = rc.carrier, rc.index
    for a in carrier:
        if rc.compl(a) not in index:
            return [("complement leaves the carrier", a)]
        for b in carrier:
            if a | b not in index or rc.meet(a, b) not in index:
                return [("join or meet leaves the carrier", a, b)]
    out = []
    for a in carrier:
        if rc.join(a, rc.compl(a)) != rc.one or rc.meet(a, rc.compl(a)) != rc.zero:
            out.append(("complement laws fail", a))
        if rc.meet(a, a) != a or rc.join(a, rc.zero) != a or rc.meet(a, rc.one) != a:
            out.append(("identity laws fail", a))
        for b in carrier:
            if rc.meet(a, b) != rc.meet(b, a):
                out.append(("meet not commutative", a, b))
            if rc.join(a, rc.meet(a, b)) != a or rc.meet(a, rc.join(a, b)) != a:
                out.append(("absorption fails", a, b))
            for c in carrier:
                if rc.meet(a, b | c) != rc.meet(a, b) | rc.meet(a, c):
                    out.append(("distributivity fails", a, b, c))
    return out


def zero_one_vectors(coordinates) -> list[tuple]:
    """Every region that is zero or the top at each moment."""
    tops = [c.base.one for c in coordinates]
    return [
        tuple(top if bit else 0 for top, bit in zip(tops, bits))
        for bits in itertools.product((0, 1), repeat=len(coordinates))
    ]


def element_boolean_closure(coordinates, seeds) -> tuple:
    """Zero, top and `seeds` closed under complement, join and meet by fixpoint."""
    tops = tuple(c.base.one for c in coordinates)
    family = {tuple(0 for _ in tops), tops}
    family.update(seeds)
    changed = True
    while changed:
        changed = False
        current = list(family)
        for a in current:
            comp = tuple(t ^ x for t, x in zip(tops, a))
            if comp not in family:
                family.add(comp)
                changed = True
        current = list(family)
        for a in current:
            for b in current:
                for combined in (
                    tuple(x | y for x, y in zip(a, b)),
                    tuple(x & y for x, y in zip(a, b)),
                ):
                    if combined not in family:
                        family.add(combined)
                        changed = True
    return tuple(sorted(family))


def element_closure_defect(coordinates, family):
    """A coordinate-wise combination missing from `family`, if any."""
    tops = tuple(c.base.one for c in coordinates)
    members = set(family)
    zero = tuple(0 for _ in tops)
    if zero not in members or tops not in members:
        return tops if tops not in members else zero
    for a in family:
        comp = tuple(t ^ x for t, x in zip(tops, a))
        if comp not in members:
            return comp
        for b in family:
            join = tuple(x | y for x, y in zip(a, b))
            if join not in members:
                return join
            meet = tuple(x & y for x, y in zip(a, b))
            if meet not in members:
                return meet
    return None


def element_region_atoms(model) -> list[tuple]:
    """Minimal nonzero regions, by scanning every region pair."""

    def leq(a, b):
        return all(x & ~y == 0 for x, y in zip(a, b))

    regions = model.regions
    return sorted(
        r
        for r in regions
        if model.is_nonzero(r)
        and not any(model.is_nonzero(s) and s != r and leq(s, r) for s in regions)
    )


def element_is_rich(model) -> bool:
    have = set(model.regions)
    return all(v in have for v in zero_one_vectors(model.coordinates))


def product_universe(coordinates, mode: str, seeds=()) -> tuple:
    """The regions of a full or rich model, listed by the product
    construction: every element at each moment (full), or at each moment
    the joins of the cells that the seeds' parts there cut out of its top
    (rich: the one-moment blocks make the algebra a product of moments)."""
    per_moment = []
    for m, c in enumerate(coordinates):
        if mode == "full":
            per_moment.append(c.base.elements())
            continue
        cells = [c.base.one]
        for seed in seeds:
            cells = [part for cell in cells for part in (cell & seed[m], cell & ~seed[m]) if part]
        joins = {sum(cell for i, cell in enumerate(cells) if bits >> i & 1) for bits in range(1 << len(cells))}
        per_moment.append(sorted(joins))
    return tuple(itertools.product(*per_moment))


class ListedModel:
    """A snapshot model held as its listed regions.  Its atoms are the
    minimal nonzero regions, found by scanning region pairs; two atoms are
    in space contact when some coordinate relates their parts, in time
    contact when they share a moment, and one precedes the other when one
    of its moments is before one of the other's."""

    def __init__(self, time: TimeStructure, coordinates, regions):
        self.time, self.coordinates, self.regions = time, tuple(coordinates), tuple(regions)
        self.atoms = element_region_atoms(self)
        count = len(self.atoms)
        pairs = list(itertools.product(range(count), repeat=2))
        u, prec = self.atoms, time.prec
        self.frame = (
            Relation.of(count, [(i, j) for i, j in pairs if any(x and y for x, y in zip(u[i], u[j]))]),
            Relation.of(count, [(i, j) for i, j in pairs if any(u[i][m] and u[j][n] for m, n in prec)]),
        )
        self.space = Relation.of(
            count,
            [(i, j) for i, j in pairs if any(c.related(x, y) for c, x, y in zip(self.coordinates, u[i], u[j]))],
        )

    def is_nonzero(self, a) -> bool:
        return any(a)

    def axiom_witness(self, cond: TimeCondition, existential_p: bool):
        """The first failing instance of a region axiom, from the per-axiom
        atom oracle, as joins of atoms."""
        found = atom_failure(cond, existential_p, *self.frame)
        return found and tuple(self.join_of(mask) for mask in found)

    def join_of(self, mask: int) -> tuple:
        out = tuple(0 for _ in self.coordinates)
        for i in atoms_of(mask):
            out = tuple(x | y for x, y in zip(out, self.atoms[i]))
        return out


def element_prec_extension(d, left: int, right: int) -> bool:
    """Element-level clan precedence: every element meeting `left` precedes
    every element meeting `right`."""
    meets = lambda support: [a for a in d.base.elements() if a & support]
    return all(d.precedes(a, b) for a in meets(left) for b in meets(right))


# -- lemmas of the paper and helpers that only the tests call ----------------


def is_reflexive(rel: Relation) -> bool:
    return all(row >> x & 1 for x, row in enumerate(rel.rows))


def is_symmetric(rel: Relation) -> bool:
    return rel.rows == rel.columns


def is_transitive(rel: Relation) -> bool:
    return all(rel.forward_image(row) & ~row == 0 for row in rel.rows)


def is_equivalence(rel: Relation) -> bool:
    return is_reflexive(rel) and is_symmetric(rel) and is_transitive(rel)


def principal_filter(base: FiniteBA, generator: int) -> frozenset[int]:
    """The up-set of `generator`: the member set of the finite filter whose
    least member it is."""
    return frozenset(a for a in base.elements() if generator & ~a == 0)


def extend_to_ultrafilter(base: FiniteBA, generator: int) -> int:
    """Every proper filter, given by its least member, extends to an
    ultrafilter: the one of the lowest atom below that member."""
    if base.check(generator) == 0:
        raise PreconditionError("improper filter cannot extend", witness=0)
    return next(atoms_of(generator))


def dca_corpus(count: int, max_moments: int = 3, seed: int = 0):
    """`count` seeded snapshot algebras cycling over the moment counts."""
    for i in range(count):
        moments = 1 + (i % max_moments)
        yield gen.seeded_dca(random.Random(seed + i), moments)


def check_time_axiom(source, cond: TimeCondition, existential_p: bool = False) -> Check:
    """One region-level time axiom on a dynamic algebra or model, as a check:
    the source's first failing instance, read as elements of the carrier
    (singleton masks or atom regions, and p as the join of a row of atoms)."""
    witness = source.axiom_failures[existential_p][cond]
    if witness is None:
        return Check(cond.region_axiom, True)
    if isinstance(source, DMST):
        witness = tuple(map(source.region, witness))
    return Check(cond.region_axiom, False, witness=witness)


def irr_one_directional(d) -> dict[str, bool]:
    """Irreflexivity of the ultrafilter precedence versus the (irr) axiom.

    Only the forward implication is a theorem; the converse is recorded
    without being asserted.
    """
    d.require_valid()
    ult_irr = not any(row >> x & 1 for x, row in enumerate(d.prec_rel.rows))
    region_irr = time_axiom_holds(d, TimeCondition.IRR)
    return {
        "ultrafilter_irr": ult_irr,
        "region_irr": region_irr,
        "forward_holds": (not ult_irr) or region_irr,
        "converse_gap": region_irr and not ult_irr,
    }


def factor_by_clanset(algebra: PrecontactAlgebra, selection) -> FactorAlgebra:
    """Factor contact algebra determined by a nonempty set of clans.

    The quotient contact holds between classes iff some selected clan
    contains members of both.
    """
    algebra.require_contact()
    selection = list(selection)
    if not selection:
        raise PreconditionError("factor requires a nonempty set of clans")
    valid_supports = {c.support for c in clans(algebra)}
    for clan in selection:
        if clan.algebra != algebra.base or clan.support not in valid_supports:
            raise ValidationError("selection contains a non-clan", witness=(getattr(clan, "support", clan),))
    kept_mask = 0
    for clan in selection:
        kept_mask |= clan.support
    kept = tuple(atoms_of(kept_mask))
    bits = [1 << atom for atom in kept]
    rows = [0] * len(kept)
    for clan in selection:
        local = meeting(bits, clan.support)
        for i in atoms_of(local):
            rows[i] |= local
    quotient = PrecontactAlgebra(FiniteBA(len(kept)), Relation.from_rows(len(kept), rows))
    return FactorAlgebra(algebra, quotient, kept)


def functor_laws(first, second) -> Report:
    """Composition is reversed by the contravariant functors."""
    report = Report(subject="functor laws")
    composite = compose(first, second)
    if isinstance(first, DcaMorphism):
        left = lower(composite)
        right = compose(lower(second), lower(first))
        report.add("lower reverses composition", left.point_map == right.point_map)
        lowered = lower(DcaMorphism.identity(first.dom))
        report.add("lower preserves identity", lowered == DmsMorphism.identity(lowered.dom))
    else:
        left = raise_(composite)
        right = compose(raise_(second), raise_(first))
        report.add("raise reverses composition", left == right)
        raised = raise_(DmsMorphism.identity(first.dom))
        report.add("raise preserves identity", raised == DcaMorphism.identity(raised.dom))
    return report


def grill_from_atoms(algebra: FiniteBA, support) -> Grill:
    return Grill(algebra, support if isinstance(support, int) else mask_of(support))


def extension_of_prec_checks(d, structure: ClanStructure | None = None) -> list[Check]:
    """Two-way equivalence for clan precedence on every t-clan pair.

    All ultrafilter pairs related, and some ultrafilter pair related, decided
    on the atoms of the two clans.
    """
    structure = structure or clan_structure(d)
    rows = d.prec_rel.rows
    out = []
    for left, right in itertools.product(structure.t_clans, repeat=2):
        all_ults = all(rows[x] & right == right for x in atoms_of(left))
        some_ults = any(rows[x] & right for x in atoms_of(left))
        out.append(
            Check(
                f"prec extension {left:#x}->{right:#x}",
                all_ults == some_ults,
                witness=None if all_ults == some_ults else (left, right),
            )
        )
    return out


def g_maps(d, a: int, structure: ClanStructure | None = None) -> dict[str, tuple[int, ...]]:
    """Clan extents of one element: t-clans, s-clans and clusters containing it."""
    d.base.check(a)
    structure = structure or clan_structure(d)
    return {
        "g": tuple(s for s in structure.t_clans if s & a),
        "gs": tuple(s for s in structure.s_clans if s & a),
        "gclust": tuple(s for s in structure.clusters if s & a),
    }


def rho(space: DMSpace, x: int) -> frozenset[int]:
    """The regions containing point x (the point's clan in the dual)."""
    if not 0 <= x < space.space.point_count:
        raise ValidationError(f"point {x} out of range")
    return frozenset(a for a in space.regions if a >> x & 1)


def canonical_filter(space: DMSpace, region: int) -> int:
    """Filter of distinguished regions containing a regular closed set, as
    its least member, an element of the dual algebra."""
    if not space.space.is_regular_closed(region):
        raise PreconditionError("canonical filters are defined for regular closed sets", witness=region)
    algebra = dual(space)
    base = algebra.dca.base
    members = {algebra.atoms.index(a) for a in space.regions if region & ~a == 0}
    if not is_filter_members(base, members):
        raise ValidationError("the regions containing a set are not a filter", witness=region)
    return min(members, key=int.bit_count)


def relation_characterizations(space: DMSpace, a_set: int, b_set: int) -> Report:
    """Canonical-filter equivalences for one pair of regular closed sets.

    The filter-level clauses need DM-compactness; without it only the
    unconditional items are decided.
    """
    report = Report(subject="canonical filter characterizations")
    spc = space.space
    for label, region in (("A", a_set), ("B", b_set)):
        if not spc.is_regular_closed(region):
            raise PreconditionError(f"{label} must be regular closed", witness=region)

    fa = {a for a in space.regions if a_set & ~a == 0}
    fb = {b for b in space.regions if b_set & ~b == 0}
    canonical_filter(space, a_set)  # validates filterhood
    canonical_filter(space, b_set)
    report.add("F_A is a filter", True)

    witness = next(
        (
            (x,)
            for x in space.points()
            if (bool(a_set & (1 << x))) != all(a & (1 << x) for a in fa)
        ),
        None,
    )
    report.add("x in A iff F_A within trace(x)", witness is None, witness)

    proper = a_set != spc.universe
    bounded = any(a != spc.universe and a_set & ~a == 0 for a in space.regions)
    report.add("A proper iff bounded by a proper region", proper == bounded)

    if not classify(space).is_dm_compact:
        raise CapabilityError(
            "filter-level characterizations need DM-compactness", missing="DM-compact"
        )

    rel_t, rel_s, rel_b = rc_relations(space).values()

    def filter_related(rel):
        return all(rel(a, b) for a in fa for b in fb)

    t_pointwise = rel_t(a_set, b_set)
    t_filters = filter_related(rel_t)
    t_time = bool(a_set & b_set & space.time_points)
    report.add("time contact: pointwise <=> filters <=> time points", t_pointwise == t_filters == t_time)

    s_pointwise = rel_s(a_set, b_set)
    s_filters = filter_related(rel_s)
    report.add("space contact: pointwise <=> filters", s_pointwise == s_filters)

    b_pointwise = rel_b(a_set, b_set)
    b_filters = filter_related(rel_b)
    times = space.time_points
    b_time = bool(space.prec.forward_image(a_set & times) & b_set & times)
    report.add("precedence: pointwise <=> filters <=> time points", b_pointwise == b_filters == b_time)
    return report


def contact_clan_space(algebra: PrecontactAlgebra):
    """Clan space of a static contact algebra with its element extents.

    Returns the topological space whose points are the clans, plus the map
    sending an element to the mask of clans containing it.
    """
    supports = algebra.clique_supports
    extents = tuple(meeting(supports, 1 << x) for x in algebra.base.atoms())
    space = FiniteTopSpace(len(supports), tuple(sorted(extents)))
    return space, supports, additive(extents)


# -- version 1 model files ------------------------------------------------


def _pairs(relation: Relation) -> list[list[int]]:
    return [[x, y] for x, row in enumerate(relation.rows) for y in atoms_of(row)]


def encode_v1(obj, claims=None) -> dict:
    """Model dictionary in format version 1, as `models.encode` wrote it
    before version 2: relations as sorted pair arrays and every point set as
    a sorted index list.  The golden fixtures and the version 1 twins of the
    round-trip and fuzz tests are written with it."""
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
            "dom": encode_v1(obj.dom),
            "cod": encode_v1(obj.cod),
            "map": [list(atoms_of(obj(a))) for a in obj.dom.base.elements()],
        }
    else:
        kind, body = "morphism", {
            "morphism_kind": "dms",
            "dom": encode_v1(obj.dom),
            "cod": encode_v1(obj.cod),
            "map": list(obj.point_map),
        }
    return {"kind": kind, "format_version": 1, **body}


def write_path_v1(path, obj, claims=None) -> None:
    """Write the canonical text of a version 1 model file."""
    Path(path).write_text(canonical_dumps(encode_v1(obj, claims=claims)), encoding="utf-8")


# -- fixtures --------------------------------------------------------------


@pytest.fixture(scope="session")
def small_dca_corpus():
    """A handful of valid algebras of both flavors, enough for spot checks."""
    corpus = list(dca_corpus(6, max_moments=3, seed=3))
    corpus.extend(list(gen.trivial_dcas(2)))
    return corpus


@pytest.fixture(scope="session")
def contact_sweep_3():
    """Every contact algebra on at most three atoms."""
    out = []
    for n in (1, 2, 3):
        out.extend(PrecontactAlgebra(FiniteBA(n), rel) for rel in gen.contact_relations(n))
    return out
