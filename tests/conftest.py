"""Shared fixtures and slow reference oracles.

The slow oracles re-state definitions as direct quantifier loops,
independent of the packed-table implementations they check.  The
element-level evaluators below them decide the same axioms by exhaustive
evaluation on every element pair; the atom-level decisions of `contact`,
`dca`, `snapshot`, `category` and `dms` are tested against them, verdict
and witness.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import pytest

from mereotime.boolean import FiniteBA, atoms_of, submasks
from mereotime.contact import (
    CONTACT_AXIOMS,
    PrecontactAlgebra,
    Relation,
    _transpose_rows,
    element_rows,
    interpolation_check,
    relation_axiom_checks,
)
from mereotime.dca import canonical_standard_dca, standard_dca, validate_dca
from mereotime.dms import DMSpace, FiniteTopSpace, _extent_mask, dual, dual_space
from mereotime.errors import ValidationError
from mereotime.reporting import Check, Report
from mereotime.snapshot import (
    DCA_TIME_AXIOMS,
    DMST,
    FREE_VARIABLE_AXIOMS,
    TimeCondition,
    TimeStructure,
    build_dmst,
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


def element_axiom_checks(base, rel) -> list[Check]:
    """C1, C2, C3', C3'', C4, C5, C5' and CE of `rel`, over all elements."""
    out = relation_axiom_checks(base, rel)
    rows = element_rows(base, rel)
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
    for check in relation_axiom_checks(base, d.precedes):
        report.add(f"B:{check.name}", check.holds, check.witness)
    report.extend(
        [
            interpolation_check(base, "CtB", d.precedes, d.time_contact, d.precedes),
            interpolation_check(base, "BCt", d.precedes, d.precedes, d.time_contact),
        ]
    )
    return report


def element_verify_embedding(d) -> Report:
    """The snapshot representation of `d`, checked on every element pair."""
    d.require_valid()
    canonical = canonical_standard_dca(d)
    model = canonical.model
    base = d.base
    h = {a: canonical.embed(a) for a in base.elements()}
    pairs = list(itertools.product(base.elements(), repeat=2))

    report = Report(subject="snapshot representation")
    report.add("h(0)=0", h[0] == model.zero)
    report.add("h(1)=1", h[base.one] == model.one)
    witness = next(
        (
            (a, b)
            for a, b in pairs
            if h[a | b] != model.join(h[a], h[b]) or h[a & b] != model.meet(h[a], h[b])
        ),
        None,
    )
    report.add("h preserves join and meet", witness is None, witness)
    witness = next((a for a in base.elements() if h[base.one ^ a] != model.compl(h[a])), None)
    report.add("h preserves complement", witness is None, (witness,) if witness is not None else None)
    witness = next(((a, b) for a, b in pairs if a != b and h[a] == h[b]), None)
    report.add("h injective", witness is None, witness)

    factors = canonical.factors

    def middle_cs(a, b):
        return any(f.algebra.related(f.project(a), f.project(b)) for f in factors)

    def middle_ct(a, b):
        return any(f.project(a) != 0 and f.project(b) != 0 for f in factors)

    def middle_b(a, b):
        return any(
            factors[i].project(a) != 0 and factors[j].project(b) != 0
            for (i, j) in canonical.time.structure.prec
        )

    for name, left_rel, middle, right_rel in (
        ("Cs respected", d.space_contact, middle_cs, model.space_contact),
        ("Ct respected", d.time_contact, middle_ct, model.time_contact),
        ("B respected", d.precedes, middle_b, model.precedes),
    ):
        witness = next(
            (
                (a, b)
                for a, b in pairs
                if not (left_rel(a, b) == middle(a, b) == right_rel(h[a], h[b]))
            ),
            None,
        )
        report.add(name, witness is None, witness)
    witness = next(
        (
            (a, b)
            for a, b in pairs
            if base.leq(a, b) != all(x & ~y == 0 for x, y in zip(h[a], h[b]))
        ),
        None,
    )
    report.add("order respected", witness is None, witness)
    for cond in DCA_TIME_AXIOMS:
        report.add(
            f"time axiom {cond.region_axiom} preserved",
            element_time_axiom(d, cond).holds == element_time_axiom(model, cond).holds,
        )
    return report


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
        rc = ElementRC(source.space)
        return rc.carrier, rc.compl, bool, source.time_contact, source.precedes
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
    universal = check_time_axiom(source, cond, existential_p=False).holds
    existential = check_time_axiom(source, cond, existential_p=True).holds
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
    prec_rows = [
        sum(1 << j for j, b in enumerate(regions) if candidate.precedes(a, b)) for a in regions
    ]
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
    for name, rel in (
        ("Ct-separation", space.time_contact),
        ("Cs-separation", space.space_contact),
        ("B-separation", space.precedes),
    ):
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
        out.append(Check(name, witness is None, witness))
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
    image = {
        a: algebra.mask_of_region.get(_extent_mask(result.points, a)) for a in d.base.elements()
    }
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


def element_prec_extension(d, left: int, right: int) -> bool:
    """Element-level clan precedence: every element meeting `left` precedes
    every element meeting `right`."""
    meeting = lambda support: [a for a in d.base.elements() if a & support]
    return all(d.precedes(a, b) for a in meeting(left) for b in meeting(right))


# -- fixtures --------------------------------------------------------------


@pytest.fixture(scope="session")
def small_dca_corpus():
    """A handful of valid algebras of both flavors, enough for spot checks."""
    corpus = list(gen.dca_corpus(6, max_moments=3, seed=3))
    corpus.extend(list(gen.trivial_dcas(2)))
    return corpus


@pytest.fixture(scope="session")
def contact_sweep_3():
    """Every contact algebra on at most three atoms."""
    out = []
    for n in (1, 2, 3):
        out.extend(PrecontactAlgebra(FiniteBA(n), rel) for rel in gen.contact_relations(n))
    return out
