"""Shared fixtures and slow reference oracles.

The slow oracles re-state definitions as direct quantifier loops,
independent of the packed-table implementations they check.  The
element-level evaluators below them decide the same axioms by exhaustive
evaluation on every element pair; the atom-level decisions of `contact`,
`dca` and `category` are tested against them, verdict and witness.
"""

from __future__ import annotations

import itertools

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
from mereotime.dca import canonical_standard_dca, standard_dca
from mereotime.reporting import Check, Report
from mereotime.snapshot import DCA_TIME_AXIOMS, TimeStructure, build_dmst, check_time_axiom
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
    d_view, m_view = d.axiom_view(), model.axiom_view()
    for cond in DCA_TIME_AXIOMS:
        report.add(
            f"time axiom {cond.region_axiom} preserved",
            check_time_axiom(d_view, cond).holds == check_time_axiom(m_view, cond).holds,
        )
    return report


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
