"""Abstract dynamic contact algebras and their snapshot representation.

A dynamic contact algebra carries a space contact, a time contact and a
local precedence relation over one finite Boolean algebra.  Relations are
stored in atom normal form, and the axioms are decided on those atom
relations; element-level relations are reconstructed on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .boolean import FiniteBA, atoms_of
from .contact import (
    CONTACT_AXIOMS,
    PRECONTACT_AXIOMS,
    FactorAlgebra,
    PrecontactAlgebra,
    Relation,
    clans,
    inclusion_check,
)
from .errors import PreconditionError, ValidationError
from .reporting import Check, Report
from .snapshot import (
    DCA_TIME_AXIOMS,
    DMST,
    TimeCondition,
    TimeStructure,
    build_dmst,
    check_time_condition,
    time_axiom_holds,
)


@dataclass(frozen=True)
class DCA:
    """Dynamic contact algebra in atom normal form."""

    base: FiniteBA
    space_rel: Relation
    time_rel: Relation
    prec_rel: Relation

    def __post_init__(self):
        n = self.base.atom_count
        for rel in (self.space_rel, self.time_rel, self.prec_rel):
            if rel.size != n:
                raise ValidationError("relation size does not match the atom count")

    @classmethod
    def from_pairs(cls, atom_count: int, space, time, prec) -> "DCA":
        base = FiniteBA(atom_count)
        return cls(
            base,
            Relation.of(atom_count, space),
            Relation.of(atom_count, time),
            Relation.of(atom_count, prec),
        )

    # Element-level relations (atom-generated).

    def space_contact(self, a: int, b: int) -> bool:
        return bool(self.space_rel.forward_image(self.base.check(a)) & self.base.check(b))

    def time_contact(self, a: int, b: int) -> bool:
        return bool(self.time_rel.forward_image(self.base.check(a)) & self.base.check(b))

    def precedes(self, a: int, b: int) -> bool:
        return bool(self.prec_rel.forward_image(self.base.check(a)) & self.base.check(b))

    @cached_property
    def cs_algebra(self) -> PrecontactAlgebra:
        return PrecontactAlgebra(self.base, self.space_rel)

    @cached_property
    def ct_algebra(self) -> PrecontactAlgebra:
        return PrecontactAlgebra(self.base, self.time_rel)

    @cached_property
    def report(self) -> Report:
        return validate_dca(self)

    @property
    def is_valid(self) -> bool:
        return self.report.ok

    def require_valid(self) -> None:
        self.report.require()


@lru_cache(maxsize=None)
def validate_dca(d: DCA) -> Report:
    """Decision of every defining axiom plus the derived atom facts.

    Verdicts are decided on the stored atom relations: C1-C3'' hold by
    construction, and Cs<=Ct, CtE, CtB, BCt and the contact axioms C4 and
    C5 are each one inclusion of atom relations, whose witness is the
    smallest missing atom pair as singleton masks.
    """
    report = Report(subject="dynamic contact algebra")
    rs, rt, pr = d.space_rel, d.time_rel, d.prec_rel
    ct_axioms = d.ct_algebra.axiom_report
    for prefix, axioms in (("Cs", d.cs_algebra.axiom_report), ("Ct", ct_axioms)):
        for name in CONTACT_AXIOMS:
            check = axioms[name]
            report.add(f"{prefix}:{name}", check.holds, check.witness)
    inclusion = inclusion_check("Cs<=Ct", rs, rt)
    cte = ct_axioms["CE"]
    report.extend([inclusion, Check("CtE", cte.holds, cte.witness)])

    report.extend([Check(f"B:{name}", True) for name in PRECONTACT_AXIOMS])
    ctb = inclusion_check("CtB", rt.compose(pr), pr)
    bct = inclusion_check("BCt", pr.compose(rt), pr)
    report.extend([ctb, bct])

    fact1 = next((c for c in (ct_axioms["C4"], ct_axioms["C5"], cte) if not c.holds), cte)
    report.add("fact1:Rt equivalence", fact1.holds, fact1.witness)
    report.add("fact2:Rt.prec<=prec", ctb.holds, ctb.witness)
    report.add("fact3:prec.Rt<=prec", bct.holds, bct.witness)
    report.extend([inclusion_check("fact4:Rt.prec.Rt<=prec", rt.compose(pr).compose(rt), pr)])
    report.add("fact5:Rs<=Rt", inclusion.holds, inclusion.witness)
    return report


def from_contact_algebra(ca: PrecontactAlgebra) -> DCA:
    """Trivial dynamic algebra of a contact algebra.

    Space contact is the given contact, time contact relates all nonzero
    pairs, and precedence coincides with time contact.
    """
    failing = [c for c in ca.axiom_report.checks if c.name in CONTACT_AXIOMS and not c.holds]
    if failing:
        raise PreconditionError(
            f"not a contact algebra: {failing[0].name} fails", witness=failing[0].witness
        )
    n = ca.base.atom_count
    total = Relation.total(n)
    return DCA(ca.base, ca.relation, total, total)


@dataclass(frozen=True)
class ClanStructure:
    """Clan inventory of a dynamic algebra, all named by atom supports."""

    s_clans: tuple[int, ...]
    t_clans: tuple[int, ...]
    clusters: tuple[int, ...]
    gamma: dict[int, int]
    reach: tuple[int, ...]  # per t-clan: the atoms every atom of it precedes

    @cached_property
    def prec(self) -> frozenset[tuple[int, int]]:
        """Clan precedence: every atom of the left clan precedes the right clan."""
        return frozenset(
            (left, right)
            for left, reach in zip(self.t_clans, self.reach)
            for right in self.t_clans
            if right & ~reach == 0
        )


def _common_successors(d: DCA, support: int) -> int:
    """The atoms that every atom of `support` precedes."""
    reach = d.base.one
    for x in atoms_of(support):
        reach &= d.prec_rel.rows[x]
    return reach


def _clique_supports(algebra: PrecontactAlgebra) -> tuple[int, ...]:
    return tuple(c.support for c in clans(algebra))


def _time_classes(d: DCA) -> tuple[int, ...]:
    """The clusters: classes of the time equivalence, by their lowest atom."""
    return tuple(sorted({d.time_rel.rows[x] for x in d.base.atoms()}, key=lambda m: m & -m))


@lru_cache(maxsize=None)
def clan_structure(d: DCA) -> ClanStructure:
    """Enumerate s-clans, t-clans and clusters with gamma and clan precedence.

    Clan precedence is decided by its ultrafilter characterization: every
    atom of the left clan precedes every atom of the right one.  It is kept
    as one row per t-clan (`reach`); the pairs are listed only on demand,
    as they number the square of the t-clans.
    """
    d.require_valid()
    s_clans = _clique_supports(d.cs_algebra)
    t_clans = _clique_supports(d.ct_algebra)
    gamma = {}
    for support in t_clans:
        lowest = next(atoms_of(support))
        enclosing = d.time_rel.rows[lowest]
        if support & ~enclosing:
            raise ValidationError("t-clan escapes its time equivalence class", witness=(support,))
        gamma[support] = enclosing

    reach = tuple(_common_successors(d, left) for left in t_clans)
    return ClanStructure(s_clans, t_clans, _time_classes(d), gamma, reach)


def extension_of_prec_checks(d: DCA, structure: ClanStructure | None = None) -> list[Check]:
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


def g_maps(d: DCA, a: int, structure: ClanStructure | None = None) -> dict[str, tuple[int, ...]]:
    """Clan extents of one element: t-clans, s-clans and clusters containing it."""
    d.base.check(a)
    structure = structure or clan_structure(d)
    return {
        "g": tuple(s for s in structure.t_clans if s & a),
        "gs": tuple(s for s in structure.s_clans if s & a),
        "gclust": tuple(s for s in structure.clusters if s & a),
    }


@dataclass(frozen=True)
class CanonicalTime:
    structure: TimeStructure
    clusters: tuple[int, ...]


def canonical_time_structure(d: DCA) -> CanonicalTime:
    """Clusters as moments, clan precedence restricted to them."""
    d.require_valid()
    clusters = _time_classes(d)
    prec = {
        (i, j)
        for i, left in enumerate(clusters)
        for j, right in enumerate(clusters)
        if right & ~_common_successors(d, left) == 0
    }
    return CanonicalTime(TimeStructure.of(len(clusters), prec), clusters)


def _tri_with_relation(size: int, prec: Relation, same: Relation) -> bool:
    for x, y in itertools.product(range(size), repeat=2):
        if (x, y) not in same.pairs and (x, y) not in prec.pairs and (y, x) not in prec.pairs:
            return False
    return True


@dataclass(frozen=True)
class Correspondence2Row:
    condition: TimeCondition
    on_ultrafilters: bool
    on_clusters: bool
    on_regions: bool

    @property
    def agree(self) -> bool:
        return self.on_ultrafilters == self.on_clusters == self.on_regions


def correspondence2(d: DCA) -> list[Correspondence2Row]:
    """Three formulations of each time axiom, which must agree on valid DCAs.

    Irreflexivity is omitted: only the one-directional check is available
    for it (see `irr_one_directional`).
    """
    canonical = canonical_time_structure(d)
    ult_structure = TimeStructure(d.base.atom_count, d.prec_rel.pairs)
    rows = []
    for cond in DCA_TIME_AXIOMS:
        if cond is TimeCondition.TRI:
            on_ult = _tri_with_relation(d.base.atom_count, d.prec_rel, d.time_rel)
        else:
            on_ult = check_time_condition(ult_structure, cond).holds
        on_clust = check_time_condition(canonical.structure, cond).holds
        on_regions = time_axiom_holds(d, cond)
        rows.append(Correspondence2Row(cond, on_ult, on_clust, on_regions))
    return rows


def irr_one_directional(d: DCA) -> dict[str, bool]:
    """Irreflexivity of the ultrafilter precedence versus the (irr) axiom.

    Only the forward implication is a theorem; the converse is recorded
    without being asserted.
    """
    d.require_valid()
    ult_irr = all((x, x) not in d.prec_rel.pairs for x in d.base.atoms())
    region_irr = time_axiom_holds(d, TimeCondition.IRR)
    return {
        "ultrafilter_irr": ult_irr,
        "region_irr": region_irr,
        "forward_holds": (not ult_irr) or region_irr,
        "converse_gap": region_irr and not ult_irr,
    }


def coordinate_algebra(d: DCA, cluster_support: int) -> FactorAlgebra:
    """Factor of the space contact by the s-clans inside one cluster.

    Every atom and every related atom pair is an s-clan, and a valid
    algebra's s-clans each lie inside one cluster; so the factor keeps the
    cluster's atoms and restricts the space contact to them, without
    listing the s-clans.
    """
    d.require_valid()
    if cluster_support not in _time_classes(d):
        raise PreconditionError(
            "coordinate algebras exist only at clusters", witness=cluster_support
        )
    kept = tuple(atoms_of(cluster_support))
    rows = d.space_rel.rows
    pairs = {(i, j) for i, x in enumerate(kept) for j, y in enumerate(kept) if rows[x] >> y & 1}
    return FactorAlgebra(d.cs_algebra, PrecontactAlgebra.from_atom_pairs(FiniteBA(len(kept)), pairs), kept)


@dataclass(frozen=True)
class CanonicalModel:
    """Full snapshot model extracted from a dynamic algebra."""

    source: DCA
    time: CanonicalTime
    factors: tuple[FactorAlgebra, ...]
    model: DMST

    def embed(self, a: int):
        """Coordinate-wise quotient image of an element in the model."""
        return tuple(f.project(a) for f in self.factors)


@lru_cache(maxsize=None)
def canonical_standard_dca(d: DCA) -> CanonicalModel:
    """Full snapshot model over the canonical time structure."""
    canonical = canonical_time_structure(d)
    factors = tuple(coordinate_algebra(d, support) for support in canonical.clusters)
    model = build_dmst(canonical.structure, [f.algebra for f in factors], mode="full")
    return CanonicalModel(d, canonical, factors, model)


def standard_dca(model: DMST) -> DCA:
    """Dynamic algebra induced on a snapshot model's regions.

    The region algebra is transported onto the powerset algebra over its
    atoms; the three relations are evaluated on atom pairs.  Validation is
    reported, not enforced: non-rich models may fail the interpolation
    axioms.
    """
    atoms, time, prec = model.atom_relations
    count = len(atoms)
    if (1 << count) != len(model.regions):
        raise ValidationError(
            "region universe is not a Boolean subalgebra", witness=(len(model.regions), count)
        )
    space = {
        (i, j)
        for i, u in enumerate(atoms)
        for j, v in enumerate(atoms)
        if model.space_contact(u, v)
    }
    return DCA(FiniteBA(count), Relation.of(count, space), time, prec)


def region_to_mask(model: DMST, atoms: list, region) -> int:
    """Element mask of a region w.r.t. the given region-algebra atoms."""
    model.region_index(region)
    out = 0
    for i, u in enumerate(atoms):
        if all(x & ~y == 0 for x, y in zip(u, region)):
            out |= 1 << i
    return out


def verify_embedding(d: DCA) -> Report:
    """Check that the canonical snapshot model represents the algebra.

    Covers the Boolean homomorphism laws, injectivity, preservation and
    reflection of all three relations, and the ten time-axiom equivalences
    between the algebra and its canonical model.  The embedding h is a
    coordinate-wise restriction and so preserves joins by construction, and
    every relation on both sides is additive in each argument; so h is
    checked on atoms, the relations are compared on atom pairs, and each time
    axiom is decided on the atoms of both sides (the algebra's atom relations,
    the model's atoms: a coordinate atom at one moment).
    """
    d.require_valid()
    canonical = canonical_standard_dca(d)
    model = canonical.model
    base = d.base
    h = canonical.embed
    atoms = [1 << x for x in base.atoms()]
    atom_pairs = [(a, b) for a in atoms for b in atoms]
    # Each atom's image, its projection on every factor, is computed once.
    image = {a: h(a) for a in atoms}

    report = Report(subject="snapshot representation")
    report.add("h(0)=0", h(0) == model.zero)
    report.add("h(1)=1", h(base.one) == model.one)

    witness = next(
        (
            (a, b)
            for a, b in atom_pairs
            if h(a | b) != model.join(image[a], image[b])
            or h(a & b) != model.meet(image[a], image[b])
        ),
        None,
    )
    report.add("h preserves join and meet", witness is None, witness)
    witness = next((a for a in atoms if h(base.one ^ a) != model.compl(image[a])), None)
    report.add("h preserves complement", witness is None, (witness,) if witness is not None else None)
    # An additive h is injective, and reflects the order, iff no atom's
    # image lies below the image of its complement.
    collapsed = next(
        (a for a in atoms if model.meet(image[a], h(base.one ^ a)) == image[a]), None
    )
    report.add(
        "h injective",
        collapsed is None,
        (base.one ^ collapsed, base.one) if collapsed is not None else None,
    )

    def three_way(name, left_rel, middle, right_rel):
        bad = next(
            (
                (a, b)
                for a, b in atom_pairs
                if not (
                    left_rel(a, b) == middle(image[a], image[b]) == right_rel(image[a], image[b])
                )
            ),
            None,
        )
        report.add(name, bad is None, bad)

    factors = canonical.factors

    def middle_cs(u, v):
        return any(f.algebra.related(p, q) for f, p, q in zip(factors, u, v))

    def middle_ct(u, v):
        return any(p and q for p, q in zip(u, v))

    def middle_b(u, v):
        return any(u[i] and v[j] for i, j in canonical.time.structure.prec)

    three_way("Cs respected", d.space_contact, middle_cs, model.space_contact)
    three_way("Ct respected", d.time_contact, middle_ct, model.time_contact)
    three_way("B respected", d.precedes, middle_b, model.precedes)

    report.add(
        "order respected",
        collapsed is None,
        (collapsed, base.one ^ collapsed) if collapsed is not None else None,
    )

    for cond in DCA_TIME_AXIOMS:
        in_d = time_axiom_holds(d, cond)
        in_model = time_axiom_holds(model, cond)
        report.add(f"time axiom {cond.region_axiom} preserved", in_d == in_model)
    return report


def is_trivial(d: DCA) -> bool:
    """Nonzero pairs are always in time contact and always in precedence.

    Both relations are additive, so this holds iff each relates all atom pairs.
    """
    d.require_valid()
    total = d.base.atom_count ** 2
    return len(d.time_rel.pairs) == total and len(d.prec_rel.pairs) == total
