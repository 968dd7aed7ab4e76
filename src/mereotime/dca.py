"""Abstract dynamic contact algebras and their snapshot representation.

A dynamic contact algebra carries a space contact, a time contact and a
local precedence relation over one finite Boolean algebra.  Relations are
stored in atom normal form, and the axioms are decided on those atom
relations; element-level relations are reconstructed on demand.

Results are cached on the structures they describe (`contact._cached`),
and only `contact.check_axioms` keeps a value-keyed table: the benchmark
reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .boolean import FiniteBA, SetAlgebra, atoms_of, mask_of, meeting
from .contact import (
    CONTACT_AXIOMS,
    PRECONTACT_AXIOMS,
    FactorAlgebra,
    PrecontactAlgebra,
    Relation,
    _cached,
    _included,
    cached_attribute,
)
from .errors import PreconditionError, ValidationError
from .reporting import Check, Report
from .snapshot import (
    DCA_TIME_AXIOMS,
    DMST,
    TimeCondition,
    TimeStructure,
    build_dmst,
    time_axiom_failures,
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

    @cached_attribute
    def cs_algebra(self) -> PrecontactAlgebra:
        return PrecontactAlgebra(self.base, self.space_rel)

    @cached_attribute
    def ct_algebra(self) -> PrecontactAlgebra:
        return PrecontactAlgebra(self.base, self.time_rel)

    @cached_attribute
    def report(self) -> Report:
        return validate_dca(self)

    @cached_attribute
    def axiom_failures(self) -> tuple[dict, dict, dict]:
        return time_axiom_failures(self.time_rel, self.prec_rel)

    @property
    def is_valid(self) -> bool:
        return self.report.ok

    def require_valid(self) -> None:
        self.report.require()


# Checks are immutable, so every report shares these.
_PRECEDENCE_AXIOMS = tuple(Check(f"B:{name}", True) for name in PRECONTACT_AXIOMS)


def validate_dca(d: DCA) -> Report:
    """Decision of every defining axiom plus the derived atom facts; `d.report` keeps it.

    Verdicts are decided on the stored atom relations: C1-C3'' hold by
    construction, and Cs<=Ct, CtE, CtB, BCt and the contact axioms C4 and
    C5 are each one inclusion of atom relations, whose witness is the
    smallest missing atom pair as singleton masks.  The rows of Rt.prec,
    prec.Rt and Rt.prec.Rt are each composed once.
    """
    rs, rt, pr = d.space_rel.rows, d.time_rel.rows, d.prec_rel.rows
    rt_image, pr_image = d.time_rel.forward_image, d.prec_rel.forward_image
    rt_pr = [pr_image(row) for row in rt]
    pr_rt = [rt_image(row) for row in pr]
    rt_pr_rt = [rt_image(row) for row in rt_pr]
    cs = {c.name: c for c in d.cs_algebra.axiom_report.checks}
    ct = {c.name: c for c in d.ct_algebra.axiom_report.checks}
    inclusion = _included("Cs<=Ct", rs, rt)
    ctb = _included("CtB", rt_pr, pr)
    bct = _included("BCt", pr_rt, pr)
    cte = ct["CE"]
    fact1 = next((c for c in (ct["C4"], ct["C5"], cte) if not c.holds), cte)
    return Report(
        "dynamic contact algebra",
        [
            *(Check(f"Cs:{name}", cs[name].holds, cs[name].witness) for name in CONTACT_AXIOMS),
            *(Check(f"Ct:{name}", ct[name].holds, ct[name].witness) for name in CONTACT_AXIOMS),
            inclusion,
            Check("CtE", cte.holds, cte.witness),
            *_PRECEDENCE_AXIOMS,
            ctb,
            bct,
            Check("fact1:Rt equivalence", fact1.holds, fact1.witness),
            Check("fact2:Rt.prec<=prec", ctb.holds, ctb.witness),
            Check("fact3:prec.Rt<=prec", bct.holds, bct.witness),
            _included("fact4:Rt.prec.Rt<=prec", rt_pr_rt, pr),
            Check("fact5:Rs<=Rt", inclusion.holds, inclusion.witness),
        ],
    )


def from_contact_algebra(ca: PrecontactAlgebra) -> DCA:
    """Trivial dynamic algebra of a contact algebra.

    Space contact is the given contact, time contact relates all nonzero
    pairs, and precedence coincides with time contact.
    """
    failing = ca.contact_failure
    if failing is not None:
        raise PreconditionError(f"not a contact algebra: {failing.name} fails", witness=failing.witness)
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


def _common_successors(d: DCA, support: int) -> int:
    """The atoms that every atom of `support` precedes."""
    reach = d.base.one
    for x in atoms_of(support):
        reach &= d.prec_rel.rows[x]
    return reach


def _time_classes(d: DCA) -> tuple[int, ...]:
    """The clusters: classes of the time equivalence, by their lowest atom."""
    return tuple(sorted({d.time_rel.rows[x] for x in d.base.atoms()}, key=lambda m: m & -m))


def t_clan_count(d: DCA) -> int:
    """The number of t-clans of a valid algebra, without listing them: Ct is
    an equivalence, so they are the nonempty subsets of its classes."""
    return sum((1 << c.bit_count()) - 1 for c in _time_classes(d))


def clan_structure(d: DCA) -> ClanStructure:
    """Enumerate s-clans, t-clans and clusters with gamma and clan precedence.

    Clan precedence is decided by its ultrafilter characterization: every
    atom of the left clan precedes every atom of the right one.  It is kept
    as one row per t-clan (`reach`), the atoms that every atom of the clan
    precedes; the right clan must lie inside it.
    """
    d.require_valid()
    s_clans = d.cs_algebra.clique_supports
    t_clans = d.ct_algebra.clique_supports
    gamma = {}
    for support in t_clans:
        lowest = next(atoms_of(support))
        enclosing = d.time_rel.rows[lowest]
        if support & ~enclosing:
            raise ValidationError("t-clan escapes its time equivalence class", witness=(support,))
        gamma[support] = enclosing

    reach = tuple(_common_successors(d, left) for left in t_clans)
    return ClanStructure(s_clans, t_clans, _time_classes(d), gamma, reach)


@dataclass(frozen=True)
class CanonicalTime:
    structure: TimeStructure
    clusters: SetAlgebra


def canonical_time_structure(d: DCA) -> CanonicalTime:
    """Clusters as moments, clan precedence restricted to them."""
    d.require_valid()
    clusters = SetAlgebra(_time_classes(d))
    # Row i: the clusters inside the atoms that every atom of cluster i precedes.
    rows = [clusters.index(_common_successors(d, left)) for left in clusters]
    return CanonicalTime(TimeStructure.from_rows(len(clusters), rows), clusters)


class Correspondence2Row(NamedTuple):
    condition: TimeCondition
    on_ultrafilters: bool
    on_clusters: bool
    on_regions: bool

    @property
    def agree(self) -> bool:
        return self.on_ultrafilters == self.on_clusters == self.on_regions


def correspondence2(d: DCA) -> list[Correspondence2Row]:
    """Three formulations of each time axiom, which must agree on valid DCAs.

    Irreflexivity is omitted: of its correspondence only the forward
    implication, from irreflexive ultrafilter precedence to the (irr)
    axiom, is a theorem.
    """
    on_clusters = canonical_time_structure(d).structure.condition_failures
    universal, _, on_prec = d.axiom_failures
    # The time conditions of the precedence, but TRI: every atom pair is in
    # time contact or in precedence one way, the region axiom's own kernel.
    on_ult = {**on_prec, TimeCondition.TRI: universal[TimeCondition.TRI]}
    return [
        Correspondence2Row(cond, on_ult[cond] is None, on_clusters[cond] is None, time_axiom_holds(d, cond))
        for cond in DCA_TIME_AXIOMS
    ]


def coordinate_algebra(d: DCA, cluster_support: int) -> FactorAlgebra:
    """Factor of the space contact by the s-clans inside one cluster.

    Every atom and every related atom pair is an s-clan, and a valid
    algebra's s-clans each lie inside one cluster; so the factor keeps the
    cluster's atoms and restricts the space contact to them, without
    listing the s-clans.
    """
    d.require_valid()
    if cluster_support not in d.time_rel.rows:  # a valid Ct's rows are its classes
        raise PreconditionError(
            "coordinate algebras exist only at clusters", witness=cluster_support
        )
    kept = tuple(atoms_of(cluster_support))
    relation = d.space_rel.pullback([1 << x for x in kept])
    return FactorAlgebra(d.cs_algebra, PrecontactAlgebra(FiniteBA(len(kept)), relation), kept)


@dataclass(frozen=True)
class CanonicalModel:
    """Full snapshot model extracted from a dynamic algebra."""

    time: CanonicalTime
    factors: tuple[FactorAlgebra, ...]
    model: DMST

    def embed(self, a: int):
        """Coordinate-wise quotient image of an element in the model."""
        return tuple(f.project(a) for f in self.factors)


@_cached
def canonical_standard_dca(d: DCA) -> CanonicalModel:
    """Full snapshot model over the canonical time structure."""
    canonical = canonical_time_structure(d)
    factors = tuple(coordinate_algebra(d, support) for support in canonical.clusters)
    model = build_dmst(canonical.structure, [f.algebra for f in factors], mode="full")
    return CanonicalModel(canonical, factors, model)


def standard_dca(model: DMST) -> DCA:
    """Dynamic algebra induced on a snapshot model's regions.

    The region algebra is the powerset algebra over the model's cells, and
    the three relations are its atom relations: space contact read from the
    coordinate rows, time contact and precedence from the cells' moments.
    Validation is reported, not enforced: non-rich models may fail the
    interpolation axioms.
    """
    time, prec = model.atom_relations
    return DCA(FiniteBA(len(model.cells)), model.space_relation, time, prec)


def verify_embedding(d: DCA) -> Report:
    """Check that the canonical snapshot model represents the algebra.

    Covers the Boolean homomorphism laws, injectivity, preservation and
    reflection of all three relations, and the ten time-axiom equivalences
    between the algebra and its canonical model.  Its moments are the
    clusters and its coordinate atoms the clusters' atoms, so h, a
    coordinate-wise restriction, sends each atom to the one coordinate atom
    that keeps it: each atom's image is read off the factors once, as a mask
    over the model's cells.  h preserves joins by construction, so the
    Boolean laws are word operations on the masks; every relation is
    additive and is compared row by row over the atoms, and each time axiom
    is decided on the atoms of both sides.  A witness is the first failing
    atom pair in row-major order.
    """
    d.require_valid()
    canonical = canonical_standard_dca(d)
    model = canonical.model
    base = d.base
    h = canonical.embed
    atoms = [1 << x for x in base.atoms()]
    # Coordinate atom i of moment k is the full model's packed bit
    # layout[k][0] + i; `|=` keeps an atom that two factors keep visible.
    masks, moments, middle_cs = [0] * len(atoms), [0] * len(atoms), [0] * len(atoms)
    for k, ((shift, _), f) in enumerate(zip(model.layout, canonical.factors)):
        kept = f.kept_atoms
        for i, (x, row) in enumerate(zip(kept, f.algebra.relation.rows)):
            masks[x] |= 1 << shift + i
            moments[x] |= 1 << k
            middle_cs[x] |= mask_of(kept[j] for j in atoms_of(row))
    covered = twice = 0  # the cells some image holds, and those two images hold
    for m in masks:
        covered, twice = covered | m, twice | covered & m

    report = Report(subject="snapshot representation")
    report.add("h(0)=0", h(0) == model.zero)
    report.add("h(1)=1", h(base.one) == model.one)

    def first_pair(rows):  # the first pair in row-major order that `rows` relates
        x = next((x for x, row in enumerate(rows) if row), None)
        return None if x is None else (atoms[x], rows[x] & -rows[x])

    # h preserves joins, and so preserves meets iff distinct atoms have
    # disjoint images.
    witness = first_pair([meeting(masks, m) & ~a if m & twice else 0 for a, m in zip(atoms, masks)])
    report.add("h preserves join and meet", witness is None, witness)
    # h(1 - a) joins the other atoms' images: it is the complement of h(a)
    # iff the images cover the cells and h(a) meets no other image.
    whole = covered == (1 << len(model.cells)) - 1
    witness = next((a for a, m in zip(atoms, masks) if not whole or m & twice), None)
    report.add("h preserves complement", witness is None, witness and (witness,))
    # An additive h is injective, and reflects the order, iff no atom's
    # image lies below the image of its complement.
    collapsed = next((a for a, m in zip(atoms, masks) if not m & ~twice), None)
    report.add("h injective", collapsed is None, collapsed and (base.one ^ collapsed, base.one))

    # Each relation as rows over the atoms: the algebra's own (left), the
    # canonical factors' and moments' (middle), and the model's (right).
    middle_ct = Relation.identity(model.time.size).pullback(moments).rows
    middle_b = canonical.time.structure.pullback(moments).rows
    model_time, model_prec = model.atom_relations
    for name, left, middle, on_model in (
        ("Cs respected", d.space_rel.rows, middle_cs, model.space_relation),
        ("Ct respected", d.time_rel.rows, middle_ct, model_time),
        ("B respected", d.prec_rel.rows, middle_b, model_prec),
    ):
        right = on_model.pullback(masks).rows
        witness = first_pair([(p ^ q) | (q ^ r) for p, q, r in zip(left, middle, right)])
        report.add(name, witness is None, witness)

    report.add("order respected", collapsed is None, collapsed and (collapsed, base.one ^ collapsed))

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
    return d.time_rel == d.prec_rel == Relation.total(d.base.atom_count)
