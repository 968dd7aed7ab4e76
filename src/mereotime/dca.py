"""Abstract dynamic contact algebras and their snapshot representation.

A dynamic contact algebra carries a space contact, a time contact and a
local precedence relation over one finite Boolean algebra.  Relations are
stored in atom normal form, and the axioms are decided on those atom
relations; element-level relations are reconstructed on demand.

Results are cached on the structures they describe (`_cached`), and only
`contact.check_axioms` keeps a value-keyed table: the benchmark reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from typing import NamedTuple

from .boolean import FiniteBA, atoms_of, mask_of, meeting
from .contact import (
    CONTACT_AXIOMS,
    PRECONTACT_AXIOMS,
    FactorAlgebra,
    PrecontactAlgebra,
    Relation,
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

    @cached_property
    def cs_algebra(self) -> PrecontactAlgebra:
        return PrecontactAlgebra(self.base, self.space_rel)

    @cached_property
    def ct_algebra(self) -> PrecontactAlgebra:
        return PrecontactAlgebra(self.base, self.time_rel)

    @cached_property
    def report(self) -> Report:
        return validate_dca(self)

    @cached_property
    def axiom_failures(self) -> tuple[dict, dict, dict]:
        return time_axiom_failures(self.time_rel, self.prec_rel)

    @property
    def is_valid(self) -> bool:
        return self.report.ok

    def require_valid(self) -> None:
        self.report.require()


def _cached(fn):
    """fn(obj), computed once and kept in obj's `__dict__` under fn's name,
    as `cached_property` keeps its value."""
    key = fn.__name__

    @wraps(fn)
    def cached(obj):
        if key not in obj.__dict__:  # a caught KeyError would chain onto fn's errors
            obj.__dict__[key] = fn(obj)
        return obj.__dict__[key]

    return cached


def validate_dca(d: DCA) -> Report:
    """Decision of every defining axiom plus the derived atom facts; `d.report` keeps it.

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
    clusters: tuple[int, ...]


def canonical_time_structure(d: DCA) -> CanonicalTime:
    """Clusters as moments, clan precedence restricted to them."""
    d.require_valid()
    clusters = _time_classes(d)
    # Row i: the clusters inside the atoms that every atom of cluster i precedes.
    reach = [_common_successors(d, left) for left in clusters]
    rows = [sum(1 << j for j, right in enumerate(clusters) if not right & ~r) for r in reach]
    return CanonicalTime(TimeStructure.from_rows(len(clusters), rows), clusters)


def _tri_with_relation(prec: Relation, same: Relation) -> bool:
    """Every pair is related by `same` or by `prec` in one direction."""
    full = (1 << prec.size) - 1
    return all(s | p | c == full for s, p, c in zip(same.rows, prec.rows, prec.columns))


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

    Irreflexivity is omitted: only the one-directional check is available
    for it (see `irr_one_directional`).
    """
    on_clusters = canonical_time_structure(d).structure.condition_failures
    on_ultrafilters = d.axiom_failures[2]  # the time conditions of the precedence
    rows = []
    for cond in DCA_TIME_AXIOMS:
        if cond is TimeCondition.TRI:
            on_ult = _tri_with_relation(d.prec_rel, d.time_rel)
        else:
            on_ult = on_ultrafilters[cond] is None
        on_regions = time_axiom_holds(d, cond)
        rows.append(Correspondence2Row(cond, on_ult, on_clusters[cond] is None, on_regions))
    return rows


def irr_one_directional(d: DCA) -> dict[str, bool]:
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
    between the algebra and its canonical model.  The embedding h is a
    coordinate-wise restriction and so preserves joins by construction, and
    every relation on both sides is additive in each argument; so h is
    checked on atoms, each relation is compared row by row over the atoms
    (an atom's image read as a mask over the model's atoms), and each time
    axiom is decided on the atoms of both sides (the algebra's atom relations,
    the model's atoms: a coordinate atom at one moment).  A witness is the
    first failing atom pair in row-major order.
    """
    d.require_valid()
    canonical = canonical_standard_dca(d)
    model = canonical.model
    base = d.base
    h = canonical.embed
    atoms = [1 << x for x in base.atoms()]
    # Each atom's image, its projection on every factor, is computed once,
    # with its mask over the model's atoms and the moments where it is nonzero.
    image = [h(a) for a in atoms]
    masks = [model.region_index(u) for u in image]
    moments = [mask_of(k for k, part in enumerate(u) if part) for u in image]

    report = Report(subject="snapshot representation")
    report.add("h(0)=0", h(0) == model.zero)
    report.add("h(1)=1", h(base.one) == model.one)

    def first_pair(rows):  # the first pair in row-major order that `rows` relates
        x = next((x for x, row in enumerate(rows) if row), None)
        return None if x is None else (atoms[x], rows[x] & -rows[x])

    # h preserves joins, and so preserves meets iff distinct atoms have
    # disjoint images.
    witness = first_pair([meeting(masks, m) & ~a for a, m in zip(atoms, masks)])
    report.add("h preserves join and meet", witness is None, witness)
    witness = next((a for a, u in zip(atoms, image) if h(base.one ^ a) != model.compl(u)), None)
    report.add("h preserves complement", witness is None, (witness,) if witness is not None else None)
    # An additive h is injective, and reflects the order, iff no atom's
    # image lies below the image of its complement.
    collapsed = next(
        (a for a, u in zip(atoms, image) if model.meet(u, h(base.one ^ a)) == u), None
    )
    report.add(
        "h injective",
        collapsed is None,
        (base.one ^ collapsed, base.one) if collapsed is not None else None,
    )

    # Each relation as rows over the atoms: the algebra's own (left), the
    # canonical factors' and moments' (middle), and the model's (right).
    middle_cs = [0] * len(atoms)
    for k, f in enumerate(canonical.factors):
        parts = [u[k] for u in image]
        for x, part in enumerate(parts):
            middle_cs[x] |= meeting(parts, f.algebra.relation.forward_image(part))
    middle_b = canonical.time.structure.pullback(moments).rows
    model_time, model_prec = model.atom_relations
    for name, left, middle, on_model in (
        ("Cs respected", d.space_rel.rows, middle_cs, model.space_relation),
        ("Ct respected", d.time_rel.rows, [meeting(moments, m) for m in moments], model_time),
        ("B respected", d.prec_rel.rows, middle_b, model_prec),
    ):
        right = on_model.pullback(masks).rows
        witness = first_pair([(p ^ q) | (q ^ r) for p, q, r in zip(left, middle, right)])
        report.add(name, witness is None, witness)

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
    return d.time_rel == d.prec_rel == Relation.total(d.base.atom_count)
