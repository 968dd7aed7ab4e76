"""Precontact and contact relations on finite Boolean algebras.

A relation satisfying C1-C3 on a finite powerset algebra is determined by
its restriction to atoms, so precontact algebras are stored in atom normal
form: a set of ordered atom pairs.  On that form C1-C3'' hold by
construction and every other axiom is decided as one inclusion between atom
relations (`inclusion_check`).  Raw element-level relations are accepted
but validated against their normal form; non-monotone inputs are rejected
with a C1/C2/C3 witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .boolean import FiniteBA, atoms_of, mask_of, submasks
from .errors import DimensionMismatch, PreconditionError, ValidationError
from .reporting import Check, Report

PRECONTACT_AXIOMS = ("C1", "C2", "C3'", "C3''")
CONTACT_AXIOMS = PRECONTACT_AXIOMS + ("C4", "C5")


@dataclass(frozen=True)
class Relation:
    """Binary relation on points 0..size-1, stored as ordered pairs."""

    size: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for x, y in self.pairs:
            if not (0 <= x < self.size and 0 <= y < self.size):
                raise DimensionMismatch(f"pair ({x},{y}) out of range for size {self.size}")

    @classmethod
    def of(cls, size: int, pairs) -> "Relation":
        return cls(size, frozenset((int(x), int(y)) for x, y in pairs))

    @classmethod
    def identity(cls, size: int) -> "Relation":
        return cls(size, frozenset((i, i) for i in range(size)))

    @classmethod
    def total(cls, size: int) -> "Relation":
        return cls(size, frozenset(itertools.product(range(size), repeat=2)))

    @classmethod
    def empty(cls, size: int) -> "Relation":
        return cls(size, frozenset())

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """rows[x] is the mask of successors of x."""
        rows = [0] * self.size
        for x, y in self.pairs:
            rows[x] |= 1 << y
        return tuple(rows)

    @cached_property
    def columns(self) -> tuple[int, ...]:
        cols = [0] * self.size
        for x, y in self.pairs:
            cols[y] |= 1 << x
        return tuple(cols)

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def is_reflexive(self) -> bool:
        return all((i, i) in self.pairs for i in range(self.size))

    def is_symmetric(self) -> bool:
        return all((y, x) in self.pairs for x, y in self.pairs)

    def is_transitive(self) -> bool:
        for x, y in self.pairs:
            if self.rows[y] & ~self.rows[x]:
                return False
        return True

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def converse(self) -> "Relation":
        return Relation(self.size, frozenset((y, x) for x, y in self.pairs))

    def compose(self, other: "Relation") -> "Relation":
        """Pairs (x,z) with an intermediate y: x self y and y other z."""
        if self.size != other.size:
            raise DimensionMismatch("composed relations have different sizes")
        pairs = set()
        for x in range(self.size):
            succ = 0
            row = self.rows[x]
            for y in atoms_of(row):
                succ |= other.rows[y]
            pairs.update((x, z) for z in atoms_of(succ))
        return Relation(self.size, frozenset(pairs))

    def subset_of(self, other: "Relation") -> bool:
        return self.pairs <= other.pairs

    def forward_image(self, a: int) -> int:
        out = 0
        for x in atoms_of(a):
            out |= self.rows[x]
        return out

    def possibility_image(self, a: int) -> int:
        """Points with some successor inside `a` (the modal diamond)."""
        out = 0
        for x in range(self.size):
            if self.rows[x] & a:
                out |= 1 << x
        return out


# Adjacency spaces are relations read as point structures; no reflexivity
# or symmetry is assumed.
AdjacencySpace = Relation


def possibility_image(relation_like, a: int) -> int:
    rel = relation_like.relation if isinstance(relation_like, PrecontactAlgebra) else relation_like
    return rel.possibility_image(a)


@dataclass(frozen=True)
class PrecontactAlgebra:
    """Finite Boolean algebra with one relation in atom normal form.

    aCb holds iff some atom of a relates to some atom of b.
    """

    base: FiniteBA
    relation: Relation

    def __post_init__(self):
        if self.relation.size != self.base.atom_count:
            raise DimensionMismatch("relation does not match the algebra's atoms")

    @classmethod
    def from_atom_pairs(cls, base: FiniteBA, pairs) -> "PrecontactAlgebra":
        return cls(base, Relation.of(base.atom_count, pairs))

    @classmethod
    def overlap(cls, base: FiniteBA) -> "PrecontactAlgebra":
        """The smallest contact: aCb iff a.b != 0."""
        return cls(base, Relation.identity(base.atom_count))

    @classmethod
    def largest(cls, base: FiniteBA) -> "PrecontactAlgebra":
        """The largest contact: aCb iff a != 0 and b != 0."""
        return cls(base, Relation.total(base.atom_count))

    @classmethod
    def from_element_relation(cls, base: FiniteBA, related_pairs) -> "PrecontactAlgebra":
        """Normalize a raw element-level relation, rejecting non-monotone input."""
        table = frozenset((base.check(a), base.check(b)) for a, b in related_pairs)
        raw = lambda a, b: (a, b) in table
        for check in relation_axiom_checks(base, raw):
            if not check.holds:
                raise ValidationError(
                    f"element relation is not a precontact: {check.name} fails",
                    witness=check.witness,
                )
        pairs = {
            (x, y)
            for x in base.atoms()
            for y in base.atoms()
            if (1 << x, 1 << y) in table
        }
        algebra = cls.from_atom_pairs(base, pairs)
        regenerated = {
            (a, b) for a in base.elements() for b in base.elements() if algebra.related(a, b)
        }
        if regenerated != table:
            diff = (regenerated ^ table)
            raise ValidationError(
                "element relation disagrees with its atom normal form",
                witness=min(diff),
            )
        return algebra

    def related(self, a: int, b: int) -> bool:
        self.base.check(a)
        self.base.check(b)
        return bool(self.relation.forward_image(a) & b)

    @cached_property
    def axiom_report(self) -> Report:
        return check_axioms(self)

    def require_contact(self) -> None:
        self.axiom_report.require(*CONTACT_AXIOMS)

    def require_ce(self) -> None:
        self.axiom_report.require(*CONTACT_AXIOMS, "CE")


def contact_from_adjacency(space: Relation) -> PrecontactAlgebra:
    """Precontact algebra over all subsets of an adjacency space."""
    if space.size < 1:
        raise ValidationError("adjacency space needs at least one point")
    return PrecontactAlgebra(FiniteBA(space.size), space)


def element_rows(base: FiniteBA, rel) -> list[int]:
    """Element-level relation as bitmask rows: bit b of rows[a] means rel(a,b)."""
    out = []
    for a in base.elements():
        row = 0
        for b in base.elements():
            if rel(a, b):
                row |= 1 << b
        out.append(row)
    return out


def _transpose_rows(base: FiniteBA, rows) -> list[int]:
    cols = [0] * base.size
    for a, row in enumerate(rows):
        for b in atoms_of(row):
            cols[b] |= 1 << a
    return cols


def _star_columns(base: FiniteBA, rows) -> list[int]:
    """Bit c of result[b] means rel(c*, b)."""
    one = base.one
    cols = [0] * base.size
    for c in base.elements():
        for b in atoms_of(rows[one ^ c]):
            cols[b] |= 1 << c
    return cols


def interpolation_check(base: FiniteBA, name, premise, left, right) -> Check:
    """Check: not premise(a,b) implies some c with not left(a,c), not right(c*,b).

    This is the shared shape of the Efremovich axiom, the compositional
    axioms and the DCA interaction axioms, evaluated on every element pair.
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


def inclusion_check(name: str, left: Relation, right: Relation) -> Check:
    """Check left <= right on atom relations.

    The witness is the smallest atom pair of `left` missing from `right`,
    as singleton masks.  On atom-generated relations this decides C4
    (R <= R^T), C5 (Id <= R), CE (R.R <= R) and the DCA interaction axioms.
    """
    missing = left.pairs - right.pairs
    if not missing:
        return Check(name, True)
    x, y = min(missing)
    return Check(name, False, witness=(1 << x, 1 << y))


def _union_closure_defect(zero_set: int, members: list[int]):
    """A pair from `members` whose union leaves the zero set, if any."""
    for i, b in enumerate(members):
        for c in members[i:]:
            if not (zero_set >> (b | c)) & 1:
                return b, c
    return None


def relation_axiom_checks(base: FiniteBA, rel) -> list[Check]:
    """Exhaustive decision of C1, C2, C3' and C3'' for a raw relation.

    `rel` is any boolean function of two element masks; each axiom is
    quantified over all elements (through packed element rows) and a failing
    check carries a witness.
    """
    out: list[Check] = []
    rows = element_rows(base, rel)
    cols = _transpose_rows(base, rows)
    everything = (1 << base.size) - 1

    witness = None
    if rows[0]:
        witness = (0, next(atoms_of(rows[0])))
    else:
        bad = next((a for a in base.elements() if rows[a] & 1), None)
        if bad is not None:
            witness = (bad, 0)
    out.append(Check("C1", witness is None, witness))

    # Single-atom growth steps suffice: supersets are reached one atom at a
    # time and the implications compose.
    witness = None
    for x in base.atoms():
        bit = 1 << x
        for a in base.elements():
            if a & bit:
                continue
            stray = rows[a] & ~rows[a | bit]
            if stray:
                b = next(atoms_of(stray))
                witness = (a, b, a | bit, b)
                break
            bad = next(
                (
                    b
                    for b in atoms_of(rows[a])
                    if not b & bit and not (rows[a] >> (b | bit)) & 1
                ),
                None,
            )
            if bad is not None:
                witness = (a, bad, a, bad | bit)
                break
        if witness:
            break
    out.append(Check("C2", witness is None, witness))

    witness = None
    for a in base.elements():
        zero_set = ~rows[a] & everything
        defect = _union_closure_defect(zero_set, list(atoms_of(zero_set)))
        if defect:
            witness = (a, defect[0], defect[1])
            break
    out.append(Check("C3'", witness is None, witness))

    witness = None
    for c in base.elements():
        zero_set = ~cols[c] & everything
        defect = _union_closure_defect(zero_set, list(atoms_of(zero_set)))
        if defect:
            witness = (defect[0], defect[1], c)
            break
    out.append(Check("C3''", witness is None, witness))
    return out


@lru_cache(maxsize=None)
def check_axioms(algebra: PrecontactAlgebra) -> Report:
    """Axiom report for C1, C2, C3', C3'', C4, C5, C5' and CE.

    The relation is in atom normal form, so C1-C3'' hold by construction
    and the rest are decided as inclusions of atom relations.
    """
    r = algebra.relation
    c5 = inclusion_check("C5", Relation.identity(r.size), r)
    report = Report(subject="precontact axioms")
    report.extend([Check(name, True) for name in PRECONTACT_AXIOMS])
    report.extend(
        [
            inclusion_check("C4", r, r.converse()),
            c5,
            Check("C5'", c5.holds, c5.witness and c5.witness[:1]),
            inclusion_check("CE", r.compose(r), r),
        ]
    )
    return report


def canonical_relation(algebra: PrecontactAlgebra) -> Relation:
    """Atom pairs (x,y) such that every a containing x relates to every b containing y.

    In atom normal form these are exactly the stored pairs.
    """
    return algebra.relation


def check_compositional(first: PrecontactAlgebra, second: PrecontactAlgebra) -> Report:
    """Both compositional axioms for a pair of precontacts sharing a base.

    `first` plays C_R and `second` plays C_S.  The element-level conditions
    are cross-checked against the inclusions R.S <= S and S.R <= S of their
    atom relations; the two formulations must agree.
    """
    if first.base != second.base:
        raise DimensionMismatch("compositional axioms need a common base algebra")
    base = first.base
    c_r, c_s = first.related, second.related
    report = Report(subject="compositional axioms")
    crcs = interpolation_check(
        base, "C_RC_S", premise=c_s, left=c_r, right=c_s
    )
    cscr = interpolation_check(
        base, "C_SC_R", premise=c_s, left=c_s, right=c_r
    )
    report.extend([crcs, cscr])
    r, s = first.relation, second.relation
    ros = r.compose(s).subset_of(s)
    sor = s.compose(r).subset_of(s)
    report.add("R.S<=S", ros)
    report.add("S.R<=S", sor)
    report.add("C_RC_S agrees with R.S<=S", crcs.holds == ros, witness=crcs.witness)
    report.add("C_SC_R agrees with S.R<=S", cscr.holds == sor, witness=cscr.witness)
    return report


@dataclass(frozen=True)
class Clan:
    """Clan of a contact algebra, named by its atom support.

    The support is a clique of the canonical atom relation; the induced
    member set is the grill of the support.
    """

    algebra: FiniteBA
    support: int

    def __post_init__(self):
        self.algebra.check(self.support)
        if self.support == 0:
            raise ValidationError("clan support must be nonempty")

    def contains(self, a: int) -> bool:
        return bool(self.algebra.check(a) & self.support)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(a for a in self.algebra.elements() if a & self.support)

    def atom_tuple(self) -> tuple[int, ...]:
        return tuple(atoms_of(self.support))


Cluster = Clan


def _maximal_cliques(size: int, relation: Relation) -> list[int]:
    """Maximal cliques of the (reflexive, symmetric) relation, as atom masks.

    Bron-Kerbosch with pivoting on bitmask vertex sets.
    """
    neighbors = [relation.rows[v] & ~(1 << v) for v in range(size)]
    out: list[int] = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if candidates == 0 and excluded == 0:
            out.append(clique)
            return
        pool = candidates | excluded
        pivot = max(atoms_of(pool), key=lambda v: (candidates & neighbors[v]).bit_count())
        for v in atoms_of(candidates & ~neighbors[pivot]):
            bit = 1 << v
            expand(clique | bit, candidates & neighbors[v], excluded & neighbors[v])
            candidates &= ~bit
            excluded |= bit

    expand(0, (1 << size) - 1, 0)
    return [c for c in out if c]


def _clique_closure(maximal: list[int]) -> list[int]:
    seen: set[int] = set()
    for clique in maximal:
        for sub in submasks(clique):
            if sub:
                seen.add(sub)
    return sorted(seen, key=lambda m: tuple(atoms_of(m)))


def clans(algebra: PrecontactAlgebra) -> list[Clan]:
    """All clans, i.e. nonempty cliques of the canonical atom relation.

    Sorted lexicographically by atom support.
    """
    algebra.require_contact()
    maximal = _maximal_cliques(algebra.base.atom_count, algebra.relation)
    return [Clan(algebra.base, m) for m in _clique_closure(maximal)]


def maximal_clans(algebra: PrecontactAlgebra) -> list[Clan]:
    algebra.require_contact()
    maximal = _maximal_cliques(algebra.base.atom_count, algebra.relation)
    return [Clan(algebra.base, m) for m in sorted(maximal, key=lambda m: tuple(atoms_of(m)))]


def clusters(algebra: PrecontactAlgebra) -> list[Clan]:
    """Maximal clans; under the Efremovich axiom these are exactly the clusters."""
    algebra.require_ce()
    return maximal_clans(algebra)


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


@dataclass(frozen=True)
class FactorAlgebra:
    """Quotient of a contact algebra by a nonempty set of clans.

    Realized concretely as the powerset algebra over the union of the clan
    supports; the quotient map sends a to its restriction to the kept atoms.
    """

    source: PrecontactAlgebra
    algebra: PrecontactAlgebra
    kept_atoms: tuple[int, ...]

    def project(self, a: int) -> int:
        self.source.base.check(a)
        out = 0
        for i, atom in enumerate(self.kept_atoms):
            if a & (1 << atom):
                out |= 1 << i
        return out

    def kernel(self) -> frozenset[int]:
        """The ideal of elements collapsed to zero."""
        kept = mask_of(self.kept_atoms)
        return frozenset(a for a in self.source.base.elements() if a & kept == 0)


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
            raise ValidationError(
                "selection contains a non-clan", witness=(getattr(clan, "support", clan),)
            )
    kept_mask = 0
    for clan in selection:
        kept_mask |= clan.support
    kept = tuple(atoms_of(kept_mask))
    index = {atom: i for i, atom in enumerate(kept)}
    pairs = set()
    for clan in selection:
        support_atoms = list(atoms_of(clan.support))
        for x in support_atoms:
            for y in support_atoms:
                pairs.add((index[x], index[y]))
    quotient = PrecontactAlgebra.from_atom_pairs(FiniteBA(len(kept)), pairs)
    return FactorAlgebra(algebra, quotient, kept)
