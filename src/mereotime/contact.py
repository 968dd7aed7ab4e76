"""Precontact and contact relations on finite Boolean algebras.

A relation satisfying C1-C3 on a finite powerset algebra is determined by
its restriction to atoms (Jonsson-Tarski 1951), so precontact algebras are
stored in atom normal form: one successor mask per atom (`Relation.rows`).
Composition, converse and inclusion are word operations on those rows; the
ordered pairs are derived only for files and tests.  On that form C1-C3''
hold by construction, and C4, C5 and CE are decided together in one pass
over the rows (`check_axioms`): at atom x, one walk over x's successors
collects those whose rows miss x (C4: R <= R^T) and the join of their rows
(CE: R.R <= R), and the diagonal bit decides C5 (Id <= R).  The compositional axioms of a pair of precontacts, and the
interaction axioms of a dynamic algebra, are each one inclusion between
atom relations of equal size (`inclusion_check`).  A raw element-level
relation satisfies C1-C3'' iff it equals the relation its atom pairs span,
so it is accepted by that one comparison and otherwise rejected with the
smallest element pair on which the two differ.  Clans and clusters are the
grills of the cliques of the atom relation.  The exhaustive element-level
evaluators that certify these decisions live with the tests
(`tests/conftest.py`).

Derived results are cached on the structures they describe: an attribute
through `cached_attribute`, a module function of one structure through
`_cached`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

from .boolean import FiniteBA, Grill, atoms_of, mask_of, meeting, submasks
from .errors import DimensionMismatch, PreconditionError, ValidationError
from .reporting import Check, Report

PRECONTACT_AXIOMS = ("C1", "C2", "C3'", "C3''")
CONTACT_AXIOMS = PRECONTACT_AXIOMS + ("C4", "C5")


class cached_attribute:
    """An attribute computed by `func` on its first read and kept in the
    instance's `__dict__` under its name, where every later read finds it
    without reaching this descriptor.  Unlike `functools.cached_property`
    on Python 3.11, a first read takes no lock: two threads reading it at
    once may each compute the value, and one of the equal values is kept.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _cached(fn):
    """fn(obj), computed once and kept in obj's `__dict__` under fn's name,
    as `cached_attribute` keeps an attribute."""
    key = fn.__name__

    @wraps(fn)
    def cached(obj):
        if key not in obj.__dict__:  # a caught KeyError would chain onto fn's errors
            obj.__dict__[key] = fn(obj)
        return obj.__dict__[key]

    return cached


class Relation:
    """Binary relation on points 0..size-1: rows[x] is the mask of x's successors.

    `Relation(size, pairs)` and `Relation.of` build the rows from ordered
    pairs, `from_rows` takes them as given; `pairs` is derived afresh on
    each read, for files and tests, so a relation kept as a cache key holds
    only its rows.  Equal pairs give equal, and hash-equal, relations.
    """

    def __init__(self, size: int, pairs):
        rows = [0] * size
        for x, y in pairs:
            if not (0 <= x < size and 0 <= y < size):
                raise DimensionMismatch(f"pair ({x},{y}) out of range for size {size}")
            rows[x] |= 1 << y
        self.size = size
        self.rows = tuple(rows)

    @classmethod
    def of(cls, size: int, pairs) -> "Relation":
        return cls(size, ((int(x), int(y)) for x, y in pairs))

    @classmethod
    def from_rows(cls, size: int, rows) -> "Relation":
        rows = tuple(rows)
        if len(rows) != size or any(row < 0 or row >> size for row in rows):
            raise DimensionMismatch(f"rows {rows} out of range for size {size}")
        out = cls.__new__(cls)
        out.size, out.rows = size, rows
        return out

    @classmethod
    def identity(cls, size: int) -> "Relation":
        return cls.from_rows(size, (1 << i for i in range(size)))

    @classmethod
    def total(cls, size: int) -> "Relation":
        return cls.from_rows(size, ((1 << size) - 1,) * size)

    @classmethod
    def empty(cls, size: int) -> "Relation":
        return cls.from_rows(size, (0,) * size)

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.size, self.rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self.size}, pairs={sorted(self.pairs)})"

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x, row in enumerate(self.rows) for y in atoms_of(row))

    @cached_attribute
    def columns(self) -> tuple[int, ...]:
        """columns[y] is the mask of predecessors of y."""
        cols = [0] * self.size
        for x, row in enumerate(self.rows):
            bit = 1 << x
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        return tuple(cols)

    def __contains__(self, pair) -> bool:
        x, y = pair
        return 0 <= x < self.size and 0 <= y < self.size and bool(self.rows[x] >> y & 1)

    def converse(self) -> "Relation":
        return Relation.from_rows(self.size, self.columns)

    def compose(self, other: "Relation") -> "Relation":
        """Pairs (x,z) with an intermediate y: x self y and y other z."""
        if self.size != other.size:
            raise DimensionMismatch("composed relations have different sizes")
        return Relation.from_rows(self.size, map(other.forward_image, self.rows))

    def forward_image(self, a: int) -> int:
        out, rows = 0, self.rows
        while a:
            low = a & -a
            out |= rows[low.bit_length() - 1]
            a ^= low
        return out

    def pullback(self, masks) -> "Relation":
        """The relation induced on the point sets `masks`: row i holds the j
        such that some point of masks[i] relates to some point of masks[j]."""
        image = self.forward_image
        out = Relation.__new__(Relation)
        out.size, out.rows = len(masks), tuple([meeting(masks, image(m)) for m in masks])
        return out


def _require_same_size(left: Relation, right: Relation) -> None:
    if left.size != right.size:
        raise DimensionMismatch(f"compared relations have sizes {left.size} and {right.size}")


def _first_missing(left_rows, right_rows):
    """The smallest pair in `left_rows` but not `right_rows`, as singleton
    masks; the two hold the same number of rows."""
    for x, (left, right) in enumerate(zip(left_rows, right_rows)):
        missing = left & ~right
        if missing:
            return 1 << x, missing & -missing
    return None


# Adjacency spaces are relations read as point structures; no reflexivity
# or symmetry is assumed.
AdjacencySpace = Relation


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
        """Normalize a raw element-level relation, rejecting any that is not a precontact.

        The relation satisfies C1-C3'' iff it equals the relation spanned by
        its atom pairs; a rejection names the smallest element pair on which
        the two differ.
        """
        table = frozenset((base.check(a), base.check(b)) for a, b in related_pairs)
        algebra = cls.from_atom_pairs(
            base, ((x, y) for x in base.atoms() for y in base.atoms() if (1 << x, 1 << y) in table)
        )
        image = algebra.relation.forward_image
        spanned = frozenset((a, b) for a in base.elements() for b in base.elements() if image(a) & b)
        if spanned != table:
            raise ValidationError(
                "element relation is not a precontact: it differs from the relation its atom pairs span",
                witness=min(spanned ^ table),
            )
        return algebra

    def related(self, a: int, b: int) -> bool:
        self.base.check(a)
        self.base.check(b)
        return bool(self.relation.forward_image(a) & b)

    @cached_attribute
    def axiom_report(self) -> Report:
        return check_axioms(self)

    @cached_attribute
    def clique_supports(self) -> tuple[int, ...]:
        """Atom supports of the clans, lexicographic by atoms (`clans`)."""
        self.require_contact()
        return _cliques(self.relation.rows)

    @cached_attribute
    def contact_failure(self) -> Check | None:
        """The first failing contact axiom (C1-C5), or None: read from the
        axiom report once per algebra."""
        return self.axiom_report.first_failure(*CONTACT_AXIOMS)

    def require_contact(self) -> None:
        if self.contact_failure is not None:
            self.axiom_report.require(*CONTACT_AXIOMS)

    def require_ce(self) -> None:
        self.axiom_report.require(*CONTACT_AXIOMS, "CE")


def contact_from_adjacency(space: Relation) -> PrecontactAlgebra:
    """Precontact algebra over all subsets of an adjacency space."""
    if space.size < 1:
        raise ValidationError("adjacency space needs at least one point")
    return PrecontactAlgebra(FiniteBA(space.size), space)


def inclusion_check(name: str, left: Relation, right: Relation) -> Check:
    """Check left <= right on atom relations of the same size.

    The witness is the smallest atom pair of `left` missing from `right`,
    as singleton masks.  On atom-generated relations this decides the
    compositional axioms and the DCA interaction axioms.
    """
    _require_same_size(left, right)
    return _included(name, left.rows, right.rows)


def _included(name: str, left_rows, right_rows) -> Check:
    """`inclusion_check` on the rows of two relations of one size."""
    witness = _first_missing(left_rows, right_rows)
    return Check(name, witness is None, witness)


# Checks are immutable, so every report shares these.
_BY_CONSTRUCTION = tuple(Check(name, True) for name in PRECONTACT_AXIOMS)


@lru_cache(maxsize=None)
def check_axioms(algebra: PrecontactAlgebra) -> Report:
    """Axiom report for C1, C2, C3', C3'', C4, C5, C5' and CE.

    The relation is in atom normal form, so C1-C3'' hold by construction.
    C4 (R <= R^T), C5 (Id <= R) and CE (R.R <= R) are decided in one pass
    over the rows: at atom x, one walk over x's successors y collects the
    y whose row misses x and the join of their rows, x's image under R.R.
    Each witness is the first failing atom pair in row-major order, as
    singleton masks (C5' takes the atom alone).
    """
    rows = algebra.relation.rows
    c4 = c5 = ce = None
    for x, row in enumerate(rows):
        bit = 1 << x
        image = asymmetric = 0
        rest = row
        while rest:
            low = rest & -rest
            successors = rows[low.bit_length() - 1]
            image |= successors
            if not successors & bit:
                asymmetric |= low
            rest ^= low
        if asymmetric and c4 is None:
            c4 = (bit, asymmetric & -asymmetric)
        if not row & bit and c5 is None:
            c5 = (bit, bit)
        image &= ~row
        if image and ce is None:
            ce = (bit, image & -image)
    return Report(
        "precontact axioms",
        [
            *_BY_CONSTRUCTION,
            Check("C4", c4 is None, c4),
            Check("C5", c5 is None, c5),
            Check("C5'", c5 is None, c5 and c5[:1]),
            Check("CE", ce is None, ce),
        ],
    )


def canonical_relation(algebra: PrecontactAlgebra) -> Relation:
    """Atom pairs (x,y) such that every a containing x relates to every b containing y.

    In atom normal form these are exactly the stored pairs.
    """
    return algebra.relation


def check_compositional(first: PrecontactAlgebra, second: PrecontactAlgebra) -> Report:
    """Both compositional axioms for a pair of precontacts sharing a base.

    `first` plays C_R and `second` plays C_S.  On additive relations the
    interpolation axioms C_RC_S and C_SC_R are the inclusions R.S <= S and
    S.R <= S of the atom relations, and their first failing element pair is
    the smallest failing atom pair, as singleton masks.
    """
    if first.base != second.base:
        raise DimensionMismatch("compositional axioms need a common base algebra")
    r, s = first.relation, second.relation
    report = Report(subject="compositional axioms")
    report.extend([inclusion_check("C_RC_S", r.compose(s), s), inclusion_check("C_SC_R", s.compose(r), s)])
    return report


# A clan is named by its atom support, a clique of the atom relation; its
# members are the grill of that support.  Clusters are the maximal clans.
Clan = Cluster = Grill


def _maximal_cliques(size: int, relation: Relation) -> list[int]:
    """Maximal cliques of the (reflexive, symmetric) relation, as atom masks.

    Bron-Kerbosch with pivoting on bitmask vertex sets.
    """
    neighbors = [relation.rows[v] & ~(1 << v) for v in range(size)]
    out: list[int] = []
    _expand(neighbors, out, 0, (1 << size) - 1, 0)
    return [c for c in out if c]


def _expand(neighbors, out: list[int], clique: int, candidates: int, excluded: int) -> None:
    """Append to `out` the maximal cliques that grow `clique` by `candidates`
    and avoid `excluded`."""
    if candidates == 0 and excluded == 0:
        out.append(clique)
        return
    pool = candidates | excluded
    pivot = max(atoms_of(pool), key=lambda v: (candidates & neighbors[v]).bit_count())
    for v in atoms_of(candidates & ~neighbors[pivot]):
        bit = 1 << v
        _expand(neighbors, out, clique | bit, candidates & neighbors[v], excluded & neighbors[v])
        candidates &= ~bit
        excluded |= bit


def _cliques(rows) -> tuple[int, ...]:
    """Every nonempty clique of a reflexive symmetric relation, as atom masks.

    One depth-first walk: a clique is extended only by later atoms adjacent
    to all of its members, lowest first, so the cliques come out in
    lexicographic order of their atom tuples.
    """
    out: list[int] = []
    _extend(rows, out.append, 0, (1 << len(rows)) - 1)
    return tuple(out)


def _extend(rows, append, clique: int, candidates: int) -> None:
    """Pass to `append`, in lexicographic order, every clique that adds to
    `clique` a nonempty clique of `candidates`."""
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        grown = clique | low
        append(grown)
        _extend(rows, append, grown, candidates & rows[low.bit_length() - 1])


def clans(algebra: PrecontactAlgebra) -> list[Clan]:
    """All clans, i.e. nonempty cliques of the canonical atom relation.

    Sorted lexicographically by atom support.
    """
    return [Clan(algebra.base, m) for m in algebra.clique_supports]


def maximal_clans(algebra: PrecontactAlgebra) -> list[Clan]:
    algebra.require_contact()
    maximal = _maximal_cliques(algebra.base.atom_count, algebra.relation)
    return [Clan(algebra.base, m) for m in sorted(maximal, key=lambda m: tuple(atoms_of(m)))]


def clusters(algebra: PrecontactAlgebra) -> list[Clan]:
    """Maximal clans; under the Efremovich axiom these are exactly the clusters."""
    algebra.require_ce()
    return maximal_clans(algebra)


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
        return meeting([1 << atom for atom in self.kept_atoms], self.source.base.check(a))

    def kernel(self) -> frozenset[int]:
        """The ideal of elements collapsed to zero."""
        return frozenset(submasks(self.source.base.one & ~mask_of(self.kept_atoms)))


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
    bits = [1 << atom for atom in kept]
    rows = [0] * len(kept)
    for clan in selection:
        local = meeting(bits, clan.support)
        for i in atoms_of(local):
            rows[i] |= local
    quotient = PrecontactAlgebra(FiniteBA(len(kept)), Relation.from_rows(len(kept), rows))
    return FactorAlgebra(algebra, quotient, kept)
