"""Time structures and the snapshot construction of dynamic models.

A dynamic model attaches one coordinate contact algebra to every moment of
a finite time structure; regions are per-moment histories.  The module also
decides the region-level time axioms, on snapshot models and on abstract
dynamic algebras alike: time contact and precedence are additive, so each
axiom is a first-order condition on the atoms of the carrier and is decided
on their rows in O(n^2) to O(n^3) word operations.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property

from .contact import PrecontactAlgebra, Relation
from .errors import CapabilityError, MembershipError, PreconditionError, ValidationError
from .reporting import Check
from .boolean import atoms_of


class TimeCondition(enum.Enum):
    """First-order conditions on a before-after relation."""

    RS = "right seriality"
    LS = "left seriality"
    UP_DIR = "updirectedness"
    DOWN_DIR = "downdirectedness"
    CIRC = "circularity"
    DENS = "density"
    REF = "reflexivity"
    IRR = "irreflexivity"
    LIN = "linearity"
    TRI = "trichotomy"
    TR = "transitivity"

    @property
    def region_axiom(self) -> str:
        """Name of the matching region-level time axiom."""
        return "(" + self.name.lower().replace("_", " ") + ")"


TIME_CONDITIONS = tuple(TimeCondition)
# The correspondence between cluster structure and region axioms omits
# irreflexivity; see the one-directional check in the dca module.
DCA_TIME_AXIOMS = tuple(c for c in TimeCondition if c is not TimeCondition.IRR)
FREE_VARIABLE_AXIOMS = frozenset(
    {TimeCondition.UP_DIR, TimeCondition.DOWN_DIR, TimeCondition.CIRC, TimeCondition.DENS}
)
# Most regions a full model may have.  Every command reading a full model
# enumerates its regions.  Seconds per command, in process, on full models
# with one moment and one path-contact coordinate (`represent` on the
# model's algebra; median of three, Python 3.11 on a Xeon core), and the
# peak resident memory of `represent`:
#     regions   check   correspondence   represent   peak MB
#       1,024   0.005       0.003          0.016
#       4,096   0.007       0.005          0.022
#      16,384   0.022       0.010          0.035        23
#      65,536   0.061       0.034          0.081        31
#     262,144   0.236       0.153          0.224        65
# All three grow with the region count alone; the bound keeps every
# command under 0.1 s.
FULL_REGION_CAP = 1 << 16


@dataclass(frozen=True)
class TimeStructure:
    """Finite set of moments 0..point_count-1 with a before-after relation."""

    point_count: int
    prec: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.point_count < 1:
            raise ValidationError("time structure needs at least one moment")
        for i, j in self.prec:
            if not (0 <= i < self.point_count and 0 <= j < self.point_count):
                raise ValidationError(f"moment pair ({i},{j}) out of range")

    @classmethod
    def of(cls, point_count: int, prec) -> "TimeStructure":
        return cls(point_count, frozenset((int(i), int(j)) for i, j in prec))

    @cached_property
    def relation(self) -> Relation:
        return Relation(self.point_count, self.prec)

    def before(self, i: int, j: int) -> bool:
        return (i, j) in self.prec

    def moments(self) -> range:
        return range(self.point_count)


def check_time_condition(ts: TimeStructure, cond: TimeCondition) -> Check:
    """Decide one time condition exhaustively; failures carry the smallest witness."""
    t = list(ts.moments())
    before = ts.before
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
    else:  # pragma: no cover
        raise ValueError(f"unknown condition {cond}")
    return Check(name, True)


def check_time_axiom(source, cond: TimeCondition, existential_p: bool = False) -> Check:
    """Decide one region-level time axiom on a dynamic algebra or model.

    Time contact and precedence are additive, so each axiom is decided on
    the atoms of the carrier: a DCA's stored atom relations, or a model's
    region atoms.  The four axioms displaying a free variable p are read
    with p universally quantified; `existential_p=True` decides the
    alternative reading for comparison.  A witness is the first failing
    instance, as elements of the carrier (singleton masks or atom regions,
    and p as the join of a row of atoms).
    """
    witness = _atom_failure(cond, existential_p, *_atom_frame(source))
    if witness is None:
        return Check(cond.region_axiom, True)
    if isinstance(source, DMST):
        atoms = source.atom_relations[0]
        witness = tuple(_region_of(source, atoms, mask) for mask in witness)
    return Check(cond.region_axiom, False, witness=witness)


def time_axiom_holds(source, cond: TimeCondition, existential_p: bool = False) -> bool:
    """The verdict of `check_time_axiom`, without building its witness."""
    return _atom_failure(cond, existential_p, *_atom_frame(source)) is None


def _atom_frame(source) -> tuple:
    """Time-contact rows, precedence rows and precedence columns of the atoms."""
    if isinstance(source, DMST):
        _, time_rel, prec_rel = source.atom_relations
    else:
        time_rel, prec_rel = source.time_rel, source.prec_rel
    return time_rel.rows, prec_rel.rows, prec_rel.columns


def _atom_failure(cond: TimeCondition, existential_p: bool, t_rows, p_rows, p_cols):
    """First failing instance of a region axiom on the atom frame, as atom masks.

    For additive relations each axiom is a first-order condition on atoms
    (xTy, xPy), and its first failing element instance is a pair of atoms:
    a failure at elements a, b is a failure at some atoms x of a and y of b.
    """
    atoms = range(len(p_rows))
    pairs = itertools.product(atoms, atoms)
    if cond is TimeCondition.RS:
        return next(((1 << x,) for x in atoms if not p_rows[x]), None)
    if cond is TimeCondition.LS:
        return next(((1 << x,) for x in atoms if not p_cols[x]), None)
    if cond in FREE_VARIABLE_AXIOMS:
        # Each says: for every p (for some p, existentially) one of two
        # precedence facts holds.  On atoms x, y in scope that is: the rows
        # `left` and `right` meet (one is nonempty), and the first p to
        # fail the universal reading is `right` itself.
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
    if cond is TimeCondition.REF:
        return next(
            ((1 << x, _lowest(t_rows[x] & ~p_rows[x])) for x in atoms if t_rows[x] & ~p_rows[x]),
            None,
        )
    if cond is TimeCondition.IRR:
        failing = (
            (x, y)
            for x, y in pairs
            if p_rows[x] >> y & 1
            and not any(t_rows[y] & ~t_rows[z] for z in atoms_of(t_rows[x]))
        )
    elif cond is TimeCondition.LIN:
        failing = ((x, y) for x, y in pairs if not (p_rows[x] >> y | p_cols[x] >> y) & 1)
    elif cond is TimeCondition.TRI:
        failing = (
            (x, y) for x, y in pairs if not (t_rows[x] >> y | p_rows[x] >> y | p_cols[x] >> y) & 1
        )
    elif cond is TimeCondition.TR:
        for x in atoms:
            two_steps = 0
            for z in atoms_of(p_rows[x]):
                two_steps |= p_rows[z]
            if two_steps & ~p_rows[x]:
                return 1 << x, _lowest(two_steps & ~p_rows[x])
        return None
    else:  # pragma: no cover
        raise ValueError(f"unknown axiom {cond}")
    return next(((1 << x, 1 << y) for x, y in failing), None)


def _lowest(mask: int) -> int:
    return mask & -mask


def reading_comparison(source, cond: TimeCondition) -> tuple[bool, bool]:
    """Truth of a free-variable axiom under the universal and existential readings."""
    return time_axiom_holds(source, cond), time_axiom_holds(source, cond, existential_p=True)


Region = tuple[int, ...]


@dataclass(frozen=True)
class DMST:
    """Dynamic model of space and time: a region universe over snapshots."""

    time: TimeStructure
    coordinates: tuple[PrecontactAlgebra, ...]
    regions: tuple[Region, ...]

    def __post_init__(self):
        if len(self.coordinates) != self.time.point_count:
            raise ValidationError("one coordinate algebra per moment required")

    def region_index(self, a: Region) -> int:
        try:
            return self._region_lookup[a]
        except KeyError:
            raise MembershipError(f"region {a!r} does not belong to this model") from None

    @cached_property
    def _region_lookup(self):
        return {r: i for i, r in enumerate(self.regions)}

    @property
    def zero(self) -> Region:
        return tuple(0 for _ in self.coordinates)

    @property
    def one(self) -> Region:
        return tuple(c.base.one for c in self.coordinates)

    def meet(self, a: Region, b: Region) -> Region:
        return tuple(x & y for x, y in zip(a, b))

    def join(self, a: Region, b: Region) -> Region:
        return tuple(x | y for x, y in zip(a, b))

    def compl(self, a: Region) -> Region:
        return tuple(c.base.one ^ x for c, x in zip(self.coordinates, a))

    def is_nonzero(self, a: Region) -> bool:
        return any(a)

    def space_contact(self, a: Region, b: Region) -> bool:
        self.region_index(a), self.region_index(b)
        return any(c.related(x, y) for c, x, y in zip(self.coordinates, a, b))

    def time_contact(self, a: Region, b: Region) -> bool:
        self.region_index(a), self.region_index(b)
        return any(x and y for x, y in zip(a, b))

    def precedes(self, a: Region, b: Region) -> bool:
        self.region_index(a), self.region_index(b)
        return any(a[m] and b[n] for m, n in self.time.prec)

    @cached_property
    def atom_relations(self) -> tuple[list[Region], Relation, Relation]:
        """Region atoms with time contact and precedence on their indices.

        Two atoms are in time contact iff they share a moment, and one
        precedes the other iff one of its moments is before one of the
        other's.
        """
        atoms = region_algebra_atoms(self)
        moments = [sum(1 << m for m, x in enumerate(u) if x) for u in atoms]
        later = [0] * len(atoms)
        for i, here in enumerate(moments):
            for m in atoms_of(here):
                later[i] |= self.time.relation.rows[m]
        pairs = list(itertools.product(range(len(atoms)), repeat=2))
        time = Relation.of(len(atoms), ((i, j) for i, j in pairs if moments[i] & moments[j]))
        prec = Relation.of(len(atoms), ((i, j) for i, j in pairs if later[i] & moments[j]))
        return atoms, time, prec


def _region_of(model: DMST, atoms: list[Region], mask: int) -> Region:
    """Join of the atoms selected by `mask`."""
    out = model.zero
    for i in atoms_of(mask):
        out = model.join(out, atoms[i])
    return out


def region_algebra_atoms(model: DMST) -> list[Region]:
    """Atoms of the region Boolean algebra: its minimal nonzero members.

    A full model's atoms are one coordinate atom at one moment; other models
    are scanned for their minimal nonzero regions.
    """
    if is_full(model):
        zero = model.zero
        return sorted(
            zero[:m] + (1 << x,) + zero[m + 1 :]
            for m, c in enumerate(model.coordinates)
            for x in c.base.atoms()
        )
    regions = model.regions

    def leq(a, b):
        return all(x & ~y == 0 for x, y in zip(a, b))

    atoms = []
    for r in regions:
        if not model.is_nonzero(r):
            continue
        if any(model.is_nonzero(s) and s != r and leq(s, r) for s in regions):
            continue
        atoms.append(r)
    return sorted(atoms)


def _zero_one_vectors(coordinates) -> list[Region]:
    tops = [c.base.one for c in coordinates]
    out = []
    for bits in itertools.product((0, 1), repeat=len(coordinates)):
        out.append(tuple(top if bit else 0 for top, bit in zip(tops, bits)))
    return out


def _boolean_closure(coordinates, seeds) -> tuple[Region, ...]:
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


def _closure_defect(coordinates, family) -> Region | None:
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


def build_dmst(ts: TimeStructure, coordinates, mode: str = "full", regions=None) -> DMST:
    """Assemble a dynamic model.

    mode "full": the whole Cartesian product of the coordinate algebras.
    mode "rich": the Boolean closure of all zero/one vectors plus any seeds
    passed in `regions`.
    mode "custom": exactly `regions`, which must be Boolean-closed; a missing
    combination is reported in the validation error.
    """
    coordinates = tuple(coordinates)
    for c in coordinates:
        c.require_contact()
    if mode == "full":
        size = _product_size(coordinates)
        if size > FULL_REGION_CAP:
            raise CapabilityError(
                f"full model too large to enumerate: {size} regions, "
                f"over the bound of {FULL_REGION_CAP}",
                missing="small full model",
            )
        universe = tuple(
            sorted(itertools.product(*(c.base.elements() for c in coordinates)))
        )
    elif mode == "rich":
        seeds = [tuple(r) for r in regions] if regions else []
        for r in seeds:
            _check_region_shape(coordinates, r)
        universe = _boolean_closure(coordinates, _zero_one_vectors(coordinates) + seeds)
    elif mode == "custom":
        if not regions:
            raise ValidationError("custom mode requires an explicit region list")
        universe = tuple(sorted({tuple(r) for r in regions}))
        for r in universe:
            _check_region_shape(coordinates, r)
        missing = _closure_defect(coordinates, universe)
        if missing is not None:
            raise ValidationError(
                "custom region set is not closed under the Boolean operations",
                witness=missing,
            )
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return DMST(ts, coordinates, universe)


def _check_region_shape(coordinates, region: Region) -> None:
    if len(region) != len(coordinates):
        raise ValidationError(f"region {region!r} has wrong length")
    for c, x in zip(coordinates, region):
        c.base.check(x)


def is_rich(model: DMST) -> bool:
    """All zero/one-valued region vectors are present."""
    have = set(model.regions)
    return all(v in have for v in _zero_one_vectors(model.coordinates))


def is_full(model: DMST) -> bool:
    return len(model.regions) == _product_size(model.coordinates)


def _product_size(coordinates) -> int:
    size = 1
    for c in coordinates:
        size *= c.base.size
    return size


def dynamic_relations(model: DMST, a: Region, b: Region) -> dict[str, bool]:
    """Space contact, time contact and local precedence for one region pair."""
    return {
        "Cs": model.space_contact(a, b),
        "Ct": model.time_contact(a, b),
        "B": model.precedes(a, b),
    }


@dataclass(frozen=True)
class CorrespondenceRow:
    condition: TimeCondition
    left: bool
    right: bool
    note: str | None = None

    @property
    def agree(self) -> bool:
        return self.left == self.right


def correspondence_check(model: DMST) -> list[CorrespondenceRow]:
    """Evaluate all eleven condition/axiom pairs on a rich model.

    The left side is the first-order condition on the time structure, the
    right side the region-level axiom over the model's region algebra; the
    two must agree on rich models.  Rows whose axiom has the free variable p
    get a note when the universal and existential readings differ.
    """
    if not is_rich(model):
        raise PreconditionError("correspondence table requires a rich model")
    rows = []
    for cond in TIME_CONDITIONS:
        left = check_time_condition(model.time, cond).holds
        right = time_axiom_holds(model, cond)
        note = None
        if cond in FREE_VARIABLE_AXIOMS and right != time_axiom_holds(model, cond, existential_p=True):
            note = "universal and existential readings of p differ here"
        rows.append(CorrespondenceRow(cond, left, right, note))
    return rows
