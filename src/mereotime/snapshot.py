"""Time structures and the snapshot construction of dynamic models.

A dynamic model attaches one coordinate contact algebra to every moment of
a finite time structure; regions are per-moment histories.  The module also
decides the time conditions of a before-after relation and the region time
axioms of snapshot models and abstract dynamic algebras: time contact and
precedence are additive, so each axiom is a first-order condition on the
atoms of the carrier.  Each kind is decided for all conditions in one walk
over the rows, in O(n^2) word operations, and cached on the structure.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

from .contact import PrecontactAlgebra, Relation, _first_missing
from .errors import CapabilityError, MembershipError, PreconditionError, ValidationError
from .reporting import Check
from .boolean import atoms_of, meeting


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

    # Members are singletons: hash by identity, in C, for the lookups in the
    # cached failure tables (Enum hashes the member name in Python).
    __hash__ = object.__hash__

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
# Most regions a full or rich model may have, that is, any universe that is
# built rather than listed: a rich model's size, 2^k for its k cells, is
# checked before any region is built.  Seconds per command, in process, on
# full models with one moment and one path-contact coordinate (`represent`
# on the model's algebra; median of three, Python 3.11 on a Xeon core), and
# the peak resident memory of `represent`:
#     regions   check   correspondence   represent   peak MB
#       1,024   0.005       0.003          0.016
#       4,096   0.007       0.005          0.022
#      16,384   0.022       0.010          0.035        23
#      65,536   0.061       0.034          0.081        31
#     262,144   0.236       0.153          0.224        65
# All three grow with the region count alone; the bound keeps every
# command under 0.1 s, as for a rich model at the bound (two moments with
# 8-atom path-contact coordinates: check 0.034 s, correspondence 0.051 s).
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

    @cached_property
    def condition_failures(self) -> dict:
        return time_condition_failures(self.relation)

    def moments(self) -> range:
        return range(self.point_count)


def check_time_condition(ts: TimeStructure, cond: TimeCondition) -> Check:
    """Decide one time condition; failures carry the smallest witness."""
    witness = ts.condition_failures[cond]
    return Check(cond.name, witness is None, witness)


def time_condition_failures(relation: Relation) -> dict[TimeCondition, tuple | None]:
    """First failing instance of every time condition, as moments, in
    lexicographic order (None where it holds).

    One walk over the moments: at moment i the moments j failing a
    two-place condition form one mask of O(t) word operations, such as
    the moments outside the predecessors of i's successors (UP_DIR) or
    outside the successors of its predecessors (DOWN_DIR).
    """
    C = TimeCondition
    rows, cols, full = relation.rows, relation.columns, (1 << relation.size) - 1

    def images(mask: int) -> tuple[int, int]:  # successors and predecessors
        after = before = 0
        while mask:
            low = mask & -mask
            y = low.bit_length() - 1
            after, before = after | rows[y], before | cols[y]
            mask ^= low
        return after, before

    out = dict.fromkeys(TIME_CONDITIONS)
    for i, (row, col) in enumerate(zip(rows, cols)):
        bit = 1 << i
        (after_after, after_before), (before_after, before_before) = images(row), images(col)
        singles = ((C.RS, not row), (C.LS, not col), (C.REF, not row & bit), (C.IRR, row & bit))
        for cond, fails in singles:
            if fails and out[cond] is None:
                out[cond] = (i,)
        for cond, mask in (
            (C.UP_DIR, full & ~after_before),
            (C.DOWN_DIR, full & ~before_after),
            (C.CIRC, row & ~before_before),
            (C.DENS, row & ~after_after),
            (C.LIN, full & ~(row | col)),
            (C.TRI, full & ~(row | col | bit)),
        ):
            if mask and out[cond] is None:
                out[cond] = (i, _index(mask))
        if after_after & ~row and out[C.TR] is None:
            j = next(j for j in atoms_of(row) if rows[j] & ~row)
            out[C.TR] = (i, j, _index(rows[j] & ~row))
    return out


def _index(mask: int) -> int:
    """Index of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


def check_time_axiom(source, cond: TimeCondition, existential_p: bool = False) -> Check:
    """Decide one region-level time axiom on a dynamic algebra or model.

    Time contact and precedence are additive, so each axiom is decided on
    the atoms of the carrier: a DCA's stored atom relations, or a model's
    region atoms (`time_axiom_failures`, cached on the source).  The four
    axioms displaying a free variable p are read with p universally
    quantified; `existential_p=True` decides the alternative reading for
    comparison.  A witness is the first failing instance, as elements of
    the carrier (singleton masks or atom regions, and p as the join of a
    row of atoms).
    """
    witness = source.axiom_failures[existential_p][cond]
    if witness is None:
        return Check(cond.region_axiom, True)
    if isinstance(source, DMST):
        atoms = source.atom_relations[0]
        witness = tuple(_region_of(source, atoms, mask) for mask in witness)
    return Check(cond.region_axiom, False, witness=witness)


def time_axiom_holds(source, cond: TimeCondition, existential_p: bool = False) -> bool:
    """The verdict of `check_time_axiom`, without building its witness."""
    return source.axiom_failures[existential_p][cond] is None


def time_axiom_failures(time: Relation, prec: Relation) -> tuple[dict, dict]:
    """First failing instance of every region axiom on an atom frame, as
    atom masks, under the universal and the existential reading of p.

    For additive relations each axiom is a first-order condition on atoms
    (xTy, xPy), and its first failing element instance is a pair of atoms:
    a failure at elements a, b is a failure at some atoms x of a and y of b.
    RS, LS and LIN are the time conditions of the atoms' precedence, and so
    are the universal readings of the four axioms with a free variable p,
    whose first failing p is the named row of atoms.
    """
    C = TimeCondition
    t_rows, p_rows, p_cols = time.rows, prec.rows, prec.columns
    full = (1 << prec.size) - 1
    on_prec = time_condition_failures(prec)

    universal = {
        C.REF: _first_missing(t_rows, p_rows),
        C.TR: _first_missing(map(prec.forward_image, p_rows), p_rows),
    }
    for cond in (C.RS, C.LS, C.LIN):
        found = on_prec[cond]
        universal[cond] = found and tuple(1 << x for x in found)
    # The first failing p: the row of y, or the column of y or of x.
    for cond, lines, at in (
        (C.UP_DIR, p_rows, 1), (C.DOWN_DIR, p_cols, 1), (C.CIRC, p_cols, 0), (C.DENS, p_cols, 1)
    ):
        found = on_prec[cond]
        universal[cond] = found and (1 << found[0], 1 << found[1], lines[found[at]])
    universal[C.IRR] = universal[C.TRI] = None
    for x in range(prec.size):
        # IRR fails at a successor y of x whose time row lies inside the
        # time row of every atom in time contact with x.
        common = reduce(int.__and__, (t_rows[z] for z in atoms_of(t_rows[x])), full)
        irr = p_rows[x] & ~meeting(t_rows, full & ~common)
        tri = full & ~(t_rows[x] | p_rows[x] | p_cols[x])
        for cond, mask in ((C.IRR, irr), (C.TRI, tri)):
            if mask and universal[cond] is None:
                universal[cond] = (1 << x, mask & -mask)
    # Read existentially, a free-variable axiom fails only where both of its
    # rows are empty: never for DENS, whose scope makes x's row nonempty.
    no_rows, no_cols = full & ~meeting(p_rows, full), full & ~meeting(p_cols, full)
    existential = {**universal, C.DENS: None}
    for cond, empty in ((C.UP_DIR, no_rows), (C.DOWN_DIR, no_cols)):
        existential[cond] = (empty & -empty,) * 2 if empty else None
    circ = ((1 << x, p_rows[x] & no_rows) for x in atoms_of(no_cols))
    existential[C.CIRC] = next(((x, ys & -ys) for x, ys in circ if ys), None)
    return universal, existential


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
        time = [meeting(moments, here) for here in moments]
        prec = [meeting(moments, self.time.relation.forward_image(here)) for here in moments]
        count = len(atoms)
        return atoms, Relation.from_rows(count, time), Relation.from_rows(count, prec)

    @cached_property
    def axiom_failures(self) -> tuple[dict, dict]:
        return time_axiom_failures(*self.atom_relations[1:])


def _region_of(model: DMST, atoms: list[Region], mask: int) -> Region:
    """Join of the atoms selected by `mask`."""
    out = model.zero
    for i in atoms_of(mask):
        out = model.join(out, atoms[i])
    return out


def region_algebra_atoms(model: DMST) -> list[Region]:
    """Atoms of the region Boolean algebra: its minimal nonzero members.

    A full model's atoms are one coordinate atom at one moment; the atoms of
    any other model are the cells its regions cut out.
    """
    if is_full(model):
        zero = model.zero
        return sorted(
            zero[:m] + (1 << x,) + zero[m + 1 :]
            for m, c in enumerate(model.coordinates)
            for x in c.base.atoms()
        )
    layout = _layout(model.coordinates)
    cells = _cells(layout, [_pack(layout, r) for r in model.regions])
    return sorted(_unpack(layout, cell) for cell in cells)


def _layout(coordinates) -> list[tuple[int, int]]:
    """Bit offset and top of each coordinate in a packed region, one int over
    the atoms of all coordinates: coordinate m's bits follow those of
    coordinates 0..m-1."""
    shifts = itertools.accumulate((c.base.atom_count for c in coordinates), initial=0)
    return [(shift, c.base.one) for shift, c in zip(shifts, coordinates)]


def _pack(layout, region: Region) -> int:
    return sum(x << shift for (shift, _), x in zip(layout, region))


def _unpack(layout, packed: int) -> Region:
    return tuple([packed >> shift & top for shift, top in layout])


def _cells(layout, generators) -> list[int]:
    """The nonempty cells that the packed `generators` cut out of the top.

    A finite Boolean algebra generated by sets is the powerset of the cells
    they cut out (Sikorski 1964), so the algebra the generators span is the
    joins of these cells.  O(generators x cells) word operations.
    """
    cells = [sum(top << shift for shift, top in layout)]
    for g in generators:
        cells = [part for cell in cells for part in (cell & g, cell & ~g) if part]
    return cells


def _joins(cells):
    """The join of every subset of `cells`, lazily, in binary counting order."""
    joins = [0]
    yield 0
    for cell in cells:
        more = [j | cell for j in joins]
        yield from more
        joins += more


def _admit(mode: str, size: int) -> None:
    if size > FULL_REGION_CAP:
        raise CapabilityError(
            f"{mode} model too large to enumerate: {size} regions, "
            f"over the bound of {FULL_REGION_CAP}",
            missing=f"small {mode} model",
        )


def build_dmst(ts: TimeStructure, coordinates, mode: str = "full", regions=None) -> DMST:
    """Assemble a dynamic model.

    mode "full": the whole Cartesian product of the coordinate algebras.
    mode "rich": the Boolean algebra generated by the one-moment blocks
    (the top at one moment, zero elsewhere) and any seeds passed in
    `regions`: all joins of the cells they cut out.
    mode "custom": exactly `regions`, which must be Boolean-closed, that is
    hold every join of the cells the regions cut out; the first missing join
    is reported in the validation error.
    A full or rich universe is enumerated only up to `FULL_REGION_CAP`
    regions; a larger one raises `CapabilityError` before any is built.
    """
    coordinates = tuple(coordinates)
    for c in coordinates:
        c.require_contact()
    if mode == "full":
        _admit(mode, math.prod(c.base.size for c in coordinates))
        universe = tuple(itertools.product(*(c.base.elements() for c in coordinates)))
    elif mode == "rich":
        seeds = [tuple(r) for r in regions] if regions else []
        for r in seeds:
            _check_region_shape(coordinates, r)
        layout = _layout(coordinates)
        blocks = [top << shift for shift, top in layout]
        cells = _cells(layout, blocks + [_pack(layout, r) for r in seeds])
        _admit(mode, 1 << len(cells))
        # Each cell lies in one moment's block, so the universe is the
        # product of each moment's joins, listed in order by the product.
        parts = [[c >> shift for c in cells if c >> shift & top] for shift, top in layout]
        universe = tuple(itertools.product(*(sorted(_joins(p)) for p in parts)))
    elif mode == "custom":
        if not regions:
            raise ValidationError("custom mode requires an explicit region list")
        universe = tuple(sorted({tuple(r) for r in regions}))
        for r in universe:
            _check_region_shape(coordinates, r)
        layout = _layout(coordinates)
        packed = [_pack(layout, r) for r in universe]
        cells = _cells(layout, packed)
        if 1 << len(cells) != len(packed):
            members = set(packed)
            missing = next(j for j in _joins(cells) if j not in members)
            raise ValidationError(
                "custom region set is not closed under the Boolean operations",
                witness=_unpack(layout, missing),
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
    """All zero/one-valued region vectors are present.

    The regions are closed under joins, so the one-moment blocks (the top at
    one moment, zero elsewhere) suffice.
    """
    zero = model.zero
    return all(
        zero[:m] + (c.base.one,) + zero[m + 1 :] in model._region_lookup
        for m, c in enumerate(model.coordinates)
    )


def is_full(model: DMST) -> bool:
    return len(model.regions) == math.prod(c.base.size for c in model.coordinates)


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
    conditions = model.time.condition_failures
    universal, existential = model.axiom_failures
    rows = []
    for cond in TIME_CONDITIONS:
        right = universal[cond] is None
        differ = cond in FREE_VARIABLE_AXIOMS and right != (existential[cond] is None)
        note = "universal and existential readings of p differ here" if differ else None
        rows.append(CorrespondenceRow(cond, conditions[cond] is None, right, note))
    return rows
