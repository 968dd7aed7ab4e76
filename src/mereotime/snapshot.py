"""Time structures and the snapshot construction of dynamic models.

A dynamic model attaches one coordinate contact algebra to every moment of
a finite time structure, a before-after `Relation` on its moments; regions
are per-moment histories.  The module also decides the time conditions of a
before-after relation and the region time axioms of snapshot models and
abstract dynamic algebras: time contact and precedence are additive, so
each axiom is a first-order condition on the atoms of the carrier.  Each
kind is decided for all conditions in one walk over the rows, in O(n^2)
word operations, and cached on the structure.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .contact import PrecontactAlgebra, Relation
from .errors import CapabilityError, DimensionMismatch, MembershipError, PreconditionError, ValidationError
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

    def __init__(self, label: str):
        # Name of the matching region-level time axiom.
        self.region_axiom = "(" + self.name.lower().replace("_", " ") + ")"


TIME_CONDITIONS = tuple(TimeCondition)
# The members for the kernels below: a global load, not an Enum lookup.
RS, LS, UP_DIR, DOWN_DIR, CIRC, DENS, REF, IRR, LIN, TRI, TR = TIME_CONDITIONS
# The correspondence between cluster structure and region axioms omits
# irreflexivity; see the one-directional check in the dca module.
DCA_TIME_AXIOMS = tuple(c for c in TimeCondition if c is not IRR)
FREE_VARIABLE_AXIOMS = frozenset({UP_DIR, DOWN_DIR, CIRC, DENS})
# Most regions a model may list: iterating `DMST.regions`, writing a model
# that is not full (the file lists its regions) and reading a file's
# `regions` array.  Counts, membership, atoms and every verdict are decided
# on the cells, so a model of any size is built, checked and written full
# without listing.  Seconds, in process, for a rich model with one moment
# and 2^k regions (a 2k-atom path contact, k seeds pairing its atoms): list
# the regions, write the model file, `mereotime check` it; median of three,
# Python 3.11 on a Xeon core:
#     regions    list    write    check    file KB
#       1,024   0.001    0.008    0.016         29
#       4,096   0.005    0.032    0.067        140
#      16,384   0.021    0.154    0.278        656
#      32,768   0.041    0.321    0.546      1,408
#      65,536   0.055    0.491    1.340      3,008
# (The last row was run with the bound at 2^16.)  The bound keeps `check`
# of a file that lists its regions under 1 s.
FULL_REGION_CAP = 1 << 15


class TimeStructure(Relation):
    """Finite set of moments 0..point_count-1 with a before-after relation,
    stored as that relation's successor rows, one per moment."""

    def __init__(self, point_count: int, prec):
        with _moments(point_count):
            super().__init__(point_count, prec)

    @classmethod
    def from_rows(cls, point_count: int, rows) -> "TimeStructure":
        with _moments(point_count):
            return super().from_rows(point_count, rows)

    @property
    def point_count(self) -> int:
        return self.size

    @property
    def prec(self) -> frozenset[tuple[int, int]]:
        return self.pairs

    @cached_property
    def condition_failures(self) -> dict:
        return time_condition_failures(self)


@contextlib.contextmanager
def _moments(point_count: int):
    """Refuse a time structure with no moment or a moment pair out of range."""
    if point_count < 1:
        raise ValidationError("time structure needs at least one moment")
    try:
        yield
    except DimensionMismatch as error:
        raise ValidationError(f"time structure: {error}") from None


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
        singles = ((RS, not row), (LS, not col), (REF, not row & bit), (IRR, row & bit))
        for cond, fails in singles:
            if fails and out[cond] is None:
                out[cond] = (i,)
        for cond, mask in (
            (UP_DIR, full & ~after_before),
            (DOWN_DIR, full & ~before_after),
            (CIRC, row & ~before_before),
            (DENS, row & ~after_after),
            (LIN, full & ~(row | col)),
            (TRI, full & ~(row | col | bit)),
        ):
            if mask and out[cond] is None:
                out[cond] = (i, _index(mask))
        if after_after & ~row and out[TR] is None:
            j = next(j for j in atoms_of(row) if rows[j] & ~row)
            out[TR] = (i, j, _index(rows[j] & ~row))
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
        witness = tuple(map(source.region, witness))
    return Check(cond.region_axiom, False, witness=witness)


def time_axiom_holds(source, cond: TimeCondition, existential_p: bool = False) -> bool:
    """The verdict of `check_time_axiom`, without building its witness."""
    return source.axiom_failures[existential_p][cond] is None


def time_axiom_failures(time: Relation, prec: Relation) -> tuple[dict, dict, dict]:
    """First failing instance of every region axiom on an atom frame, as
    atom masks, under the universal and the existential reading of p, and
    of every time condition on the atoms' precedence, which decides several.

    For additive relations each axiom is a first-order condition on atoms
    (xTy, xPy), and its first failing element instance is a pair of atoms:
    a failure at elements a, b is a failure at some atoms x of a and y of b.
    RS, LS and LIN are the time conditions of the atoms' precedence, and so
    are the universal readings of the four axioms with a free variable p,
    whose first failing p is the named row of atoms.  REF, TR, IRR and TRI,
    and CIRC read existentially, are decided in one loop over the atoms x,
    each at its first failing x: REF at a time successor of x that is no
    successor, TR at a successor of a successor of x that is no successor,
    IRR at a successor y of x whose time row lies inside the time row of
    every atom in time contact with x, and TRI at an atom related to x in
    none of the three ways.
    """
    t_rows, p_rows, p_cols = time.rows, prec.rows, prec.columns
    full = (1 << prec.size) - 1
    on_prec = time_condition_failures(prec)
    # Atoms with no successor, and atoms with no predecessor.
    no_rows = full & ~meeting(p_rows, full)
    no_cols = full & ~meeting(p_cols, full)
    ref = tr = irr = tri = circ = None
    for x, (t_row, p_row, p_col) in enumerate(zip(t_rows, p_rows, p_cols)):
        bit = 1 << x
        mask = t_row & ~p_row
        if mask and ref is None:
            ref = (bit, mask & -mask)
        mask = full & ~(t_row | p_row | p_col)
        if mask and tri is None:
            tri = (bit, mask & -mask)
        mask = p_row & no_rows
        if mask and not p_col and circ is None:
            circ = (bit, mask & -mask)
        if tr is None or irr is None:
            common, rest = full, t_row
            while rest:
                low = rest & -rest
                common &= t_rows[low.bit_length() - 1]
                rest ^= low
            image = inside = 0
            rest = p_row
            while rest:
                low = rest & -rest
                y = low.bit_length() - 1
                image |= p_rows[y]
                if not t_rows[y] & ~common:
                    inside |= low
                rest ^= low
            image &= ~p_row
            if image and tr is None:
                tr = (bit, image & -image)
            if inside and irr is None:
                irr = (bit, inside & -inside)
    universal = {REF: ref, TR: tr, IRR: irr, TRI: tri}
    for cond in (RS, LS, LIN):
        found = on_prec[cond]
        universal[cond] = found and tuple(1 << x for x in found)
    # The first failing p: the row of y, or the column of y or of x.
    for cond, lines, at in (
        (UP_DIR, p_rows, 1), (DOWN_DIR, p_cols, 1), (CIRC, p_cols, 0), (DENS, p_cols, 1)
    ):
        found = on_prec[cond]
        universal[cond] = found and (1 << found[0], 1 << found[1], lines[found[at]])
    # Read existentially, a free-variable axiom fails only where both of its
    # rows are empty: never for DENS, whose scope makes x's row nonempty.
    existential = {**universal, DENS: None, CIRC: circ}
    for cond, empty in ((UP_DIR, no_rows), (DOWN_DIR, no_cols)):
        existential[cond] = (empty & -empty,) * 2 if empty else None
    return universal, existential, on_prec


Region = tuple[int, ...]


@dataclass(frozen=True)
class DMST:
    """Dynamic model of space and time over snapshots.  Its region algebra is
    the powerset of its `cells` (Sikorski 1964), packed regions (`_layout`)
    that partition the top, kept in the order of the region atoms they are."""

    time: TimeStructure
    coordinates: tuple[PrecontactAlgebra, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.coordinates) != self.time.point_count:
            raise ValidationError("one coordinate algebra per moment required")

    @cached_property
    def layout(self) -> list[tuple[int, int]]:
        return _layout(self.coordinates)

    @property
    def region_count(self) -> int:
        return 1 << len(self.cells)

    @property
    def regions(self) -> "Regions":
        return Regions(self)

    @cached_property
    def _listed(self) -> tuple[Region, ...]:
        """Every region in sorted order: the joins of the cells in binary counting order."""
        if self.region_count > FULL_REGION_CAP:
            too_many = f"{self.region_count} regions, over the bound of {FULL_REGION_CAP}"
            raise CapabilityError(f"model too large to list: {too_many}", missing="model within the bound")
        return tuple(_unpack(self.layout, j) for j in _joins(self.cells))

    def region_index(self, a: Region) -> int:
        """Position of a region, a vector of coordinate elements that splits
        no cell, in the sorted listing: bit i for each cell it holds."""
        try:
            packed = _pack(self.layout, a)
            shaped = _unpack(self.layout, packed) == tuple(a)
        except TypeError:
            shaped = False
        if shaped and all(packed & cell in (0, cell) for cell in self.cells):
            return sum(1 << i for i, cell in enumerate(self.cells) if packed & cell)
        raise MembershipError(f"region {a!r} does not belong to this model")

    def region(self, index: int) -> Region:
        """The region at `index` in the sorted listing: the join of the cells it selects."""
        return _unpack(self.layout, sum(cell for i, cell in enumerate(self.cells) if index >> i & 1))

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
        later = sum(1 << n for n, y in enumerate(b) if y)
        return any(x and row & later for x, row in zip(a, self.time.rows))

    @cached_property
    def _cell_moments(self) -> list[int]:
        """The moments each cell meets, as a mask."""
        blocks = [top << shift for shift, top in self.layout]
        return [meeting(blocks, cell) for cell in self.cells]

    @cached_property
    def atom_relations(self) -> tuple[Relation, Relation]:
        """Time contact and precedence on the region atoms, the cells.

        Two atoms are in time contact iff they share a moment, and one
        precedes the other iff one of its moments is before one of the
        other's.
        """
        moments = self._cell_moments
        time = [meeting(moments, here) for here in moments]
        return Relation.from_rows(len(moments), time), self.time.pullback(moments)

    @cached_property
    def space_relation(self) -> Relation:
        """Space contact on the region atoms: some coordinate relates their parts."""
        parts = list(zip(self.layout, self.coordinates))
        reach = [sum(c.relation.forward_image(cell >> at & top) << at for (at, top), c in parts) for cell in self.cells]
        return Relation.from_rows(len(self.cells), (meeting(self.cells, r) for r in reach))

    @cached_property
    def axiom_failures(self) -> tuple[dict, dict, dict]:
        return time_axiom_failures(*self.atom_relations)


class Regions:
    """The regions of a model in sorted order: counted and tested for
    membership on the cells, and listed only when iterated."""

    def __init__(self, model: DMST):
        self.model = model

    def __len__(self) -> int:
        return self.model.region_count

    def __contains__(self, region) -> bool:
        with contextlib.suppress(MembershipError):
            return self.model.region_index(region) >= 0
        return False

    def __iter__(self):
        return iter(self.model._listed)

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (Regions, tuple)) else NotImplemented


def _layout(coordinates) -> list[tuple[int, int]]:
    """Bit offset and top of each coordinate in a packed region, one int over
    the atoms of all coordinates: coordinate m's bits lie above those of
    coordinates m+1.., so packed regions and cells sort as their vectors do."""
    sizes = [c.base.atom_count for c in coordinates]
    shifts = list(itertools.accumulate(reversed(sizes), initial=0))[-2::-1]
    return [(shift, (1 << size) - 1) for shift, size in zip(shifts, sizes)]


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


def build_dmst(ts: TimeStructure, coordinates, mode: str = "full", regions=None) -> DMST:
    """Assemble a dynamic model from the cells of its region algebra.

    mode "full": the whole Cartesian product of the coordinate algebras,
    whose cells are the coordinate atoms at each moment.
    mode "rich": the Boolean algebra generated by the one-moment blocks
    (the top at one moment, zero elsewhere) and any seeds passed in
    `regions`: the cells they cut out.
    mode "custom": exactly `regions`, which must be Boolean-closed, that is
    hold every join of the cells the regions cut out; the first missing join
    is reported in the validation error.
    No region is listed: a full model costs O(cells), a rich or custom one
    O(cells) per region passed in.
    """
    coordinates = tuple(coordinates)
    for c in coordinates:
        c.require_contact()
    if mode == "full":
        # The cells are the coordinate atoms: every bit of a packed region.
        atoms = sum(c.base.atom_count for c in coordinates)
        return DMST(ts, coordinates, tuple(1 << x for x in range(atoms)))
    layout = _layout(coordinates)
    if mode == "rich":
        seeds = [tuple(r) for r in regions] if regions else []
        for r in seeds:
            _check_region_shape(coordinates, r)
        blocks = [top << shift for shift, top in layout]
        cells = _cells(layout, blocks + [_pack(layout, r) for r in seeds])
    elif mode == "custom":
        if not regions:
            raise ValidationError("custom mode requires an explicit region list")
        universe = sorted({tuple(r) for r in regions})
        for r in universe:
            _check_region_shape(coordinates, r)
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
    return DMST(ts, coordinates, tuple(sorted(cells)))


def _check_region_shape(coordinates, region: Region) -> None:
    if len(region) != len(coordinates):
        raise ValidationError(f"region {region!r} has wrong length")
    for c, x in zip(coordinates, region):
        c.base.check(x)


def is_rich(model: DMST) -> bool:
    """All zero/one-valued region vectors are present: every one-moment
    block is a join of cells, that is, no cell meets two moments."""
    return all(m & (m - 1) == 0 for m in model._cell_moments)


def is_full(model: DMST) -> bool:
    """Every cell is one coordinate atom at one moment."""
    return len(model.cells) == sum(c.base.atom_count for c in model.coordinates)


def dynamic_relations(model: DMST, a: Region, b: Region) -> dict[str, bool]:
    """Space contact, time contact and local precedence for one region pair."""
    return {
        "Cs": model.space_contact(a, b),
        "Ct": model.time_contact(a, b),
        "B": model.precedes(a, b),
    }


class CorrespondenceRow(NamedTuple):
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
    universal, existential, _ = model.axiom_failures
    rows = []
    for cond in TIME_CONDITIONS:
        right = universal[cond] is None
        differ = cond in FREE_VARIABLE_AXIOMS and right != (existential[cond] is None)
        note = "universal and existential readings of p differ here" if differ else None
        rows.append(CorrespondenceRow(cond, conditions[cond] is None, right, note))
    return rows
