"""Time structures and the snapshot construction of dynamic models.

A dynamic model attaches one coordinate contact algebra to every moment of
a finite time structure, a before-after `Relation` on its moments; regions
are per-moment histories.  The module also decides the time conditions of a
before-after relation and the region time axioms of snapshot models and
abstract dynamic algebras: time contact and precedence are additive, so
each axiom is a first-order condition on the atoms of the carrier.  All
axioms, and all time conditions of the atoms' precedence, are decided in one
walk over the atom rows of a frame, in O(n^2) word operations, that keeps
one slot per condition and stops computing a condition's mask once its
slot holds a failure; the result is cached on the structure.  The time
conditions of a before-after relation are that walk on the frame whose time
contact is the identity.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .contact import PrecontactAlgebra, Relation, cached_attribute
from .errors import CapabilityError, DimensionMismatch, MembershipError, PreconditionError, ValidationError, count_text
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
        if point_count < 1:
            raise ValidationError("time structure needs at least one moment")
        try:
            super().__init__(point_count, prec)
        except DimensionMismatch as error:
            raise ValidationError(f"time structure: {error}") from None

    @classmethod
    def from_rows(cls, point_count: int, rows) -> "TimeStructure":
        if point_count < 1:
            raise ValidationError("time structure needs at least one moment")
        try:
            return super().from_rows(point_count, rows)
        except DimensionMismatch as error:
            raise ValidationError(f"time structure: {error}") from None

    @property
    def point_count(self) -> int:
        return self.size

    @property
    def prec(self) -> frozenset[tuple[int, int]]:
        return self.pairs

    @cached_attribute
    def condition_failures(self) -> dict:
        return time_condition_failures(self)


def check_time_condition(ts: TimeStructure, cond: TimeCondition) -> Check:
    """Decide one time condition; failures carry the smallest witness."""
    witness = ts.condition_failures[cond]
    return Check(cond.name, witness is None, witness)


def time_condition_failures(relation: Relation) -> dict[TimeCondition, tuple | None]:
    """First failing instance of every time condition, as moments, in
    lexicographic order (None where it holds): the walk of
    `time_axiom_failures` on the identity frame."""
    return time_axiom_failures(Relation.identity(relation.size), relation)[2]


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
    of every time condition on the atoms' precedence, as atoms, in
    lexicographic order.

    For additive relations each axiom is a first-order condition on atoms
    (xTy, xPy), and its first failing element instance is a pair of atoms:
    a failure at elements a, b is a failure at some atoms x of a and y of b.
    Everything is decided in one walk over the atoms x, in O(n^2) word
    operations: one pass over x's successors y collects their successors,
    their predecessors and the y whose time row lies inside the meet of the
    time rows of x's time successors, and one pass over x's predecessors
    collects their successors and predecessors.  At x the atoms failing a
    two-place condition then form one mask, such as the atoms outside the
    predecessors of x's successors (UP_DIR).  Each condition keeps one
    local slot, its first failure, and its mask at x is computed only while
    that slot is empty; the three tables are built from the slots once,
    after the walk.  RS, LS and LIN are the time
    conditions of the atoms' precedence, and so are the universal readings
    of the four axioms with a free variable p, whose first failing p is the
    named row of atoms.  REF fails at a time successor of x that is no
    successor, TR at a successor of a successor that is no successor, IRR at
    a successor y of x whose time row lies inside the time row of every atom
    in time contact with x, TRI at an atom related to x in none of the three
    ways, and CIRC, read existentially, at a successor with no successor of
    an x with no predecessor.
    """
    t_rows, p_rows, p_cols = time.rows, prec.rows, prec.columns
    full = (1 << prec.size) - 1
    # Atoms with no successor, and atoms with no predecessor.
    no_rows = full & ~meeting(p_rows, full)
    no_cols = full & ~meeting(p_cols, full)
    # First failures of the conditions on the precedence, and (`_at`) of the
    # axioms read on the atoms, CIRC existentially.
    rs = ls = up = down = circ = dens = ref = irr = lin = tri = tr = None
    ref_at = tr_at = irr_at = tri_at = circ_at = None
    for x, (t_row, p_row, p_col) in enumerate(zip(t_rows, p_rows, p_cols)):
        bit = 1 << x
        # IRR's mask on the atoms, `inside`, and the meet of the time rows of
        # x's time successors that it needs, only while its slot is empty.
        common, rest = full, t_row if irr_at is None else 0
        while rest:
            low = rest & -rest
            common &= t_rows[low.bit_length() - 1]
            rest ^= low
        after_after = after_before = inside = 0
        rest = p_row
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            after_after, after_before = after_after | p_rows[y], after_before | p_cols[y]
            if irr_at is None and not t_rows[y] & ~common:
                inside |= low
            rest ^= low
        before_after = before_before = 0
        rest = p_col
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            before_after, before_before = before_after | p_rows[y], before_before | p_cols[y]
            rest ^= low
        if rs is None and not p_row:
            rs = (x,)
        if ls is None and not p_col:
            ls = (x,)
        if ref is None and not p_row & bit:
            ref = (x,)
        if irr is None and p_row & bit:
            irr = (x,)
        if up is None and (mask := full & ~after_before):
            up = (x, _index(mask))
        if down is None and (mask := full & ~before_after):
            down = (x, _index(mask))
        if circ is None and (mask := p_row & ~before_before):
            circ = (x, _index(mask))
        if dens is None and (mask := p_row & ~after_after):
            dens = (x, _index(mask))
        if lin is None and (mask := full & ~(p_row | p_col)):
            lin = (x, _index(mask))
        if tri is None and (mask := full & ~(p_row | p_col | bit)):
            tri = (x, _index(mask))
        later = after_after & ~p_row
        if later:
            if tr is None:
                y = next(y for y in atoms_of(p_row) if p_rows[y] & ~p_row)
                tr = (x, y, _index(p_rows[y] & ~p_row))
            if tr_at is None:
                tr_at = (bit, later & -later)
        if ref_at is None and (mask := t_row & ~p_row):
            ref_at = (bit, mask & -mask)
        if irr_at is None and inside:
            irr_at = (bit, inside & -inside)
        if tri_at is None and (mask := full & ~(t_row | p_row | p_col)):
            tri_at = (bit, mask & -mask)
        if circ_at is None and not p_col and (mask := p_row & no_rows):
            circ_at = (bit, mask & -mask)
    on_prec = {
        RS: rs, LS: ls, UP_DIR: up, DOWN_DIR: down, CIRC: circ, DENS: dens,
        REF: ref, IRR: irr, LIN: lin, TRI: tri, TR: tr,
    }
    universal = {
        REF: ref_at, TR: tr_at, IRR: irr_at, TRI: tri_at,
        RS: rs and (1 << rs[0],),
        LS: ls and (1 << ls[0],),
        LIN: lin and (1 << lin[0], 1 << lin[1]),
        # The first failing p: the row of y, or the column of y or of x.
        UP_DIR: up and (1 << up[0], 1 << up[1], p_rows[up[1]]),
        DOWN_DIR: down and (1 << down[0], 1 << down[1], p_cols[down[1]]),
        CIRC: circ and (1 << circ[0], 1 << circ[1], p_cols[circ[0]]),
        DENS: dens and (1 << dens[0], 1 << dens[1], p_cols[dens[1]]),
    }
    # Read existentially, a free-variable axiom fails only where both of its
    # rows are empty: never for DENS, whose scope makes x's row nonempty.
    existential = {
        **universal,
        DENS: None,
        CIRC: circ_at,
        UP_DIR: (no_rows & -no_rows,) * 2 if no_rows else None,
        DOWN_DIR: (no_cols & -no_cols,) * 2 if no_cols else None,
    }
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

    @cached_attribute
    def layout(self) -> list[tuple[int, int]]:
        return _layout(self.coordinates)

    @property
    def region_count(self) -> int:
        return 1 << len(self.cells)

    @property
    def regions(self) -> "Regions":
        return Regions(self)

    @cached_attribute
    def _listed(self) -> tuple[Region, ...]:
        """Every region in sorted order: the joins of the cells in binary counting order."""
        if self.region_count > FULL_REGION_CAP:
            too_many = f"{count_text(self.region_count)} regions, over the bound of {FULL_REGION_CAP}"
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

    @cached_attribute
    def _cell_moments(self) -> list[int]:
        """The moments each cell meets, as a mask."""
        blocks = [top << shift for shift, top in self.layout]
        return [meeting(blocks, cell) for cell in self.cells]

    @cached_attribute
    def atom_relations(self) -> tuple[Relation, Relation]:
        """Time contact and precedence on the region atoms, the cells: the
        identity and the before-after relation on the moments, pulled back
        to the moments each cell meets.

        Two atoms are in time contact iff they share a moment, and one
        precedes the other iff one of its moments is before one of the
        other's.
        """
        moments = self._cell_moments
        return Relation.identity(self.time.size).pullback(moments), self.time.pullback(moments)

    @cached_attribute
    def space_relation(self) -> Relation:
        """Space contact on the region atoms: the coordinate relations laid
        on the packed bits (bit `layout[k][0] + i` carries coordinate k's
        row i) and pulled back to the cells, so two atoms are in contact iff
        some coordinate relates their parts."""
        parts = zip(reversed(self.layout), reversed(self.coordinates))
        laid = [row << at for (at, _), c in parts for row in c.relation.rows]
        return Relation.from_rows(len(laid), laid).pullback(self.cells)

    @cached_attribute
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
    universal, existential, on_cells = model.axiom_failures
    if sorted(model._cell_moments) == [1 << t for t in range(model.time.size)]:
        # One cell per moment, as in a full model of one-atom coordinates:
        # the cells' precedence is the time structure relabelled, and the
        # time conditions are invariant under relabelling.
        conditions = on_cells
    else:
        conditions = model.time.condition_failures
    rows = []
    for cond in TIME_CONDITIONS:
        right = universal[cond] is None
        differ = cond in FREE_VARIABLE_AXIOMS and right != (existential[cond] is None)
        note = "universal and existential readings of p differ here" if differ else None
        rows.append(CorrespondenceRow(cond, conditions[cond] is None, right, note))
    return rows
