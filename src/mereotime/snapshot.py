"""Time structures and the snapshot construction of dynamic models.

A dynamic model attaches one coordinate contact algebra to every moment of
a finite time structure; regions are per-moment histories.  The module also
hosts the shared evaluator for the region-level time axioms, used both on
snapshot models and on abstract dynamic algebras.
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
# enumerates its regions, and `correspondence` grows about as their square:
# 3-4 s at 1,024 regions and 53 s at 4,096 (one 10- or 12-atom coordinate,
# Python 3.11 on a Xeon core).
FULL_REGION_CAP = 1 << 10


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


class AxiomView:
    """Indexed tables for evaluating the region-level time axioms.

    Works over any finite Boolean carrier: the caller supplies the element
    list (canonical order), complement, nonzero test and the time-contact and
    precedence relations.  Rows are packed into int bitmasks so the heavily
    quantified axioms reduce to word operations.
    """

    def __init__(self, elements, star, is_nonzero, time_contact, precedes):
        self.elements = list(elements)
        count = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        self.index = index
        self.ones = (1 << count) - 1
        self.star_index = [index[star(e)] for e in self.elements]
        self.nonzero = 0
        for i, e in enumerate(self.elements):
            if is_nonzero(e):
                self.nonzero |= 1 << i
        zero_candidates = [i for i in range(count) if not (self.nonzero >> i) & 1]
        if len(zero_candidates) != 1:
            raise ValidationError("carrier must have exactly one zero element")
        self.zero_index = zero_candidates[0]
        self.one_index = self.star_index[self.zero_index]
        self.ct_rows = [0] * count
        self.b_rows = [0] * count
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                if time_contact(a, b):
                    self.ct_rows[i] |= 1 << j
                if precedes(a, b):
                    self.b_rows[i] |= 1 << j

    @cached_property
    def b_cols(self):
        cols = [0] * len(self.elements)
        for i, row in enumerate(self.b_rows):
            for j in atoms_of(row):
                cols[j] |= 1 << i
        return cols

    @cached_property
    def b_rows_star(self):
        """b_rows_star[i] has bit p set iff element i precedes star(p)."""
        return [
            sum(1 << p for p in range(len(self.elements)) if (row >> self.star_index[p]) & 1)
            for row in self.b_rows
        ]

    @cached_property
    def b_cols_star(self):
        """b_cols_star[j] has bit p set iff star(p) precedes element j."""
        cols = self.b_cols
        return [
            sum(1 << p for p in range(len(self.elements)) if (col >> self.star_index[p]) & 1)
            for col in cols
        ]

    def indices(self):
        return range(len(self.elements))

    def nonzero_indices(self):
        return atoms_of(self.nonzero)


def check_time_axiom(source, cond: TimeCondition, existential_p: bool = False) -> Check:
    """Decide one region-level time axiom on a dynamic carrier.

    The four axioms displaying a free variable p are read with p universally
    quantified; `existential_p=True` evaluates the alternative reading for
    comparison.
    """
    view = source if isinstance(source, AxiomView) else source.axiom_view()
    name = cond.region_axiom

    def value(i):
        return view.elements[i]

    def fail(*idxs):
        return Check(name, False, witness=tuple(value(i) for i in idxs))

    ones = view.ones
    if cond is TimeCondition.RS:
        for a in view.nonzero_indices():
            if not (view.b_rows[a] >> view.one_index) & 1:
                return fail(a)
    elif cond is TimeCondition.LS:
        for a in view.nonzero_indices():
            if not (view.b_rows[view.one_index] >> a) & 1:
                return fail(a)
    elif cond is TimeCondition.UP_DIR:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                cover = view.b_rows[a] | view.b_rows_star[b]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    p = _lowest_missing(cover, ones)
                    return fail(a, b, p)
    elif cond is TimeCondition.DOWN_DIR:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                cover = view.b_cols[a] | view.b_cols_star[b]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    return fail(a, b, _lowest_missing(cover, ones))
    elif cond is TimeCondition.CIRC:
        for a in view.indices():
            for b in atoms_of(view.b_rows[a]):
                cover = view.b_rows[b] | view.b_cols_star[a]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    return fail(a, b, _lowest_missing(cover, ones))
    elif cond is TimeCondition.DENS:
        for a in view.indices():
            for b in atoms_of(view.b_rows[a]):
                cover = view.b_rows[a] | view.b_cols_star[b]
                if existential_p:
                    if cover == 0:
                        return fail(a, b)
                elif cover != ones:
                    return fail(a, b, _lowest_missing(cover, ones))
    elif cond is TimeCondition.REF:
        for a in view.indices():
            extra = view.ct_rows[a] & ~view.b_rows[a]
            if extra:
                return fail(a, next(atoms_of(extra)))
    elif cond is TimeCondition.IRR:
        for a in view.indices():
            for b in atoms_of(view.b_rows[a]):
                if not any(
                    view.ct_rows[b] & ~view.ct_rows[c] for c in atoms_of(view.ct_rows[a])
                ):
                    return fail(a, b)
    elif cond is TimeCondition.LIN:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                if not (view.b_rows[a] >> b) & 1 and not (view.b_rows[b] >> a) & 1:
                    return fail(a, b)
    elif cond is TimeCondition.TRI:
        for a in view.nonzero_indices():
            for b in view.nonzero_indices():
                if (
                    not (view.ct_rows[a] >> b) & 1
                    and not (view.b_rows[a] >> b) & 1
                    and not (view.b_rows[b] >> a) & 1
                ):
                    return fail(a, b)
    elif cond is TimeCondition.TR:
        for a in view.indices():
            non_b = ~view.b_rows[a] & ones
            for b in atoms_of(non_b):
                if ~view.b_rows[a] & ~view.b_cols_star[b] & ones == 0:
                    return fail(a, b)
    else:  # pragma: no cover
        raise ValueError(f"unknown axiom {cond}")
    return Check(name, True)


def _lowest_missing(cover: int, ones: int) -> int:
    return next(atoms_of(~cover & ones))


def reading_comparison(source, cond: TimeCondition) -> tuple[bool, bool]:
    """Truth of a free-variable axiom under the universal and existential readings."""
    universal = check_time_axiom(source, cond, existential_p=False).holds
    existential = check_time_axiom(source, cond, existential_p=True).holds
    return universal, existential


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

    def axiom_view(self) -> AxiomView:
        return AxiomView(
            self.regions,
            star=self.compl,
            is_nonzero=self.is_nonzero,
            time_contact=lambda a, b: any(x and y for x, y in zip(a, b)),
            precedes=lambda a, b: any(a[m] and b[n] for m, n in self.time.prec),
        )


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
    view = model.axiom_view()
    rows = []
    for cond in TIME_CONDITIONS:
        left = check_time_condition(model.time, cond).holds
        right = check_time_axiom(view, cond).holds
        note = None
        if cond in FREE_VARIABLE_AXIOMS:
            universal, existential = reading_comparison(view, cond)
            if universal != existential:
                note = "universal and existential readings of p differ here"
        rows.append(CorrespondenceRow(cond, left, right, note))
    return rows
