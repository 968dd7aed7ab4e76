"""Finite topologies from closed bases and dynamic mereotopological spaces.

Point sets are int bitmasks.  In a finite space closure is additive
(Alexandrov 1937): cl(A) is the union of the point closures cl{x}, x in A,
and cl{x} is the meet of the base members holding x.  So closure is one
union-preserving map per space (`boolean.additive`), and so is the preimage
map of a space morphism.  The closed sets
are the down-sets of the specialization preorder, listed per connected
component and multiplied out only to enumerate the regular closed sets,
the closures of the open sets' maximal traces.  The family is refused
unlisted when an antichain of w point closures (2^w closed sets), a
component's count or the product's puts it over the bound; RC built from
its atoms replaces the listing once the benchmark stops counting closed
sets (ROADMAP items 1 and 2).
The dual space of an algebra takes the n atom extents as its closed base:
the regions are the joins of the extents, and the joins give the same
point closures, so a written dual space lists n base sets, not 2^n.  Its
2^n joins are distinct, so the sorted extents are the region atoms, and the
dual algebra is built on them as they are; only a space read from a file
has its atoms found by `SetAlgebra.of_family`.

Before-after on the points is a `contact.Relation`: one successor mask per
point.  The dual space builds its rows straight from the clan rule (clan x
precedes clan y iff every atom of x precedes every atom of y), one row per
distinct set of common successors, and S7 compares rows; model files still
list the ordered pairs.

The regular closed sets form a Boolean algebra (RC: join is union, meet
cl(int(a ∩ b)), complement cl(U ∖ a)), and a space's region family is a
subalgebra of it.  Both are finite, so each is a `boolean.SetAlgebra`, the
powerset of its atoms (`SetAlgebra.of_family` finds them), and
`_atom_algebra` stores time contact, space contact and precedence on atom
pairs.  When the regions are all of RC, as in every canonical dual space,
RC's algebra is the dual algebra itself (`rc_dca`), so a representation
builds and decides one algebra, not two equal ones.  S2 is decided on those
atoms, and the space axioms, the lifting conditions and the extent
isomorphism on atoms too; each point's trace, the atoms that hold
it, is listed once per algebra (`SetAlgebra.traces`) for S7, S8,
`classify` and the trace map.  The element-level evaluations are the test
oracle (`tests/conftest.py`).

Results are cached on the spaces and algebras they describe (`contact._cached`).
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .boolean import FiniteBA, SetAlgebra, additive, atoms_of, joins, mask_of, meeting
from .contact import Relation, _cached, cached_attribute
from .dca import (
    DCA,
    _common_successors,
    _time_classes,
    clan_structure,
)
from .errors import CapabilityError, PreconditionError, ValidationError
from .reporting import Check, Report
from .snapshot import (
    DCA_TIME_AXIOMS,
    TimeCondition,
    TimeStructure,
    check_time_condition,
    time_axiom_holds,
)

_FAMILY_CAP = 200_000


@dataclass(frozen=True)
class FiniteTopSpace:
    """Finite topological space given by a base of closed sets."""

    point_count: int
    closed_base: tuple[int, ...]

    def __post_init__(self):
        for b in self.closed_base:
            if not 0 <= b <= self.universe:
                raise ValidationError(f"base member {b:#x} out of range")

    @property
    def universe(self) -> int:
        return (1 << self.point_count) - 1

    @cached_attribute
    def _down(self) -> tuple[int, ...]:
        """_down[y]: closure of point y, the down-set of y in the specialization order.

        cl{y} is the meet of the base members holding y, the universe if none
        does (a union of members that covers y contains one that holds y):
        O(points * base) word operations.
        """
        down = [self.universe] * self.point_count
        for b in self.closed_base:
            for y in atoms_of(b):
                down[y] &= b
        return tuple(down)

    @cached_attribute
    def closure(self):
        """closure(a): the union of the point closures of a's points.

        Closure is additive in a finite space (Alexandrov 1937), so it is
        one union-preserving map over the point closures.
        """
        return additive(self._down)

    def interior(self, a: int) -> int:
        return self.universe ^ self.closure(self.universe ^ a)

    def is_closed(self, a: int) -> bool:
        return self.closure(a) == a

    def is_regular_closed(self, a: int) -> bool:
        return self.closure(self.interior(a)) == a

    @cached_attribute
    def _classes(self) -> dict[int, int]:
        """The specialization classes: each distinct point closure, mapped to
        the mask of the points that have it."""
        classes: dict[int, int] = {}
        for y, d in enumerate(self._down):
            classes[d] = classes.get(d, 0) | 1 << y
        return classes

    @cached_attribute
    def closed_family(self) -> frozenset[int]:
        """All closed sets: the down-sets of the specialization preorder.

        Distinct point closures of one size are incomparable, so w of them
        join to 2^w closed sets: a family that count puts over the bound is
        never listed.  Each connected component is listed in one pass over
        its classes by closure size, a class joining every listed set that
        holds its strictly-lower points, and the family is their product,
        refused before it is built when it or a component counts over the
        bound: O(classes * component family + family) word operations.
        """

        def refuse(count):
            message = f"at least {count} closed sets on {self.point_count} points, over the bound of {_FAMILY_CAP}"
            raise CapabilityError(f"closed-set family too large to enumerate: {message}", missing="small closed family")

        classes = self._classes
        widest = max(Counter(d.bit_count() for d in classes).values(), default=0)
        if 1 << widest > _FAMILY_CAP:
            refuse(f"2^{widest}")
        # Two classes lie in one component iff a chain of meeting closures joins them.
        parts: dict[int, list[int]] = {}
        for d in sorted(classes, key=int.bit_count):
            part = [mask for mask in parts if mask & d]
            parts[d | sum(part)] = [c for mask in part for c in parts.pop(mask)] + [d]
        family = [0]
        for members in parts.values():
            listed = [0]
            for d in members:
                cls, lower = classes[d], d ^ classes[d]
                listed += [c | cls for c in listed if c & lower == lower]
                if len(family) * len(listed) > _FAMILY_CAP:
                    refuse(_FAMILY_CAP + 1)
            family = [a | b for a in family for b in listed]
        return frozenset(family)

    @cached_attribute
    def regular_closed(self) -> tuple[int, ...]:
        """All regular closed sets, ascending by mask: cl(U) for every open U.

        cl(U) is the closure of U's maximal points, those its closed
        complement misses, and distinct maximal traces have distinct
        closures, so each trace is closed once."""
        closure, top = self.closure, self.universe
        for d, cls in self._classes.items():
            top &= ~(d ^ cls)
        return tuple(sorted(closure(top ^ t) for t in {c & top for c in self.closed_family}))


@dataclass(frozen=True)
class DMSpace:
    """Dynamic mereotopological space over a finite point set.

    `regions` is the distinguished subfamily of regular closed sets serving
    as the closed base; `space_points` and `time_points` are point masks.
    """

    space: FiniteTopSpace
    space_points: int
    time_points: int
    prec: Relation
    regions: tuple[int, ...]

    def __post_init__(self):
        universe = self.space.universe
        if self.space_points & ~universe or self.time_points & ~universe:
            raise ValidationError("distinguished point sets exceed the space")
        if self.prec.size != self.space.point_count:
            raise ValidationError(
                f"before-after on {self.prec.size} points, the space has {self.space.point_count}"
            )
        for a in self.regions:
            if a & ~universe:
                raise ValidationError(f"region {a:#x} exceeds the space")

    def points(self) -> range:
        return range(self.space.point_count)

    @cached_attribute
    def time_structure(self) -> TimeStructure:
        """Before-after restricted to the time points, numbered in ascending order."""
        times = [1 << x for x in atoms_of(self.time_points)]
        return TimeStructure.from_rows(len(times), self.prec.pullback(times).rows)


class DmsDual(NamedTuple):
    """Dual algebra of a space: its region family as a dynamic algebra."""

    dca: DCA
    atoms: SetAlgebra

    def trace_support(self, x: int) -> int:
        """Atom support of the point's clan in the dual algebra: its trace."""
        traces = self.atoms.traces
        return traces[x] if x < len(traces) else 0


def _atom_algebra(space: DMSpace, family) -> tuple[DCA, SetAlgebra]:
    """A Boolean family of point sets, or its atoms as a `SetAlgebra`, as a
    dynamic algebra on its atoms (`SetAlgebra.of_family` finds them): row i
    of each relation holds the atoms that atom i's point set, its space
    points, or its successors meet."""
    atoms = family if isinstance(family, SetAlgebra) else SetAlgebra.of_family(family)
    k = len(atoms)
    space_rel = Relation.from_rows(k, [meeting(atoms, u & space.space_points) for u in atoms])
    time_rel = Relation.from_rows(k, [meeting(atoms, u) for u in atoms])
    return DCA(FiniteBA(k), space_rel, time_rel, space.prec.pullback(atoms)), atoms


def dual(space: DMSpace) -> DmsDual:
    """Dual dynamic algebra over the distinguished region family: the algebra
    `dual_space` built the space from, while it lives and equals the one
    built from the regions.  The space holds it weakly, as a strong link back
    to the algebra that holds the space would make each pair a cycle."""
    built = _built_dual(space)
    ref = vars(space).get("_dual_of")
    source = ref and ref()
    return DmsDual(source, built.atoms) if source == built.dca else built


@_cached
def _built_dual(space: DMSpace) -> DmsDual:
    """The algebra built from the regions, on the atoms `dual_space` handed
    over when it built the space, else on those `of_family` finds."""
    return DmsDual(*_atom_algebra(space, vars(space).get("_region_atoms", space.regions)))


@_cached
def check_s2(candidate: DMSpace) -> Check:
    """S2: the regions are a subalgebra of RC and a closed base.

    Decided on the atoms of the union-Boolean family (`dual`): it is a
    subalgebra of RC iff each atom is the closure of its interior and the
    atom interiors are pairwise disjoint.  An open set missing int(a) also
    misses cl(int(a)) = a, so the RC complement of a join of atoms is the
    join of the other atoms.  Only a failing family is scanned region by
    region, for the first one that is not regular closed or whose
    complement escapes; with none, the witness is that of `dual`.
    """
    space = candidate.space
    regions = candidate.regions
    members = set(regions)
    if len(members) != len(regions):
        return Check("S2", False, ("duplicate region",))
    if 0 not in members or space.universe not in members:
        return Check("S2", False, ("missing bounds",))
    try:
        atoms, failure = dual(candidate).atoms, None
    except ValidationError as exc:
        atoms, failure = (), exc.witness
    if failure is not None or not _regular_atoms(space, atoms):
        for a in regions:
            if not space.is_regular_closed(a):
                return Check("S2", False, (a, "not regular closed"))
            if space.closure(space.universe ^ a) not in members:
                return Check("S2", False, (a, "complement escapes"))
        return Check("S2", False, failure)
    # The family must be a closed base: it has to recover every base-closed
    # set of the ambient topology.  A base member that is a region is closed
    # and a member of the probe base, so it passes.
    probe = None
    for b in space.closed_base:
        if b in members:
            continue
        if probe is None:
            probe = FiniteTopSpace(space.point_count, tuple(sorted(members)))
        if probe.closure(b) != space.closure(b) or not probe.is_closed(space.closure(b)):
            return Check("S2", False, (b, "not a closed base"))
    return Check("S2", True)


def _regular_atoms(space: FiniteTopSpace, atoms) -> bool:
    """Each atom is the closure of its interior, and the interiors are disjoint."""
    seen = 0
    for a in atoms:
        inner = space.interior(a)
        if inner & seen or space.closure(inner) != a:
            return False
        seen |= inner
    return True


@_cached
def validate_dms(candidate: DMSpace) -> Report:
    """Decide the eight space axioms, each with a witness on failure.

    S2 is `check_s2`; S7 is decided on the dual atoms.
    """
    report = Report(subject="dynamic mereotopological space")
    space = candidate.space
    report.add("S1", space.point_count >= 1)

    s2 = check_s2(candidate)
    report.extend([s2])

    report.add("S3", candidate.space_points != 0 and candidate.time_points != 0)
    s4_witness = next(((a,) for a in space.regular_closed if a and not a & candidate.space_points), None)
    report.add("S4", s4_witness is None, s4_witness)
    report.add("S5", True)  # structural, enforced at construction

    if not s2.holds:
        for name in ("S6", "S7", "S8"):
            report.add(name, False, witness=("not evaluable: S2 fails",))
        return report

    algebra = dual(candidate)
    failing = algebra.dca.report.first_failure()
    report.add("S6", failing is None, None if failing is None else (failing.name, failing.witness))

    # Precedence is additive and every region is a join of dual atoms, so
    # (x, y) must be in prec iff every atom containing x precedes every atom
    # containing y: row x holds the points in no atom outside reach(x).  The
    # witness is the first differing pair in row-major order.
    universe, one = space.universe, algebra.dca.base.one
    s7_witness = None
    for x, row in enumerate(candidate.prec.rows):
        reach = _common_successors(algebra.dca, algebra.trace_support(x))
        wrong = row ^ universe ^ algebra.atoms.join(one ^ reach)
        if wrong:
            s7_witness = (x, (wrong & -wrong).bit_length() - 1)
            break
    report.add("S7", s7_witness is None, s7_witness)

    if failing is None:
        cluster_supports = set(_time_classes(algebra.dca))
        s8_witness = next(
            ((x,) for x in atoms_of(candidate.time_points) if algebra.trace_support(x) not in cluster_supports), None
        )
        report.add("S8", s8_witness is None, s8_witness)
    else:
        report.add("S8", False, witness=("not evaluable: S6 fails",))
    return report


@dataclass(frozen=True)
class Classification:
    is_t0: bool
    is_dm_compact: bool
    unrealized_t_clans: tuple[int, ...]
    unrealized_s_clans: tuple[int, ...]
    unrealized_clusters: tuple[int, ...]
    duplicate_points: tuple[tuple[int, int], ...]


@_cached
def classify(space: DMSpace) -> Classification:
    """T0 via injectivity of point traces, DM-compactness via their surjectivity.

    Points are grouped by their trace support, so the duplicate pairs, in
    lexicographic order, cost time linear in the points and the pairs.
    """
    algebra = dual(space)
    d = algebra.dca
    d.require_valid()
    traces = list(map(algebra.trace_support, space.points()))
    by_trace: dict[int, list[int]] = {}
    for x, support in enumerate(traces):
        by_trace.setdefault(support, []).append(x)
    duplicates = tuple(sorted(pair for group in by_trace.values() for pair in itertools.combinations(group, 2)))
    realized_t = set(by_trace)
    realized_s = {traces[x] for x in atoms_of(space.space_points)}
    realized_clusters = {traces[x] for x in atoms_of(space.time_points)}
    missing_t = tuple(sorted(set(d.ct_algebra.clique_supports) - realized_t))
    missing_s = tuple(sorted(set(d.cs_algebra.clique_supports) - realized_s))
    missing_clusters = tuple(sorted(set(_time_classes(d)) - realized_clusters))
    return Classification(
        is_t0=not duplicates,
        is_dm_compact=not (missing_t or missing_s or missing_clusters),
        unrealized_t_clans=missing_t,
        unrealized_s_clans=missing_s,
        unrealized_clusters=missing_clusters,
        duplicate_points=duplicates,
    )


def lifting_conditions(space: DMSpace, sub_family) -> list[Check]:
    """Density, co-density and separation of a Boolean subalgebra of RC.

    Decided on the RC atoms.  The least sub member above an element, up(a),
    is additive, and up(x) for an RC atom x is the smallest sub member
    containing it.  So Dense holds iff every RC atom is a sub member,
    Co-dense iff up(compl x) != 1 for every RC atom x (the witness is that
    coatom), and a separation condition fails iff rel(up x, up y) holds for
    atoms x, y with no rel(x, y).  The first failing element, or element
    pair, in ascending order is an atom, or a pair of atoms, so those
    witnesses are the first failing instances over all of RC.
    """
    _, atoms = rc_dca(space)
    sub = set(sub_family)
    up = [min((m for m in sub if x & ~m == 0), key=int.bit_count) for x in atoms]
    shared = Counter(up)  # up(compl x) = 1 iff another atom shares up(x), a sub atom
    out = []
    witness = next(((x,) for x in atoms if x not in sub), None)
    out.append(Check("Dense", witness is None, witness))
    everything = (1 << len(atoms)) - 1
    witness = next(
        (
            (atoms.join(everything ^ (1 << i)),)
            for i, u in enumerate(up)
            if shared[u] > 1
        ),
        None,
    )
    out.append(Check("Co-dense", witness is None, witness))
    # rel(a, b) holds iff reach(a) meets b, so the atoms j with
    # rel(up[i], up[j]) but not rel(x_i, x_j) are one mask per atom i.
    for name, reach in (
        ("Ct-separation", lambda a: a),
        ("Cs-separation", lambda a: a & space.space_points),
        ("B-separation", space.prec.forward_image),
    ):
        witness = None
        for x, u in zip(atoms, up):
            failing = meeting(up, reach(u)) & ~meeting(atoms, reach(x))
            if failing:
                witness = (x, atoms[(failing & -failing).bit_length() - 1])
                break
        out.append(Check(name, witness is None, witness))
    return out


def _require_dm_compact(space: DMSpace, what: str) -> Classification:
    """The space's classification, or a refusal naming `what` needs DM-compactness."""
    shape = classify(space)
    if not shape.is_dm_compact:
        raise CapabilityError(f"{what} needs DM-compactness", missing="DM-compact")
    return shape


def rc_dca(space: DMSpace) -> DmsDual:
    """The full regular-sets algebra of a space as a dynamic algebra.

    When the regions are all of RC (the space is Dense, as every canonical
    dual space is), this is the dual algebra itself, so the one algebra is
    built, validated and decided once for both roles.
    """
    return _rc_unless_regions(space) or dual(space)


@_cached
def _rc_unless_regions(space: DMSpace) -> DmsDual | None:
    rc = space.space.regular_closed
    return None if tuple(sorted(space.regions)) == rc else DmsDual(*_atom_algebra(space, rc))


def stability_check(space: DMSpace) -> Report:
    """Stability of the distinguished subalgebra inside the full RC algebra.

    Verifies the lifting conditions, that RC is itself a dynamic algebra,
    and the axiom-by-axiom lifting equivalence between the two.  The regions
    must form a subalgebra of RC (S2).
    """
    _require_dm_compact(space, "stability analysis")
    validate_dms(space).require("S2")
    report = Report(subject="stable subalgebra")
    report.extend(lifting_conditions(space, space.regions))

    full, _ = rc_dca(space)
    full_report = full.report
    report.add_summary("RC(S) is a DCA", full_report)

    sub = dual(space)
    sub_report = sub.dca.report
    for name in ("Cs<=Ct", "CtE", "CtB", "BCt"):
        report.add(
            f"lifting {name}",
            sub_report[name].holds == full_report[name].holds,
        )
    for cond in DCA_TIME_AXIOMS:
        report.add(
            f"lifting {cond.region_axiom}",
            time_axiom_holds(sub.dca, cond) == time_axiom_holds(full, cond),
        )
    return report


@dataclass(frozen=True)
class DualSpaceResult:
    """Canonical space of a dynamic algebra, its points' clans and its atoms' extents."""

    space: DMSpace
    points: tuple[int, ...]
    extents: SetAlgebra

    @cached_attribute
    def _point_index(self) -> dict[int, int]:
        return {support: i for i, support in enumerate(self.points)}

    def point_of(self, support: int) -> int:
        try:
            return self._point_index[support]
        except KeyError:
            raise ValidationError(
                f"support {support:#x} is not a point of the dual space", witness=support
            ) from None


@_cached
def dual_space(d: DCA) -> DualSpaceResult:
    """Canonical dynamic mereotopological space of a valid dynamic algebra."""
    d.require_valid()
    structure = clan_structure(d)
    points = structure.t_clans
    index = {support: i for i, support in enumerate(points)}
    extents = SetAlgebra(meeting(points, 1 << x) for x in d.base.atoms())
    listed = joins(extents)
    result_regions = tuple(sorted(set(listed)))
    xs_mask = mask_of(index[support] for support in structure.s_clans)
    t_mask = mask_of(index[support] for support in structure.clusters)
    # Clan x precedes clan y iff y lies inside reach[x], that is iff y holds
    # no atom outside it: one row per distinct reach value.
    universe, one = (1 << len(points)) - 1, d.base.one
    rows = {reach: universe ^ extents.join(one ^ reach) for reach in set(structure.reach)}
    prec = Relation.from_rows(len(points), (rows[reach] for reach in structure.reach))
    # The regions are the joins of the atom extents, so the n extents are
    # a closed base of the same topology.
    topo = FiniteTopSpace(len(points), tuple(sorted(extents)))
    space = DMSpace(topo, xs_mask, t_mask, prec, result_regions)
    vars(space)["_dual_of"] = weakref.ref(d)  # for `dual`
    if len(result_regions) == len(listed):
        # The 2^n joins are distinct, so the extents are the regions' atoms,
        # those `of_family` would find: `_built_dual` takes them as they are.
        vars(space)["_region_atoms"] = SetAlgebra(sorted(extents))
    return DualSpaceResult(space, points, extents)


def extent_images(d: DCA) -> tuple[int, ...]:
    """The extent map on atoms: each atom's extent in the dual space, as the
    index of the atoms of the space's dual algebra inside it."""
    result = dual_space(d)
    return tuple(map(dual(result.space).atoms.index, result.extents))


def verify_representation_topo(d: DCA) -> Report:
    """Topological representation of a dynamic algebra through its dual space."""
    d.require_valid()
    result = dual_space(d)
    space = result.space
    report = Report(subject="topological representation")

    report.add_summary("dual space satisfies S1-S8", validate_dms(space))
    shape = classify(space)
    report.add("dual space is T0", shape.is_t0, tuple(shape.duplicate_points) or None)
    unrealized = shape.unrealized_t_clans + shape.unrealized_s_clans + shape.unrealized_clusters
    report.add("dual space is DM-compact", shape.is_dm_compact, unrealized or None)

    # The extent map is additive and the dual family is closed under joins,
    # so the map is a Boolean isomorphism iff it sends the atoms bijectively
    # onto the dual's atoms, and all relations are additive, so they are
    # compared on atom pairs.
    algebra = dual(space)
    image = extent_images(d)
    lands = all(algebra.atoms.join(m) == extent for m, extent in zip(image, result.extents))
    report.add("extents land in the dual algebra", lands)
    if lands:
        hit, witness = 0, None
        for x, m in enumerate(image):
            if not m or m & (m - 1) or m & hit:
                witness = (1 << x,)
                break
            hit |= m
        if witness is None and hit != algebra.dca.base.one:
            witness = (d.base.one,)
        # Each dual relation, pulled back to the atoms' images, is the algebra's own.
        pulled = [r.pullback(image) for r in (algebra.dca.space_rel, algebra.dca.time_rel, algebra.dca.prec_rel)]
        relations_ok = pulled == [d.space_rel, d.time_rel, d.prec_rel]
        report.add("extent map is a Boolean isomorphism", witness is None, witness)
        report.add("extent map preserves and reflects the relations", relations_ok)

    report.add_summary("dual subalgebra is stable in RC", stability_check(space))

    full, _ = rc_dca(space)
    report.add("RC of the dual space is a DCA", full.is_valid)
    for cond in DCA_TIME_AXIOMS:
        report.add(
            f"time axiom {cond.region_axiom} matches RC",
            time_axiom_holds(d, cond) == time_axiom_holds(full, cond),
        )
    return report


class DefinabilityRow(NamedTuple):
    """One time condition on a space's time structure versus its axiom in RC,
    with a note where the transfer is not guaranteed."""

    condition: TimeCondition
    on_time_structure: bool
    on_rc_axiom: bool
    note: str | None

    @property
    def agree(self) -> bool:
        return self.on_time_structure == self.on_rc_axiom


def topological_definability(space: DMSpace, cond: TimeCondition) -> DefinabilityRow:
    """One time condition on the time structure versus its axiom in RC."""
    if cond is TimeCondition.IRR:
        raise PreconditionError("irreflexivity has no definability row")
    compact = _require_dm_compact(space, "topological definability")
    note = None
    if cond is TimeCondition.TRI and not compact.is_t0:
        note = "trichotomy transfer is only guaranteed on T0 spaces"
    on_rc = time_axiom_holds(rc_dca(space)[0], cond)
    return DefinabilityRow(cond, check_time_condition(space.time_structure, cond).holds, on_rc, note)


def is_trivial_dms(space: DMSpace) -> bool:
    """A single time point related to itself by before-after."""
    t = space.time_points
    if t == 0 or t & (t - 1):
        return False
    x = t.bit_length() - 1
    return bool(space.prec.rows[x] >> x & 1)
