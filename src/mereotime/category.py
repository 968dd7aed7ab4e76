"""Morphisms of dynamic algebras and spaces, functors and duality checks.

An algebra morphism is an atom map: its images of 0 and of each atom, which
fix a join-preserving map between finite Boolean algebras (finite Stone
duality).  So morphisms are built, composed and inverted on n images, and
`DcaMorphism.from_table` reads an element table, as a model file gives it,
once.  A space morphism is its point table; its preimage and image maps
are additive, so each is one table-driven map built once per morphism.
The two functors act by preimage.  Two homomorphisms first differ at an
atom, so the naturality equations and functor laws are compared on atoms
and points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolean import additive, atoms_of, meeting
from .contact import _first_missing, cached_attribute
from .dca import DCA, is_trivial
from .dms import (
    DMSpace,
    check_s2,
    classify,
    dual,
    dual_space,
    is_trivial_dms,
)
from .errors import CapabilityError, CompositionError, ValidationError
from .reporting import Report
from .snapshot import (
    DCA_TIME_AXIOMS,
    check_time_condition,
    time_axiom_holds,
)


@dataclass(frozen=True)
class DcaMorphism:
    """Structure map between dynamic algebras: f(0) and the atom images.

    A map read from a table that does not preserve joins keeps the first
    failure, (a - x, x) for the lowest atom x of a, as `join_failure`.
    """

    dom: DCA
    cod: DCA
    images: tuple[int, ...]
    zero: int = 0
    join_failure: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.images) != self.dom.base.atom_count:
            raise ValidationError("morphism must map every atom")
        for image in (self.zero, *self.images):
            self.cod.base.check(image)

    def __call__(self, a: int) -> int:
        out = self.zero
        for x in atoms_of(self.dom.base.check(a)):
            out |= self.images[x]
        return out

    @classmethod
    def identity(cls, d: DCA) -> "DcaMorphism":
        return cls(d, d, tuple(1 << x for x in d.base.atoms()))

    @classmethod
    def from_table(cls, dom: DCA, cod: DCA, table) -> "DcaMorphism":
        """The map with these element images, in one ascending pass."""
        if len(table) != dom.base.size:
            raise ValidationError("morphism table must cover every element")
        for image in table:
            cod.base.check(image)
        failure = None
        for a in range(1, dom.base.size):
            low = a & -a
            if table[a] != table[a ^ low] | table[low]:
                failure = (a ^ low, low)
                break
        images = tuple(table[1 << x] for x in dom.base.atoms())
        return cls(dom, cod, images, table[0], failure)


@dataclass(frozen=True)
class DmsMorphism:
    """Point table of a structure map between spaces."""

    dom: DMSpace
    cod: DMSpace
    point_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.point_map) != self.dom.space.point_count:
            raise ValidationError("morphism must map every point")
        for image in self.point_map:
            if not 0 <= image < self.cod.space.point_count:
                raise ValidationError(f"point image {image} out of range")

    def __call__(self, x: int) -> int:
        return self.point_map[x]

    @classmethod
    def identity(cls, s: DMSpace) -> "DmsMorphism":
        return cls(s, s, tuple(s.points()))

    @cached_attribute
    def preimage(self):
        """preimage(region): the points mapped into `region`, a union of fibres."""
        fibres = [0] * self.cod.space.point_count
        for x, y in enumerate(self.point_map):
            fibres[y] |= 1 << x
        return additive(fibres)

    @cached_attribute
    def _image(self):
        """_image(region): the points that `region`'s points map to."""
        return additive([1 << y for y in self.point_map])

    @cached_attribute
    def _pulled_successors(self) -> tuple[int, ...]:
        """Row x: the points mapped to successors of x's image; one preimage per distinct row."""
        rows = self.cod.prec.rows
        pulled = {row: self.preimage(row) for row in set(rows)}
        return tuple(pulled[rows[y]] for y in self.point_map)


def validate_dca_morphism(f: DcaMorphism) -> Report:
    """Boolean homomorphism reflecting all three relations, decided on atoms.

    A join-preserving f is a Boolean homomorphism iff f(0) = 0 and its atom
    images are pairwise disjoint and join to the top.  It is fixed by its
    values on 0 and the atoms, and all three relations are additive, so the
    first element pair breaking a reflection is a pair of such generators.
    For each generator a those b are one mask: the generators whose images
    meet the codomain row of f(a), less those in a's domain row.
    """
    report = Report(subject="DCA morphism")
    dom, cod = f.dom, f.cod
    witness = f.join_failure
    partition = sum(m.bit_count() for m in f.images) == cod.base.atom_count
    hom = witness is None and f.zero == 0 and partition and f(dom.base.one) == cod.base.one
    report.add("f1:Boolean homomorphism", hom, witness)
    # Generator j is 0 for j = 0 and atom j - 1 after it; nothing relates to
    # 0, so a's row over the generators is its atom row shifted by one.
    generators = (0, *(1 << x for x in dom.base.atoms()))
    images = (f.zero, *(f.zero | m for m in f.images))
    for name, dom_rel, cod_rel in (
        ("f2:reflects Cs", dom.space_rel, cod.space_rel),
        ("f3:reflects Ct", dom.time_rel, cod.time_rel),
        ("f4:reflects B", dom.prec_rel, cod.prec_rel),
    ):
        if witness is not None:
            report.add(name, False, witness=("not evaluable",))
            continue
        failure = None
        for a, row in zip(generators, cod_rel.pullback(images).rows):
            missed = row & ~(dom_rel.forward_image(a) << 1)
            if missed:
                failure = (a, generators[(missed & -missed).bit_length() - 1])
                break
        report.add(name, failure is None, failure)
    return report


def validate_dms_morphism(theta: DmsMorphism) -> Report:
    """Space-point and order preservation plus a preimage homomorphism.

    t3 and t4 are decided on region atoms when both sides satisfy S2; the
    regions are scanned, in order, only to name a failure's first witness or
    when S2 fails on a side.
    """
    report = Report(subject="DMS morphism")
    dom, cod = theta.dom, theta.cod
    witness = next(
        (
            (x,)
            for x in atoms_of(dom.space_points)
            if not cod.space_points & (1 << theta(x))
        ),
        None,
    )
    report.add("t1:preserves space points", witness is None, witness)
    # t2 row by row: x's successors map to successors of theta(x).
    found = _first_missing(dom.prec.rows, theta._pulled_successors)
    witness = found and tuple(m.bit_length() - 1 for m in found)
    report.add("t2:preserves before-after", witness is None, witness)
    t3_holds, t4_holds = _preimage_verdicts(theta)
    witness = None
    if not t3_holds:
        dom_regions = set(dom.regions)
        witness = next(
            ((a,) for a in cod.regions if theta.preimage(a) not in dom_regions), None
        )
    report.add("t3:preimages stay in the algebra", witness is None, witness)
    if witness is None:
        if not t4_holds:
            # Preimage preserves unions set-theoretically, so complement
            # preservation suffices for a Boolean homomorphism.
            witness = next(
                (
                    (a,)
                    for a in cod.regions
                    if theta.preimage(cod.space.closure(cod.space.universe ^ a))
                    != dom.space.closure(dom.space.universe ^ theta.preimage(a))
                ),
                None,
            )
        report.add("t4:preimage preserves complement", witness is None, witness)
    else:
        report.add("t4:preimage preserves complement", False, witness=("not evaluable",))
    return report


def _preimage_verdicts(theta: DmsMorphism) -> tuple[bool, bool]:
    """Whether t3 and t4 hold, decided on region atoms; both read False when
    S2 fails on a side, and a False verdict is left to the region scan.

    Under S2 the regions are the distinct joins of the region atoms, and the
    RC complement of a join of atoms is the join of the other atoms
    (`check_s2`).  Preimage is additive, so t3 holds iff each codomain
    atom's preimage is a domain region; those preimages cover the domain,
    and t4 holds iff their atom supports are disjoint.  Atoms may share
    boundary points, so t3 alone does not give t4.
    """
    if not (check_s2(theta.dom).holds and check_s2(theta.cod).holds):
        return False, False
    dual_dom = dual(theta.dom)
    preimages = [theta.preimage(atom) for atom in dual(theta.cod).atoms]
    supports = [dual_dom.mask_of(p) for p in preimages]
    if any(dual_dom.pointset(m) != p for m, p in zip(supports, preimages)):
        return False, False
    return True, sum(m.bit_count() for m in supports) == len(dual_dom.atoms)


def compose(first, second):
    """Apply `first`, then `second`; defined for both morphism kinds."""
    kinds = (type(first), type(second))
    if kinds not in ((DcaMorphism, DcaMorphism), (DmsMorphism, DmsMorphism)):
        raise CompositionError("cannot compose morphisms of different kinds")
    if first.cod != second.dom:
        raise CompositionError("codomain of the first map must be the second's domain")
    if isinstance(first, DmsMorphism):
        return DmsMorphism(first.dom, second.cod, tuple(map(second, first.point_map)))
    failure = first.join_failure or second.join_failure
    if failure:
        raise CompositionError(f"map does not preserve joins at {failure}")
    return DcaMorphism(first.dom, second.cod, tuple(map(second, first.images)), second(first.zero))


def lower(f: DcaMorphism) -> DmsMorphism:
    """Contravariant image of an algebra morphism: preimage on t-clans.

    For f from A to A' this is a space morphism from the dual of A' to the
    dual of A.  A clan's preimage is supported by the atoms whose images
    meet the clan's support.
    """
    validate_dca_morphism(f).require()
    dual_dom, dual_cod = dual_space(f.dom), dual_space(f.cod)
    point_map = tuple(
        dual_dom.point_of(meeting(f.images, support)) for support in dual_cod.points
    )
    return DmsMorphism(dual_cod.space, dual_dom.space, point_map)


def raise_(theta: DmsMorphism) -> DcaMorphism:
    """Contravariant image of a space morphism: preimage on regions.

    For theta from S to S' this is an algebra morphism from the dual of S'
    to the dual of S, sending each region atom of S' to the region atoms of
    S inside its preimage.
    """
    validate_dms_morphism(theta).require()
    dual_dom, dual_cod = dual(theta.dom), dual(theta.cod)
    images = tuple(dual_dom.mask_of(theta.preimage(atom)) for atom in dual_cod.atoms)
    return DcaMorphism(dual_cod.dca, dual_dom.dca, images)


def extent_isomorphism(d: DCA) -> DcaMorphism:
    """The canonical map of an algebra onto the dual of its dual space."""
    result = dual_space(d)
    algebra = dual(result.space)
    images = tuple(map(algebra.mask_of, result.extents))
    return DcaMorphism(d, algebra.dca, images)


def trace_morphism(space: DMSpace) -> DmsMorphism:
    """The canonical map of a space into the dual space of its dual algebra, or itself if equal."""
    algebra = dual(space)
    result = dual_space(algebra.dca)
    point_map = tuple(
        result.point_of(algebra.trace_support(x)) for x in space.points()
    )
    return DmsMorphism(space, space if result.space == space else result.space, point_map)


def naturality(morphism) -> Report:
    """Naturality of the double-dual comparison maps, on atoms and points."""
    report = Report(subject="naturality")
    if isinstance(morphism, DcaMorphism):
        f = morphism
        raised = raise_(lower(f))
        g_dom, g_cod = extent_isomorphism(f.dom), extent_isomorphism(f.cod)
        witness = next(
            ((1 << x,) for x in f.dom.base.atoms() if raised(g_dom(1 << x)) != g_cod(f(1 << x))),
            None,
        )
        report.add("double dual of extents", witness is None, witness)
        return report
    if isinstance(morphism, DmsMorphism):
        theta = morphism
        lowered = lower(raise_(theta))
        rho_dom, rho_cod = trace_morphism(theta.dom), trace_morphism(theta.cod)
        witness = next(
            ((x,) for x in theta.dom.points() if lowered(rho_dom(x)) != rho_cod(theta(x))),
            None,
        )
        report.add("double dual of traces", witness is None, witness)
        return report
    raise ValidationError("naturality expects a morphism")


def functor_laws(first, second) -> Report:
    """Composition is reversed by the contravariant functors."""
    report = Report(subject="functor laws")
    composite = compose(first, second)
    if isinstance(first, DcaMorphism):
        left = lower(composite)
        right = compose(lower(second), lower(first))
        report.add("lower reverses composition", left.point_map == right.point_map)
        lowered = lower(DcaMorphism.identity(first.dom))
        report.add("lower preserves identity", lowered == DmsMorphism.identity(lowered.dom))
    else:
        left = raise_(composite)
        right = compose(raise_(second), raise_(first))
        report.add("raise reverses composition", left == right)
        raised = raise_(DmsMorphism.identity(first.dom))
        report.add("raise preserves identity", raised == DcaMorphism.identity(raised.dom))
    return report


def dca_isomorphism_report(f: DcaMorphism) -> Report:
    """Morphism plus a two-sided inverse morphism.

    A join-preserving map is bijective iff it sends 0 to 0 and permutes the
    atoms; its inverse is the inverse permutation.
    """
    report = Report(subject="DCA isomorphism")
    validation = validate_dca_morphism(f)
    report.add("is a morphism", validation.ok)
    bijective = f.zero == 0 and sorted(f.images) == [1 << y for y in f.cod.base.atoms()]
    report.add("bijective", bijective)
    if bijective and validation.ok:
        inverse_images = [0] * f.cod.base.atom_count
        for x, image in enumerate(f.images):
            inverse_images[image.bit_length() - 1] = 1 << x
        inverse = DcaMorphism(f.cod, f.dom, tuple(inverse_images))
        report.add("inverse is a morphism", validate_dca_morphism(inverse).ok)
        report.add(
            "composition is the identity", compose(f, inverse) == DcaMorphism.identity(f.dom)
        )
    return report


def dms_isomorphism_report(theta: DmsMorphism) -> Report:
    """Both formulations of space isomorphism, which must agree.

    The bijection formulation requires the converses of the morphism
    conditions; the categorical one requires a two-sided inverse morphism.
    """
    report = Report(subject="DMS isomorphism")
    validation = validate_dms_morphism(theta)
    report.add("is a morphism", validation.ok)
    dom, cod = theta.dom, theta.cod
    bijective = (
        len(set(theta.point_map)) == dom.space.point_count == cod.space.point_count
    )
    report.add("bijective on points", bijective)
    if not (bijective and validation.ok):
        return report

    cond1 = all(
        dom.space_points & (1 << x)
        for x in dom.points()
        if cod.space_points & (1 << theta(x))
    )
    report.add("reflects space points", cond1)
    cond2 = _first_missing(theta._pulled_successors, dom.prec.rows) is None
    report.add("reflects before-after", cond2)
    images = {theta._image(a) for a in dom.regions}
    cond3 = images == set(cod.regions)
    report.add("maps the algebra onto the algebra", cond3)

    inverse_map = [0] * cod.space.point_count
    for x, y in enumerate(theta.point_map):
        inverse_map[y] = x
    inverse = DmsMorphism(cod, dom, tuple(inverse_map))
    inverse_ok = validate_dms_morphism(inverse).ok
    report.add("inverse is a morphism", inverse_ok)
    report.add(
        "two formulations agree",
        (cond1 and cond2 and cond3) == inverse_ok,
    )
    return report


def duality_roundtrip(subject) -> Report:
    """Round-trip isomorphisms of the duality, plus its tagged refinements.

    For an algebra: the extent map onto the dual of the dual space, the
    time-axiom transfer to the dual's time structure, and trivial-case
    coherence.  For a space: the trace map onto the dual space of the dual
    algebra, gated on the T0 and DM-compactness requirements.
    """
    if isinstance(subject, DCA):
        d = subject
        d.require_valid()
        report = Report(subject="duality round trip (algebra)")
        result = dual_space(d)
        g = extent_isomorphism(d)
        iso = dca_isomorphism_report(g)
        report.add("extent map is an isomorphism", iso.ok)

        for cond in DCA_TIME_AXIOMS:
            report.add(
                f"axiom {cond.region_axiom} matches the dual time structure",
                time_axiom_holds(d, cond)
                == check_time_condition(result.space.time_structure, cond).holds,
            )
        report.add(
            "trivial algebra iff trivial dual space",
            is_trivial(d) == is_trivial_dms(result.space),
        )
        return report

    if isinstance(subject, DMSpace):
        space = subject
        shape = classify(space)
        if not shape.is_t0:
            raise CapabilityError("round trip requires a T0 space", missing="T0")
        if not shape.is_dm_compact:
            raise CapabilityError("round trip requires DM-compactness", missing="DM-compact")
        report = Report(subject="duality round trip (space)")
        theta = trace_morphism(space)
        iso = dms_isomorphism_report(theta)
        report.add("trace map is an isomorphism", iso.ok)
        report.add(
            "trivial space iff trivial dual algebra",
            is_trivial_dms(space) == is_trivial(dual(space).dca),
        )
        return report

    raise ValidationError("round trip expects an algebra or a space")
