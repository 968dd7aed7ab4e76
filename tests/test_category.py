import gc
import itertools
import random
import time
import weakref
from collections import Counter

import pytest

from conftest import (
    TableMorphism,
    element_compose,
    element_dca_isomorphism_report,
    element_extent_isomorphism,
    element_functor_laws,
    element_naturality,
    element_validate_dca_morphism,
    element_validate_dms_morphism,
    pair_set_reflects_prec,
    pair_set_t2_failures,
    random_region_families,
)
from mereotime import dms as dms_module
from mereotime.boolean import FiniteBA, atoms_of, mask_of
from mereotime.category import (
    DcaMorphism,
    DmsMorphism,
    compose,
    dca_isomorphism_report,
    dms_isomorphism_report,
    duality_roundtrip,
    extent_isomorphism,
    functor_laws,
    lower,
    naturality,
    raise_,
    trace_morphism,
    validate_dca_morphism,
    validate_dms_morphism,
)
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import DCA, from_contact_algebra, standard_dca, verify_embedding
from mereotime.dms import (
    DMSpace,
    FiniteTopSpace,
    _atom_algebra,
    check_s2,
    classify,
    dual,
    dual_space,
    verify_representation_topo,
)
from mereotime.errors import CapabilityError, CompositionError, ValidationError
from mereotime.generate import all_relations, trivial_dcas
from mereotime.snapshot import TimeStructure, build_dmst

ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))


def chain_dca():
    ts = TimeStructure.of(2, {(0, 1)})
    return standard_dca(build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full"))


def trivial_dca(n=2):
    return from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(n)))


def permuted_copy(d: DCA, perm) -> tuple[DCA, DcaMorphism]:
    """Relabel atoms by a permutation; the relabeling map is an isomorphism."""

    def move_pairs(rel):
        return {(perm[x], perm[y]) for x, y in rel.pairs}

    target = DCA.from_pairs(
        d.base.atom_count,
        move_pairs(d.space_rel),
        move_pairs(d.time_rel),
        move_pairs(d.prec_rel),
    )

    def move_mask(a):
        return mask_of(perm[x] for x in atoms_of(a))

    table = tuple(move_mask(a) for a in d.base.elements())
    return target, DcaMorphism.from_table(d, target, table)


def test_identity_morphisms_validate():
    d = chain_dca()
    assert validate_dca_morphism(DcaMorphism.identity(d)).ok
    space = dual_space(d).space
    assert validate_dms_morphism(DmsMorphism.identity(space)).ok


def test_extent_map_is_an_isomorphism():
    for d in (trivial_dca(), chain_dca()):
        g = extent_isomorphism(d)
        assert validate_dca_morphism(g).ok
        assert dca_isomorphism_report(g).ok


def test_morphism_breaking_space_reflection():
    source = trivial_dca(2)  # space contact = overlap
    weak = from_contact_algebra(PrecontactAlgebra.largest(FiniteBA(2)))
    f = DcaMorphism.from_table(source, weak, tuple(source.base.elements()))
    report = validate_dca_morphism(f)
    assert report["f1:Boolean homomorphism"].holds
    assert not report["f2:reflects Cs"].holds
    assert report["f2:reflects Cs"].witness == (1, 2)


def test_validate_dca_morphism_matches_element_oracle(small_dca_corpus):
    # every table between algebras of at most 2 atoms, homomorphisms or not
    small = [d for d in small_dca_corpus if d.base.atom_count <= 2]
    assert sum(d.base.atom_count == 2 for d in small) >= 2
    join_failures = 0
    for dom, cod in itertools.product(small, repeat=2):
        for table in itertools.product(cod.base.elements(), repeat=dom.base.size):
            f, raw = DcaMorphism.from_table(dom, cod, table), TableMorphism(dom, cod, table)
            fast, slow = validate_dca_morphism(f), element_validate_dca_morphism(raw)
            f1, slow_f1 = fast["f1:Boolean homomorphism"], slow["f1:Boolean homomorphism"]
            assert f1.holds == slow_f1.holds, table
            assert (f1.witness is None) == (slow_f1.witness is None), table
            if f1.witness is None:
                assert fast.checks == slow.checks, table
                continue
            join_failures += 1
            a, b = f1.witness
            assert raw(a | b) != raw(a) | raw(b), table
            assert [c.name for c in fast.checks] == [c.name for c in slow.checks]
            for check in fast.checks[1:]:
                assert not check.holds and check.witness == ("not evaluable",), table
    assert join_failures > 0


def assert_matches_tables(maps):
    """The atom-map operations agree with their element-table oracles on
    join-preserving maps; naturality and the functor laws take morphisms."""
    tables = {f: TableMorphism.of(f) for f in maps}
    morphisms = [f for f in maps if validate_dca_morphism(f).ok]
    for f in maps:
        assert dca_isomorphism_report(f).checks == element_dca_isomorphism_report(tables[f]).checks
        for g in maps:
            if f.cod == g.dom:
                assert TableMorphism.of(compose(f, g)) == element_compose(tables[f], tables[g])
    for f in morphisms:
        assert naturality(f).checks == element_naturality(tables[f]).checks
        for g in morphisms:
            if f.cod == g.dom:
                slow = element_functor_laws(tables[f], tables[g])
                assert functor_laws(f, g).checks == slow.checks


def test_atom_maps_match_element_tables(small_dca_corpus):
    # every join-preserving table between algebras of at most 2 atoms
    small = [d for d in small_dca_corpus if d.base.atom_count <= 2]
    maps = []
    for dom, cod in itertools.product(small, repeat=2):
        for table in itertools.product(cod.base.elements(), repeat=dom.base.size):
            f = DcaMorphism.from_table(dom, cod, table)
            if f.join_failure is None:
                assert TableMorphism.of(f) == TableMorphism(dom, cod, table)
                maps.append(f)
    assert any(validate_dca_morphism(f).ok for f in maps)
    assert_matches_tables(maps)
    for d in small_dca_corpus:
        assert TableMorphism.of(extent_isomorphism(d)) == element_extent_isomorphism(d)


def test_permuted_copies_match_element_tables():
    d = chain_dca()
    mid, f = permuted_copy(d, (1, 0))
    _, g = permuted_copy(mid, (1, 0))
    assert_matches_tables([f, g, DcaMorphism.identity(d), extent_isomorphism(d)])
    space = dual_space(d).space
    theta = DmsMorphism.identity(space)
    assert functor_laws(theta, theta).checks == element_functor_laws(theta, theta).checks


def test_atom_maps_on_twenty_atoms():
    d = trivial_dca(20)
    start = time.perf_counter()
    f = DcaMorphism.identity(d)
    assert validate_dca_morphism(f).ok
    assert compose(f, f) == f
    assert dca_isomorphism_report(f).ok
    assert time.perf_counter() - start < 0.1


def test_permuted_copy_is_isomorphism():
    d = chain_dca()
    target, f = permuted_copy(d, (1, 0))
    assert target.is_valid
    assert dca_isomorphism_report(f).ok


def test_lower_of_identity_is_identity():
    d = trivial_dca()
    lowered = lower(DcaMorphism.identity(d))
    assert lowered.point_map == tuple(range(len(lowered.point_map)))
    assert validate_dms_morphism(lowered).ok


def test_lower_reverses_direction_and_validates():
    d = chain_dca()
    target, f = permuted_copy(d, (1, 0))
    lowered = lower(f)
    assert lowered.dom == dual_space(target).space
    assert lowered.cod == dual_space(d).space
    assert validate_dms_morphism(lowered).ok


def test_raise_preserves_complement_by_validation():
    d = chain_dca()
    space = dual_space(d).space
    theta = DmsMorphism.identity(space)
    raised = raise_(theta)
    assert validate_dca_morphism(raised).ok
    algebra = dual(space)
    one = algebra.dca.base.one
    for a in algebra.dca.base.elements():
        assert raised(one ^ a) == one ^ raised(a)


def _order_spaces():
    """A space for every before-after relation on one or two points and for
    ten seeded ones on three, each with only the regions 0 and the universe."""
    relations = [r for n in (1, 2) for r in all_relations(n)]
    relations += random.Random(14).sample(list(all_relations(3)), 10)
    for rel in relations:
        universe = (1 << rel.size) - 1
        yield DMSpace(FiniteTopSpace(rel.size, (0, universe)), universe, universe, rel, (0, universe))


def test_before_after_rows_match_pair_sets():
    """t2 and the converse in the isomorphism report, decided on successor
    rows, agree with the pair-set definitions on every point map between
    the spaces; the t2 witness is the smallest failing pair."""
    spaces = list(_order_spaces())
    failing, reflects = 0, []
    for dom, cod in itertools.product(spaces, repeat=2):
        for point_map in itertools.product(cod.points(), repeat=dom.space.point_count):
            theta = DmsMorphism(dom, cod, point_map)
            t2 = validate_dms_morphism(theta)["t2:preserves before-after"]
            failures = pair_set_t2_failures(theta)
            assert (t2.holds, t2.witness) == (not failures, min(failures, default=None)), theta
            iso = dms_isomorphism_report(theta)
            if "reflects before-after" in iso:
                reflects.append(iso["reflects before-after"].holds)
                assert reflects[-1] == pair_set_reflects_prec(theta), theta
            failing += not t2.holds
    assert failing > 1000 and 10 < reflects.count(False) < len(reflects) - 10


def _region_morphisms(small_dca_corpus):
    """Space maps: identities, trace maps and cyclic point shifts of dual
    spaces, and random point maps between random region families, many of
    which fail S2."""
    duals = [dual_space(d).space for d in [*small_dca_corpus, *trivial_dcas(4)]]
    maps = [DmsMorphism.identity(s) for s in duals] + [trace_morphism(s) for s in duals]
    maps += [DmsMorphism(s, s, (*range(1, len(s.points())), 0)) for s in duals]
    rng = random.Random(16)
    families = random_region_families(rng, 400)
    for dom in families:
        cod = rng.choice(families)
        point_map = tuple(rng.randrange(cod.space.point_count) for _ in dom.points())
        maps.append(DmsMorphism(dom, cod, point_map))
    return maps


def test_validate_dms_morphism_matches_region_scan(small_dca_corpus):
    """t3 and t4 decided on region atoms give the region scan's report,
    verdicts and witnesses alike, with S2 holding on both sides or not."""
    forms = Counter()
    for theta in _region_morphisms(small_dca_corpus):
        report = validate_dms_morphism(theta)
        assert report.checks == element_validate_dms_morphism(theta).checks, theta
        s2 = check_s2(theta.dom).holds and check_s2(theta.cod).holds
        t3 = report["t3:preimages stay in the algebra"].holds
        t4 = report["t4:preimage preserves complement"].holds
        forms[s2, t3, t4] += 1
        if theta.dom is theta.cod and theta.point_map[0] == 1:  # a shift of a dual space
            forms["shift", t3] += 1
    for s2 in (True, False):
        assert min(forms[s2, True, True], forms[s2, True, False], forms[s2, False, False]) >= 2, forms
    assert forms["shift", False] >= 10, forms


def test_compose_identity_and_mismatch():
    d = chain_dca()
    f = DcaMorphism.identity(d)
    assert compose(f, f) == f
    other = trivial_dca(3)
    with pytest.raises(CompositionError):
        compose(f, DcaMorphism.identity(other))
    # an atom map cannot express a table that fails joins, so it has no composite
    broken = DcaMorphism.from_table(d, d, (0,) * (d.base.size - 1) + (d.base.one,))
    assert broken.join_failure is not None
    with pytest.raises(CompositionError):
        compose(f, broken)


def test_point_of_names_a_support_that_is_no_point():
    result = dual_space(chain_dca())
    assert [result.point_of(s) for s in result.points] == list(range(len(result.points)))
    with pytest.raises(ValidationError) as err:
        result.point_of(0)
    assert err.value.witness == 0


def test_functor_laws_for_algebra_morphisms():
    d = chain_dca()
    mid, f = permuted_copy(d, (1, 0))
    _, g = permuted_copy(mid, (1, 0))
    assert functor_laws(f, g).ok


def test_functor_laws_for_space_morphisms():
    d = chain_dca()
    space = dual_space(d).space
    theta = DmsMorphism.identity(space)
    assert functor_laws(theta, theta).ok


def test_naturality_of_identity_morphisms():
    d = trivial_dca()
    assert naturality(DcaMorphism.identity(d)).ok
    space = dual_space(d).space
    assert naturality(DmsMorphism.identity(space)).ok


def test_naturality_of_sampled_morphisms():
    d = chain_dca()
    target, f = permuted_copy(d, (1, 0))
    assert naturality(f).ok
    theta = lower(f)
    assert naturality(theta).ok

    trivial = trivial_dca(2)
    g = extent_isomorphism(trivial)
    assert naturality(g).ok


def test_trace_morphism_is_isomorphism_on_duals():
    for d in (trivial_dca(), chain_dca()):
        space = dual_space(d).space
        theta = trace_morphism(space)
        assert dms_isomorphism_report(theta).ok


def test_duality_roundtrip_algebra():
    for d in (trivial_dca(), chain_dca(), trivial_dca(3)):
        assert duality_roundtrip(d).ok


def test_duality_roundtrip_space():
    for d in (trivial_dca(), chain_dca()):
        assert duality_roundtrip(dual_space(d).space).ok


def test_duality_roundtrip_requires_t0():
    space = DMSpace(
        FiniteTopSpace(2, (0, 3)),
        space_points=3,
        time_points=3,
        prec=Relation.total(2),
        regions=(0, 3),
    )
    with pytest.raises(CapabilityError) as err:
        duality_roundtrip(space)
    assert err.value.missing == "T0"


def test_duality_roundtrip_requires_compactness():
    base = dual_space(chain_dca()).space
    lone = base.time_points & -base.time_points
    broken = DMSpace(base.space, base.space_points, lone, base.prec, base.regions)
    with pytest.raises(CapabilityError) as err:
        duality_roundtrip(broken)
    assert err.value.missing == "DM-compact"


def test_isomorphism_transfer():
    d = chain_dca()
    target, f = permuted_copy(d, (1, 0))
    assert dca_isomorphism_report(f).ok
    # the functors transport the isomorphism in both directions
    lowered = lower(f)
    assert dms_isomorphism_report(lowered).ok
    raised_back = raise_(lowered)
    assert dca_isomorphism_report(raised_back).ok


def test_dms_isomorphism_definitions_agree_on_non_iso():
    # a valid morphism that is bijective but not an isomorphism
    d = chain_dca()
    space = dual_space(d).space
    swapped = DMSpace(
        space.space,
        space.space_points,
        space.time_points,
        space.prec.converse(),
        space.regions,
    )
    # mapping the chain onto its reversal preserves nothing directional
    theta = DmsMorphism(space, swapped, (1, 0))
    report = dms_isomorphism_report(theta)
    if report["is a morphism"].holds and report["bijective on points"].holds:
        assert report["two formulations agree"].holds


def _check_and_drop(d):
    """Run the library's checks on d and its dual space, keeping only weak
    references to the two."""
    space = dual_space(d).space
    assert verify_representation_topo(d).ok
    assert duality_roundtrip(d).ok and duality_roundtrip(space).ok
    assert verify_embedding(d).ok
    assert naturality(DcaMorphism.identity(d)).ok
    return weakref.ref(d), weakref.ref(space)


def test_checked_structures_are_released():
    """Results are cached on the structures they describe, so no table
    keeps an algebra or its dual space alive after its caller drops it."""
    d = trivial_dca(3)
    refs = _check_and_drop(d)
    del d
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_round_trip_lands_on_the_structure_it_started_from(small_dca_corpus):
    """The dual of a dual space is the algebra itself, and the trace map of
    a space that equals its double dual lands on that space."""
    corpus = [d for d in [*small_dca_corpus, *trivial_dcas(3)] if d.is_valid]
    assert corpus
    for d in corpus:
        space = dual_space(d).space
        assert dual(space).dca is d
        assert d == _atom_algebra(space, space.regions)[0]
        shape = classify(space)
        assert shape.is_t0 and shape.is_dm_compact
        assert trace_morphism(space).cod is space
        # An equal space that no algebra built, as a model file gives it.
        loaded = DMSpace(space.space, space.space_points, space.time_points, space.prec, space.regions)
        assert trace_morphism(loaded).cod is loaded


def test_dual_keeps_the_algebra_it_built_when_the_source_differs(monkeypatch):
    """An algebra recorded by `dual_space` is handed back only when it
    equals the one built from the regions."""
    built = dms_module._atom_algebra

    def reversed_prec(space, family):
        dca, atoms = built(space, family)
        return DCA(dca.base, dca.space_rel, dca.time_rel, dca.prec_rel.converse()), atoms

    monkeypatch.setattr(dms_module, "_atom_algebra", reversed_prec)
    d = chain_dca()
    algebra = dual(dual_space(d).space).dca
    assert algebra is not d
    assert algebra.prec_rel == d.prec_rel.converse() != d.prec_rel
