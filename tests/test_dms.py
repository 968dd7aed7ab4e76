import random
from collections import Counter
from functools import partial

import pytest

from conftest import (
    ElementRC,
    canonical_filter,
    clan_precedence,
    coarsened,
    contact_clan_space,
    element_check_s2,
    element_density_check,
    element_extent_checks,
    element_lifting_conditions,
    element_time_axiom,
    element_validate_dms,
    lifting_separation_fails_at,
    path_snapshot_dca,
    random_region_families,
    rc_law_failures,
    rc_relations,
    relation_characterizations,
    rho,
    time_axiom_fails_at,
)
from mereotime import dca as dca_module, dms as dms_module
from mereotime import generate as gen
from mereotime.boolean import FiniteBA, Grill, SetAlgebra, atoms_of, joins, mask_of, meeting
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import from_contact_algebra, standard_dca
from mereotime.dms import (
    _atom_algebra,
    DMSpace,
    FiniteTopSpace,
    check_s2,
    classify,
    density_check,
    dual,
    dual_space,
    is_trivial_dms,
    lifting_conditions,
    rc_dca,
    stability_check,
    topological_definability,
    validate_dms,
    verify_representation_topo,
)
from mereotime.errors import CapabilityError, MembershipError, ValidationError
from mereotime.models import decode, encode
from mereotime.snapshot import (
    FREE_VARIABLE_AXIOMS,
    TIME_CONDITIONS,
    TimeCondition,
    TimeStructure,
    build_dmst,
    check_time_axiom,
)

X, Y, Z = 1, 2, 4
ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))

P_MASK, Q_MASK, R_MASK = 1, 2, 4  # points p, q, r


def trivial_dual(n=2, pairs=None):
    base_pairs = pairs or {(i, i) for i in range(n)}
    algebra = PrecontactAlgebra.from_atom_pairs(FiniteBA(n), base_pairs)
    return dual_space(from_contact_algebra(algebra))


def chain_dual():
    ts = TimeStructure.of(2, {(0, 1)})
    d = standard_dca(build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full"))
    return dual_space(d)


def brute_closed_family(space: FiniteTopSpace) -> set[int]:
    """All intersections of unions of base members, by direct enumeration.

    A point set is such an intersection iff it equals the intersection of
    all unions of base members containing it (the universe when none does).
    """
    unions = {0}
    for b in space.closed_base:
        unions |= {u | b for u in unions}
    closed = set()
    for a in range(space.universe + 1):
        hull = space.universe
        for u in unions:
            if a & ~u == 0:
                hull &= u
        if hull == a:
            closed.add(a)
    return closed


def test_discrete_and_indiscrete_topologies():
    discrete = FiniteTopSpace(2, tuple(range(4)))
    assert set(discrete.regular_closed) == {0, 1, 2, 3}
    indiscrete = FiniteTopSpace(2, (0, 3))
    assert set(indiscrete.regular_closed) == {0, 3}


def test_three_point_space_example():
    space = FiniteTopSpace(3, (0, P_MASK | Q_MASK, Q_MASK | R_MASK, 7))
    assert set(space.regular_closed) == {0, P_MASK | Q_MASK, Q_MASK | R_MASK, 7}
    rc = ElementRC(space)
    assert rc.compl(P_MASK | Q_MASK) == Q_MASK | R_MASK
    assert space.closure(P_MASK) == P_MASK | Q_MASK
    assert space.interior(P_MASK | Q_MASK) == P_MASK


SMALL_BASES = ((0, 3, 6, 7), (1, 6), (5, 3), (0, 7), (1, 2, 4))


def test_closure_matches_brute_force_on_small_spaces():
    for base in SMALL_BASES:
        space = FiniteTopSpace(3, base)
        family = brute_closed_family(space)
        assert set(space.closed_family) == family
        for a in range(8):
            expected = None
            for c in sorted(family):
                if a & ~c == 0 and (expected is None or c & ~expected == 0):
                    expected = c
            smallest = [c for c in family if a & ~c == 0]
            expected = 7
            for c in smallest:
                expected &= c
            assert space.closure(a) == expected, (base, a)
        # regular closed agrees with the definition
        for a in range(8):
            assert space.is_regular_closed(a) == (
                space.closure(space.interior(a)) == a
            )


def test_closure_matches_definition_across_chunks():
    """Closure, on point sets of 1-33 points, is the meet of the unions of
    base members holding the set (the whole space when none does)."""
    rng = random.Random(7)
    for n in (1, 7, 8, 9, 16, 17, 33):
        universe = (1 << n) - 1
        for _ in range(4):
            space = FiniteTopSpace(n, tuple(rng.getrandbits(n) for _ in range(rng.randint(1, 5))))
            unions = {0}
            for b in space.closed_base:
                unions |= {u | b for u in unions}
            masks = [0, universe, *(1 << x for x in range(n)), *(rng.getrandbits(n) for _ in range(100))]
            for a in masks:
                expected = universe
                for u in unions:
                    if a & ~u == 0:
                        expected &= u
                assert space.closure(a) == expected, (space, a)
                assert space.interior(a) == universe ^ space.closure(universe ^ a)


def test_rc_algebra_law_validation_runs():
    space = FiniteTopSpace(3, (0, 3, 6, 7))
    rc = ElementRC(space)
    assert rc.one == 7 and rc.zero == 0
    assert rc.meet(3, 6) == 0  # interior of {q} is empty


def test_rc_algebra_laws_hold_on_every_space(small_dca_corpus):
    # the hand-made spaces of this module and the dual spaces of the corpora
    spaces = [
        FiniteTopSpace(2, (0, 1, 2, 3)),
        FiniteTopSpace(2, (0, 3)),
        FiniteTopSpace(3, (0, P_MASK | Q_MASK, Q_MASK | R_MASK, 7)),
        *(FiniteTopSpace(3, base) for base in SMALL_BASES),
    ]
    algebras = [*small_dca_corpus, *gen.trivial_dcas(3), path_snapshot_dca((3, 1)), path_snapshot_dca((3, 2))]
    spaces.extend(dual_space(d).space.space for d in algebras)
    for space in spaces:
        assert rc_law_failures(ElementRC(space)) == [], space


def test_rc_time_axioms_match_element_oracle(small_dca_corpus):
    """Time axioms of RC decided on the RC atoms (`rc_dca`) have the verdicts
    of the element-level evaluation over all regular closed sets, under both
    readings; each failing witness, as point sets, fails the definition."""
    algebras = [*small_dca_corpus, path_snapshot_dca((3, 1)), path_snapshot_dca((3, 2))]
    verdicts = set()
    for d in algebras:
        space = dual_space(d).space
        full, atoms = rc_dca(space)

        def pointset(mask):
            out = 0
            for i in atoms_of(mask):
                out |= atoms[i]
            return out

        for cond in TIME_CONDITIONS:
            for existential in (False, True) if cond in FREE_VARIABLE_AXIOMS else (False,):
                fast = check_time_axiom(full, cond, existential)
                assert fast.holds == element_time_axiom(space, cond, existential).holds, (d, cond)
                verdicts.add(fast.holds)
                if not fast.holds:
                    pointsets = tuple(map(pointset, fast.witness))
                    assert time_axiom_fails_at(space, cond, existential, pointsets), (d, cond)
    assert verdicts == {True, False}


def test_closed_family_and_regular_closed_match_brute_force():
    algebras = [*gen.trivial_dcas(3), path_snapshot_dca((3, 1)), path_snapshot_dca((3, 2))]
    sizes = set()
    for d in algebras:
        space = dual_space(d).space.space
        sizes.add(space.point_count)
        family = brute_closed_family(space)
        assert space.closed_family == family, d
        # the closures of the open sets, each closure taken point by point
        expected = {space.closure(space.universe ^ c) for c in family}
        assert space.regular_closed == tuple(sorted(expected)), d
    assert max(sizes) >= 10


def test_closed_family_refuses_exactly_the_families_over_the_cap(small_dca_corpus, monkeypatch):
    """Refused from the antichain count or during listing, the verdict is the
    enumeration's: raise iff the family has more than `_FAMILY_CAP` sets."""
    rng = random.Random(18)
    bases = set()
    for _ in range(300):
        points = rng.randint(1, 7)
        bases.add((points, tuple(rng.randrange(1 << points) for _ in range(rng.randint(0, 5)))))
    for d in [*small_dca_corpus, *gen.trivial_dcas(4)]:
        space = dual_space(d).space.space
        bases.add((space.point_count, space.closed_base))
    early = listed = 0
    for points, base in sorted(bases):
        size = len(brute_closed_family(FiniteTopSpace(points, base)))
        for cap in sorted({1, 2, 4, 8, 16, 64, size - 1, size}):
            monkeypatch.setattr(dms_module, "_FAMILY_CAP", cap)
            space = FiniteTopSpace(points, base)
            if size <= cap:
                assert len(space.closed_family) == size, (base, cap)
                continue
            with pytest.raises(CapabilityError, match="^closed-set family too large to enumerate") as err:
                space.closed_family
            assert str(cap) in str(err.value)
            if "2^" in str(err.value):
                early += 1
            else:
                listed += 1
    assert early and listed, (early, listed)


def random_closed_bases(rng, count):
    """Closed bases on 0-8 points.  The points of one cell lie in the same
    members, so a cell of two or more points repeats a point closure (the
    space is not T0).  Every member is drawn inside one part of the cells,
    and most bases hold the parts themselves, so the parts split the
    specialization preorder into components."""
    for _ in range(count):
        n = rng.randint(0, 8)
        cells = rng.randint(max(n - 3, 1), max(n, 1))
        cell_of = [rng.randrange(cells) for _ in range(n)]
        part_count = rng.randint(1, 5)
        part_of = [rng.randrange(part_count) for _ in range(cells)]
        parts = sorted({mask_of(c for c in range(cells) if part_of[c] == p) for p in part_of})
        members = [rng.getrandbits(cells) & rng.choice(parts) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.7:
            members += parts
        yield n, tuple(mask_of(x for x in range(n) if m >> cell_of[x] & 1) for m in members)


def preorder_components(n, closures) -> int:
    """Connected components of the points, x and y joined when one lies in
    the other's closure."""
    seen = count = 0
    for y in range(n):
        if seen >> y & 1:
            continue
        count += 1
        frontier = 1 << y
        while frontier:
            seen |= frontier
            reached = 0
            for x in atoms_of(frontier):
                reached |= closures[x] | mask_of(z for z in range(n) if closures[z] >> x & 1)
            frontier = reached & ~seen
    return count


def test_closed_family_and_regular_closed_match_brute_force_on_random_bases(small_dca_corpus):
    """The per-component listing is the brute-force family, and RC is the
    sorted closures of all open sets, on random bases (non-T0 ones and ones
    of three or more components among them) and on the corpus duals."""
    rng = random.Random(31)
    spaces = [FiniteTopSpace(n, base) for n, base in random_closed_bases(rng, 2000)]
    spaces += [dual_space(d).space.space for d in small_dca_corpus]
    non_t0 = split = 0
    for space in spaces:
        family = brute_closed_family(space)
        assert space.closed_family == family, space
        expected = {space.closure(space.universe ^ c) for c in family}
        assert space.regular_closed == tuple(sorted(expected)), space
        n = space.point_count
        closures = [min((c for c in family if c >> y & 1), key=int.bit_count) for y in range(n)]
        non_t0 += len(set(closures)) < n
        split += preorder_components(n, closures) >= 3
    assert non_t0 >= 200 and split >= 200, (non_t0, split)


def test_closed_family_refuses_a_product_over_the_cap_with_the_listing_message(monkeypatch):
    """Three two-point chains: each component has three closed sets and the
    family 27.  Every bound the components pass but the product exceeds
    gives the text of a listing that stops one set past the bound."""
    space = FiniteTopSpace(6, (0b000001, 0b000011, 0b000100, 0b001100, 0b010000, 0b110000))
    assert len(brute_closed_family(space)) == 27
    for cap in range(8, 27):
        monkeypatch.setattr(dms_module, "_FAMILY_CAP", cap)
        with pytest.raises(CapabilityError) as err:
            FiniteTopSpace(space.point_count, space.closed_base).closed_family
        assert str(err.value) == (
            f"closed-set family too large to enumerate: at least {cap + 1} closed sets on 6 points, over the bound of {cap}"
        )
        assert err.value.missing == "small closed family"
    monkeypatch.setattr(dms_module, "_FAMILY_CAP", 27)
    assert len(FiniteTopSpace(space.point_count, space.closed_base).closed_family) == 27


def test_atom_extent_base_gives_the_topology_of_all_joins(small_dca_corpus):
    """The dual space's closed base is the atom extents; the point closures
    are those of the base of all their joins, which are the regions."""
    for d in [*small_dca_corpus, *gen.trivial_dcas(4)]:
        result = dual_space(d)
        space = result.space.space
        assert len(space.closed_base) == d.base.atom_count
        full = FiniteTopSpace(space.point_count, result.space.regions)
        assert space._down == full._down, d


def test_dual_space_of_trivial_dca():
    result = trivial_dual()
    space = result.space
    assert result.points == (X, X | Y, Y)
    assert space.space_points == 0b101  # the two ultrafilter points
    assert space.time_points == 0b010  # the single maximal grill
    assert validate_dms(space).ok
    shape = classify(space)
    assert shape.is_t0 and shape.is_dm_compact
    assert is_trivial_dms(space)


def test_dual_space_of_chain_dca():
    result = chain_dual()
    space = result.space
    assert len(result.points) == 2
    assert space.space_points == 0b11 and space.time_points == 0b11
    assert validate_dms(space).ok
    assert not is_trivial_dms(space)
    shape = classify(space)
    assert shape.is_t0 and shape.is_dm_compact


def test_dual_space_rows_match_the_clan_rule(small_dca_corpus):
    """The before-after rows of a dual space relate exactly the clan pairs
    of the ultrafilter definition, and a dms file written from them reads
    back as an equal space."""
    for d in [*small_dca_corpus, *gen.trivial_dcas(3)]:
        result = dual_space(d)
        space = result.space
        expected = {(result.point_of(l), result.point_of(r)) for l, r in clan_precedence(d)}
        assert space.prec.pairs == expected, d
        assert decode(encode(space)) == ("dms", space, {})


def test_validate_dms_on_corpus(small_dca_corpus):
    for d in small_dca_corpus:
        result = dual_space(d)
        assert validate_dms(result.space).ok
        shape = classify(result.space)
        assert shape.is_t0 and shape.is_dm_compact


def test_s4_defect_detected():
    result = trivial_dual()
    space = result.space
    # drop the point of the second ultrafilter from the space points
    broken = DMSpace(
        space.space,
        space.space_points & ~(1 << result.point_of(Y)),
        space.time_points,
        space.prec,
        space.regions,
    )
    report = validate_dms(broken)
    assert not report["S4"].holds
    assert report["S4"].witness is not None


def test_s8_defect_detected():
    result = trivial_dual()
    space = result.space
    # declare a non-maximal t-clan point to be a time point
    broken = DMSpace(
        space.space,
        space.space_points,
        space.time_points | (1 << result.point_of(X)),
        space.prec,
        space.regions,
    )
    report = validate_dms(broken)
    assert not report["S8"].holds


def test_s3_defect_detected():
    result = trivial_dual()
    space = result.space
    broken = DMSpace(space.space, space.space_points, 0, space.prec, space.regions)
    assert not validate_dms(broken)["S3"].holds


def test_s2_rejects_family_that_is_not_a_closed_base():
    # discrete 3-point space; {0, X} is a Boolean subalgebra of RC but
    # cannot recover the singleton closed sets
    discrete = FiniteTopSpace(3, (1, 2, 4))
    space = DMSpace(discrete, 7, 7, Relation(3, {(0, 0)}), (0, 7))
    report = validate_dms(space)
    assert not report["S2"].holds
    assert "base" in str(report["S2"].witness)


def test_dual_rejects_non_subalgebra_family():
    discrete = FiniteTopSpace(2, (0, 1, 2, 3))
    space = DMSpace(discrete, 3, 3, Relation(2, {(0, 0)}), (0, 1, 3))
    with pytest.raises(ValidationError):
        dual(space)


def test_non_t0_space():
    # two points sharing every base member
    space = DMSpace(
        FiniteTopSpace(2, (0, 3)),
        space_points=3,
        time_points=3,
        prec=Relation.total(2),
        regions=(0, 3),
    )
    assert validate_dms(space).ok
    shape = classify(space)
    assert not shape.is_t0
    assert shape.is_dm_compact
    assert shape.duplicate_points == ((0, 1),)


def pairwise_duplicates(space):
    """Duplicate points by definition: every pair x < y with equal traces."""
    traces = [dual(space).trace_support(x) for x in space.points()]
    n = space.space.point_count
    return tuple((x, y) for x in range(n) for y in range(x + 1, n) if traces[x] == traces[y])


def test_duplicate_points_match_pairwise_definition(small_dca_corpus):
    """classify groups points by trace support; its pairs equal the pairwise
    definition on the corpus duals (T0, no pairs) and on non-T0 spaces whose
    points share traces in several groups."""
    spaces = [dual_space(d).space for d in [*small_dca_corpus, *gen.trivial_dcas(3)]]
    # Four points in two indistinguishable pairs, and five points with a
    # group of three, interleaved so the groups' pairs must be merged.
    spaces.append(DMSpace(FiniteTopSpace(4, (0, 5, 10, 15)), 15, 15, Relation.total(4), (0, 5, 10, 15)))
    spaces.append(
        DMSpace(FiniteTopSpace(5, (0, 0b01101, 0b10010, 31)), 31, 31, Relation.total(5), (0, 0b01101, 0b10010, 31))
    )
    seen_non_t0 = 0
    for space in spaces:
        shape = classify(space)
        assert shape.duplicate_points == pairwise_duplicates(space), space
        assert shape.is_t0 == (not shape.duplicate_points)
        seen_non_t0 += not shape.is_t0
    assert seen_non_t0 == 2
    assert classify(spaces[-1]).duplicate_points == ((0, 2), (0, 3), (1, 4), (2, 3))


def test_dm_compactness_defect_detected():
    result = chain_dual()
    space = result.space
    lone = space.time_points & -space.time_points  # keep only the lowest time point
    broken = DMSpace(space.space, space.space_points, lone, space.prec, space.regions)
    shape = classify(broken)
    assert not shape.is_dm_compact
    assert shape.unrealized_clusters


def test_dual_atoms_index_the_regions_and_refuse_an_index_outside_them():
    space = trivial_dual(3).space
    atoms = dual(space).atoms
    count = len(space.regions)
    assert count == 1 << len(atoms) and sorted(joins(atoms)) == sorted(space.regions)
    assert [atoms.index(atoms.join(i)) for i in range(count)] == list(range(count))
    for index in (count, -1, 2 * count + 1):
        with pytest.raises(MembershipError, match=f"^no member at index {index}: the algebra has {count} members$"):
            atoms.join(index)


def _corpus_duals():
    return [dual_space(d).space for d in [*gen.dca_corpus(40, 3, seed=5), *gen.trivial_dcas(4)]]


def test_dual_space_hands_over_the_atoms_of_family_finds():
    """A dual space's 2^n regions are the distinct joins of its n extents,
    so its dual algebra is built on the sorted extents, the atoms that
    `SetAlgebra.of_family` finds; a space loaded from a file finds them."""
    for space in _corpus_duals():
        handed = vars(space)["_region_atoms"]
        assert handed == SetAlgebra.of_family(space.regions) and dual(space).atoms is handed
        loaded = DMSpace(space.space, space.space_points, space.time_points, space.prec, space.regions)
        assert "_region_atoms" not in vars(loaded) and dual(loaded) == dual(space)


def test_each_point_trace_is_the_atoms_that_meet_it():
    """The traces listed once per dual algebra are the atoms that hold each
    point, on dual spaces, spaces loaded from files, coarsened spaces and
    random region families, points outside every atom included."""
    rng = random.Random(7)
    spaces = []
    for space in _corpus_duals():
        atoms = dual(space).atoms
        loaded = DMSpace(space.space, space.space_points, space.time_points, space.prec, space.regions)
        coarse = DMSpace(space.space, space.space_points, space.time_points, space.prec, coarsened(atoms, rng))
        spaces += [space, loaded, coarse]
    spaces += random_region_families(rng, 300)
    uncovered = 0
    for space in spaces:
        try:
            algebra = dual(space)
        except ValidationError:
            continue
        for x in space.points():
            assert algebra.trace_support(x) == meeting(algebra.atoms, 1 << x), (space, x)
            uncovered += not algebra.trace_support(x)
        assert list(algebra.atoms.traces) == [meeting(algebra.atoms, 1 << x) for x in range(len(algebra.atoms.traces))]
    assert uncovered


def test_rho_is_the_membership_trace():
    result = trivial_dual()
    space = result.space
    algebra = dual(space)
    for x in space.points():
        clan = Grill(algebra.dca.base, algebra.trace_support(x)).members
        assert rho(space, x) == frozenset(a for a in space.regions if a & (1 << x)) == set(map(algebra.atoms.join, clan))


def test_dual_of_trivial_dms_is_trivial_dca():
    from mereotime.dca import is_trivial

    result = trivial_dual()
    assert is_trivial(dual(result.space).dca)


def test_canonical_filter_bounds():
    result = trivial_dual()
    space = result.space
    algebra = dual(space)
    top = canonical_filter(space, space.space.universe)
    assert top.members == {algebra.dca.base.one}
    bottom = canonical_filter(space, 0)
    assert bottom.members == set(algebra.dca.base.elements())


def test_relation_characterizations_on_duals(small_dca_corpus):
    for d in small_dca_corpus[:4]:
        space = dual_space(d).space
        rc = space.space.regular_closed
        for a in rc:
            for b in rc:
                assert relation_characterizations(space, a, b).ok


def test_relation_characterizations_need_compactness():
    result = chain_dual()
    space = result.space
    lone = space.time_points & -space.time_points
    broken = DMSpace(space.space, space.space_points, lone, space.prec, space.regions)
    with pytest.raises(CapabilityError) as err:
        relation_characterizations(broken, 0, 0)
    assert err.value.missing == "DM-compact"


def test_stability_on_duals(small_dca_corpus):
    for d in small_dca_corpus:
        assert stability_check(dual_space(d).space).ok


def test_stability_needs_regions_forming_a_subalgebra_of_rc():
    # {0, p} is a Boolean algebra under union but misses the point q
    discrete = FiniteTopSpace(2, (1, 2))
    space = DMSpace(discrete, 3, 3, Relation.total(2), (0, 1))
    with pytest.raises(CapabilityError) as err:
        stability_check(space)
    assert err.value.missing == "S2"


def test_lifting_conditions_reject_sparse_subalgebra():
    space = trivial_dual().space
    checks = {c.name: c for c in lifting_conditions(space, (0, space.space.universe))}
    assert not checks["Dense"].holds
    assert checks["Dense"].witness is not None
    full = {c.name: c for c in lifting_conditions(space, space.regions)}
    assert all(c.holds for c in full.values())


def test_density_check_on_duals(small_dca_corpus):
    for d in small_dca_corpus[:4]:
        assert density_check(dual_space(d).space).ok


def test_density_with_all_points_spatial():
    space = chain_dual().space
    assert space.space_points == space.space.universe
    assert density_check(space).ok


def test_topological_definability_rows(small_dca_corpus):
    for d in small_dca_corpus[:4]:
        space = dual_space(d).space
        for cond in TimeCondition:
            if cond is TimeCondition.IRR:
                continue
            row = topological_definability(space, cond)
            assert row["agree"], (d, cond)
            assert row["warning"] is None


def test_topological_definability_tri_warning_on_non_t0():
    space = DMSpace(
        FiniteTopSpace(2, (0, 3)),
        space_points=3,
        time_points=3,
        prec=Relation.total(2),
        regions=(0, 3),
    )
    row = topological_definability(space, TimeCondition.TRI)
    assert row["warning"] is not None


def test_trivial_dms_predicate():
    assert is_trivial_dms(trivial_dual().space)
    assert not is_trivial_dms(chain_dual().space)
    # single time point without the reflexive loop is not trivial
    space = DMSpace(
        FiniteTopSpace(1, (0, 1)),
        space_points=1,
        time_points=1,
        prec=Relation.empty(1),
        regions=(0, 1),
    )
    assert not is_trivial_dms(space)
    # nor is one whose time point precedes another point but not itself
    space = DMSpace(
        FiniteTopSpace(2, (1, 2)),
        space_points=3,
        time_points=1,
        prec=Relation(2, {(0, 1)}),
        regions=(0, 1, 2, 3),
    )
    assert not is_trivial_dms(space)


def test_extent_laws(small_dca_corpus):
    for d in small_dca_corpus[:5]:
        result = dual_space(d)
        space = result.space.space
        universe = space.universe
        g = partial(meeting, result.points)
        assert g(0) == 0 and g(d.base.one) == universe
        for a in d.base.elements():
            assert space.is_regular_closed(g(a))
            assert g(d.base.compl(a)) == space.closure(universe ^ g(a))
            for b in d.base.elements():
                assert g(d.base.join(a, b)) == (g(a) | g(b))
                assert d.base.leq(a, b) == (g(a) & ~g(b) == 0)


def test_static_contact_representation(contact_sweep_3):
    for algebra in contact_sweep_3:
        space, supports, extent = contact_clan_space(algebra)
        rc = set(space.regular_closed)
        images = {}
        for a in algebra.base.elements():
            images[a] = extent(a)
            assert images[a] in rc
        assert len(set(images.values())) == algebra.base.size  # injective
        for a in algebra.base.elements():
            assert extent(algebra.base.compl(a)) == space.closure(
                space.universe ^ extent(a)
            )
            for b in algebra.base.elements():
                assert algebra.related(a, b) == bool(extent(a) & extent(b))


def test_verify_representation_topo_on_examples(small_dca_corpus):
    for d in small_dca_corpus[:5]:
        assert verify_representation_topo(d).ok


def test_representation_evaluates_each_frame_once(monkeypatch):
    """The time axioms of each dynamic algebra that the representation
    touches (the algebra, its dual and RC of its dual space) are decided in
    one pass and cached on it: a repeated check evaluates nothing."""
    for module in (dca_module, dms_module):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
    frames = []
    one_pass = dca_module.time_axiom_failures

    def counted(time, prec):
        frames.append((id(time), id(prec)))
        return one_pass(time, prec)

    monkeypatch.setattr(dca_module, "time_axiom_failures", counted)
    path = {(i, j) for i in range(3) for j in range(3) if abs(i - j) <= 1}
    d = from_contact_algebra(PrecontactAlgebra.from_atom_pairs(FiniteBA(3), path))
    assert verify_representation_topo(d).ok
    space = dual_space(d).space
    sources = {id(s): s for s in (d, dual(space).dca, rc_dca(space)[0])}.values()
    assert sorted(frames) == sorted((id(s.time_rel), id(s.prec_rel)) for s in sources)
    assert verify_representation_topo(d).ok
    assert len(frames) == len(sources)


def test_rc_of_dual_space_equals_region_family(small_dca_corpus):
    # finite consequence of the closed-base subalgebra axioms
    for d in small_dca_corpus:
        space = dual_space(d).space
        assert set(space.space.regular_closed) == set(space.regions)


def test_rc_algebra_of_a_dense_space_is_its_dual_algebra(small_dca_corpus):
    """Every canonical dual space has all of RC as its regions, so rc_dca
    returns the dual algebra itself, equal to RC's own atom algebra; on
    coarsened regions, which are not all of RC, it builds RC's algebra."""
    rng = random.Random(4)
    coarse_seen = 0
    for d in small_dca_corpus:
        space = dual_space(d).space
        full, atoms = rc_dca(space)
        assert full is dual(space).dca and atoms == dual(space).atoms
        assert (full, atoms) == _atom_algebra(space, space.space.regular_closed)
        for _ in range(3):
            family = coarsened(atoms, rng)
            if len(family) == len(space.regions):
                continue
            coarse = DMSpace(space.space, space.space_points, space.time_points, space.prec, family)
            built, built_atoms = rc_dca(coarse)
            assert built is not dual(coarse).dca
            assert (built, built_atoms) == _atom_algebra(coarse, coarse.space.regular_closed) == (full, atoms)
            coarse_seen += 1
    assert coarse_seen


def test_time_conditions_lift_between_space_and_dual(small_dca_corpus):
    from mereotime.dca import canonical_time_structure
    from mereotime.snapshot import check_time_condition

    for d in small_dca_corpus[:6]:
        space = dual_space(d).space
        canon = canonical_time_structure(dual(space).dca).structure
        for cond in TimeCondition:
            assert (
                check_time_condition(space.time_structure, cond).holds
                == check_time_condition(canon, cond).holds
            ), cond


# -- atom-level DMS checks against the element-level oracle ----------------


def oracle_dual_spaces(small_dca_corpus):
    algebras = [
        *small_dca_corpus,
        *gen.trivial_dcas(3),
        path_snapshot_dca((3, 1)),
        path_snapshot_dca((3, 2)),
    ]
    return [dual_space(d).space for d in algebras]


def random_topology_spaces(rng, count):
    """Spaces on 2-4 points with a random closed base, random distinguished
    points and before-after, and the regular closed sets as regions."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        universe = (1 << n) - 1
        base = tuple(sorted(rng.sample(range(universe + 1), rng.randint(1, universe + 1))))
        topology = FiniteTopSpace(n, base)
        prec = Relation(n, [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.5])
        out.append(
            DMSpace(
                topology,
                rng.randint(1, universe),
                rng.randint(1, universe),
                prec,
                topology.regular_closed,
            )
        )
    return out


def region_variants(space, rng):
    """The space with one before-after pair dropped and one added, and with
    its regions replaced by subfamilies, coarsenings and corruptions of RC."""
    rc = space.space.regular_closed
    universe = space.space.universe
    n = space.space.point_count
    pairs = {(x, y) for x in range(n) for y in range(n)}
    toggled = [
        rng.choice(sorted(choices))
        for choices in (space.prec.pairs, pairs - space.prec.pairs)
        if choices
    ]
    sample = rng.sample(rc, rng.randint(0, len(rc)))
    complements = {space.space.closure(universe ^ a) for a in sample}
    families = [
        tuple(sorted({0, universe, *sample})),
        tuple(sorted({0, universe, *sample, *complements})),
        tuple(sorted(sample)),
        coarsened(rc_dca(space)[1], rng),
        tuple(sorted({*rc, rng.randint(0, universe)})),
        (*rc, rc[-1]),
    ]
    return [
        *(
            DMSpace(space.space, space.space_points, space.time_points, Relation(n, space.prec.pairs ^ {pair}), space.regions)
            for pair in toggled
        ),
        *(
            DMSpace(space.space, space.space_points, space.time_points, space.prec, family)
            for family in families
        ),
    ]


def oracle_spaces(small_dca_corpus):
    rng = random.Random(12)
    spaces = [*oracle_dual_spaces(small_dca_corpus), *random_topology_spaces(rng, 400)]
    return spaces + [v for space in spaces for v in region_variants(space, rng)]


def s2_fails_at(regions, witness) -> bool:
    """Whether an S2 witness from the atom kernel fails the subalgebra law:
    a member whose join with an atom escapes, or a member that is not the
    union of the atoms below it."""
    members = set(regions)
    atoms = [a for a in members if a and not any(s and s != a and s & ~a == 0 for s in members)]
    if witness[-1] == "join escapes":
        a, b, _ = witness
        return a in members and b in atoms and a | b not in members
    m, form = witness
    below = 0
    for a in atoms:
        if a & ~m == 0:
            below |= a
    return form == "not a join of atoms" and m in members and m != below


def test_validate_dms_matches_element_oracle(small_dca_corpus):
    """Same verdict on every axiom.  Witnesses are equal, except that the
    oracle's first escaping join or meet becomes the kernel's first escaping
    join with an atom, or a member that is no join of atoms; each such
    witness fails the subalgebra law by definition."""
    forms = set()
    for space in oracle_spaces(small_dca_corpus):
        fast, slow = validate_dms(space), element_validate_dms(space)
        assert [c.name for c in fast.checks] == [c.name for c in slow.checks]
        for f, s in zip(fast.checks, slow.checks):
            assert f.holds == s.holds, (space, f, s)
            if f.name == "S2" and not f.holds:
                forms |= {f.witness[-1], s.witness[-1]}
            if f.name == "S2" and not f.holds and s.witness[-1] in ("join escapes", "meet escapes"):
                assert s2_fails_at(space.regions, f.witness), (space, f)
            else:
                assert f.witness == s.witness, (space, f, s)
        if fast["S2"].holds and not fast["S7"].holds:
            forms.add(("S7", "fails"))
    assert forms == {
        "duplicate region",
        "missing bounds",
        "not regular closed",
        "complement escapes",
        "join escapes",
        "meet escapes",
        "not a join of atoms",
        "not a closed base",
        ("S7", "fails"),
    }


def test_check_s2_matches_region_scan(small_dca_corpus):
    """S2 decided on the region atoms has the verdict and the witness of the
    scan over every region, on the oracle spaces and on random region
    families."""
    spaces = [*oracle_spaces(small_dca_corpus), *random_region_families(random.Random(13), 3000)]
    verdicts, forms = Counter(), set()
    for space in spaces:
        fast = check_s2(space)
        assert fast == element_check_s2(space), space
        verdicts[fast.holds] += 1
        if not fast.holds:
            forms.add(fast.witness[-1])
    assert min(verdicts.values()) >= 500, verdicts
    assert forms >= {
        "duplicate region",
        "missing bounds",
        "not regular closed",
        "complement escapes",
        "join escapes",
        "not a join of atoms",
        "not a closed base",
    }, forms


def lifting_fails_at(space, sub_family, check) -> bool:
    """Whether a lifting witness fails its condition by definition."""
    rc = set(space.space.regular_closed)
    one = space.space.universe
    if check.name == "Dense":
        (a,) = check.witness
        return a in rc and a != 0 and not any(m and m & ~a == 0 for m in sub_family)
    if check.name == "Co-dense":
        (a,) = check.witness
        return a in rc and a != one and not any(m != one and a & ~m == 0 for m in sub_family)
    rel = rc_relations(space)[check.name.removesuffix("-separation")]
    a, b = check.witness
    return (
        a in rc
        and b in rc
        and not rel(a, b)
        and lifting_separation_fails_at(sub_family, rel, a, b)
    )


def test_lifting_conditions_match_element_oracle(small_dca_corpus):
    """Same verdict on every condition and every Boolean subalgebra of RC
    tried: RC itself, (0, 1) and coarsenings.  Witnesses are equal except
    Co-dense, whose witness is now a coatom; every failing witness fails its
    condition by definition."""
    rng = random.Random(11)
    verdicts = set()
    for space in [*oracle_dual_spaces(small_dca_corpus), *random_topology_spaces(rng, 150)]:
        atoms = rc_dca(space)[1]
        families = [
            space.space.regular_closed,
            (0, space.space.universe),
            *(coarsened(atoms, rng) for _ in range(3)),
        ]
        for family in families:
            fast = lifting_conditions(space, family)
            slow = element_lifting_conditions(space, family)
            assert [c.name for c in fast] == [c.name for c in slow]
            for f, s in zip(fast, slow):
                assert f.holds == s.holds, (space, family, f, s)
                verdicts.add((f.name, f.holds))
                if f.name != "Co-dense":
                    assert f.witness == s.witness, (space, family, f, s)
                if not f.holds:
                    assert lifting_fails_at(space, family, f), (space, family, f)
    assert len(verdicts) == 10


def test_density_and_extent_checks_match_element_oracle(small_dca_corpus):
    """density_check equals the oracle's pairwise closure-map checks on the
    dual spaces and on random topologies with random space points; the
    extent rows of verify_representation_topo equal the oracle's."""
    rng = random.Random(5)
    spaces = oracle_dual_spaces(small_dca_corpus)
    for space in random_topology_spaces(rng, 150):
        total = Relation.total(space.space.point_count)
        spaces.append(
            DMSpace(space.space, space.space_points, space.time_points, total, (0, space.space.universe))
        )
    verdicts = set()
    for space in spaces:
        report = density_check(space)
        assert report.checks == element_density_check(space).checks, space
        verdicts |= {(c.name, c.holds) for c in report.checks}
    assert len(verdicts) == 10
    for d in [*small_dca_corpus, *gen.trivial_dcas(3), path_snapshot_dca((3, 1))]:
        rows = [c for c in verify_representation_topo(d).checks if c.name.startswith("extent")]
        assert rows == element_extent_checks(d), d
