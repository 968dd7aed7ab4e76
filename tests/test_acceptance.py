"""Acceptance criteria: exact, exhaustive verification at desk scale.

Every check is discrete mathematics with zero tolerance; each criterion
prints one pass/fail line with its runtime and asserts its budget.
"""

import itertools
import random
import time

import pytest

from mereotime import category as category_module, contact as contact_module
from mereotime import dca as dca_module, dms as dms_module
from mereotime.boolean import FiniteBA, atoms_of
from mereotime.category import (
    DcaMorphism,
    dca_isomorphism_report,
    duality_roundtrip,
    extent_isomorphism,
    lower,
    naturality,
    validate_dca_morphism,
)
from mereotime.contact import (
    PrecontactAlgebra,
    Relation,
    canonical_relation,
    check_axioms,
    clans,
    clusters,
    maximal_clans,
)
from mereotime.dca import (
    canonical_standard_dca,
    clan_structure,
    from_contact_algebra,
    is_trivial,
    validate_dca,
    verify_embedding,
)
from mereotime.dms import (
    DMSpace,
    check_s2,
    classify,
    dual,
    dual_space,
    is_trivial_dms,
    lifting_conditions,
    rc_dca,
    stability_check,
    validate_dms,
    verify_representation_topo,
)
from mereotime import generate as gen
from mereotime.errors import CapabilityError
from mereotime.snapshot import (
    DCA_TIME_AXIOMS,
    FREE_VARIABLE_AXIOMS,
    TIME_CONDITIONS,
    TimeStructure,
    build_dmst,
    correspondence_check,
)
from conftest import (
    brute_clans,
    check_time_axiom,
    dca_corpus,
    element_lifting_conditions,
    element_time_axiom,
    element_validate_dms,
    factor_by_clanset,
    functor_laws,
    inclusion_check,
    interpolation_check,
    is_reflexive,
    is_symmetric,
    is_transitive,
    path_snapshot_dca,
    satisfies_cluster_condition,
)

ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        print(f"{self.name}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"


@pytest.fixture(scope="module")
def corpus():
    """100 seeded snapshot algebras plus every trivial algebra on <=3 atoms."""
    seeded = list(dca_corpus(100, max_moments=3, seed=0))
    trivial = list(gen.trivial_dcas(3))
    return seeded + trivial


def assert_time_axioms_match_oracle(source, conditions):
    """The library's time-axiom verdicts equal the element-level evaluation."""
    for cond in conditions:
        for existential in (False, True) if cond in FREE_VARIABLE_AXIOMS else (False,):
            assert (
                check_time_axiom(source, cond, existential).holds
                == element_time_axiom(source, cond, existential).holds
            ), (source, cond, existential)


def test_criterion_1_relational_property_sweep():
    budget = Budget("criterion 1 (relational properties vs C4/C5/CE, n<=3)", 5)
    checked = 0
    for n in (1, 2, 3):
        base = FiniteBA(n)
        for rel in gen.all_relations(n):
            algebra = PrecontactAlgebra(base, rel)
            report = check_axioms(algebra)
            assert canonical_relation(algebra) == rel
            assert report["C4"].holds == is_symmetric(rel), rel
            assert report["C5"].holds == is_reflexive(rel), rel
            assert report["CE"].holds == is_transitive(rel), rel
            checked += 1
    assert checked == 2 + 16 + 512
    budget.done()


def test_criterion_2_interpolation_composition_sweep():
    budget = Budget("criterion 2 (interpolation vs composition inclusion, n=2)", 5)
    base = FiniteBA(2)
    relations = list(gen.all_relations(2))
    pairs_checked = 0
    for r1 in relations:
        p1 = PrecontactAlgebra(base, r1)
        for r2 in relations:
            p2 = PrecontactAlgebra(base, r2)
            first = interpolation_check(
                base, "C1C2", premise=p1.related, left=p1.related, right=p2.related
            )
            assert first.holds == inclusion_check("C1C2", r1.compose(r2), r1).holds, (r1, r2)
            second = interpolation_check(
                base, "C2C1", premise=p1.related, left=p2.related, right=p1.related
            )
            assert second.holds == inclusion_check("C2C1", r2.compose(r1), r1).holds, (r1, r2)
            pairs_checked += 1
    assert pairs_checked == 256
    budget.done()


def test_criterion_3_time_condition_axiom_sweep():
    budget = Budget("criterion 3 (time conditions vs region axioms, |T|<=3)", 60)
    models = 0
    for size in (2, 3):
        for ts in gen.all_time_structures(size):
            model = build_dmst(ts, [ONE_ATOM] * size, mode="full")
            rows = correspondence_check(model)
            assert len(rows) == 11
            for row in rows:
                assert row.agree, (ts, row.condition)
            assert_time_axioms_match_oracle(model, TIME_CONDITIONS)
            models += 1
    assert models == 16 + 512
    budget.done()


def test_criterion_4_clan_and_cluster_lemmas(contact_sweep_3):
    budget = Budget("criterion 4 (clan and cluster properties)", 10)
    for algebra in contact_sweep_3:
        base = algebra.base
        rel = algebra.relation
        clan_list = clans(algebra)
        clan_supports = [c.support for c in clan_list]
        maximal = {c.support for c in maximal_clans(algebra)}

        # clans are exactly the cliques, named by their supports
        assert clan_supports == brute_clans(algebra)
        # every ultrafilter is a clan
        for x in base.atoms():
            assert (1 << x) in clan_supports
        for clan in clan_list:
            members = clan.members
            # the complement of a clan is an ideal
            outside = set(base.elements()) - members
            assert 0 in outside
            for a in outside:
                for b in base.elements():
                    if base.leq(b, a):
                        assert b in outside
                for b in outside:
                    assert (a | b) in outside
            # contained in a maximal clan
            assert any(clan.support & ~m == 0 for m in maximal)
            # the support is a clique
            for x in atoms_of(clan.support):
                for y in atoms_of(clan.support):
                    assert (x, y) in rel.pairs
            # every member meets some ultrafilter inside the clan
            for a in members:
                assert a & clan.support
            # the clan is recovered from its ultrafilters
            assert members == {a for a in base.elements() if a & clan.support}
        # maximal clans are exactly the maximal cliques
        brute_maximal = {
            s
            for s in clan_supports
            if not any(other != s and s & ~other == 0 for other in clan_supports)
        }
        assert maximal == brute_maximal
        # atoms relate iff they share a (maximal) clan
        for x in base.atoms():
            for y in base.atoms():
                both = (1 << x) | (1 << y)
                shared = any(both & ~s == 0 for s in clan_supports)
                shared_max = any(both & ~s == 0 for s in maximal)
                assert ((x, y) in rel.pairs) == shared == shared_max
        # contact iff a shared clan
        for a in base.elements():
            for b in base.elements():
                shared = any(c.contains(a) and c.contains(b) for c in clan_list)
                assert algebra.related(a, b) == shared
                # non-inclusion iff a separating clan, an ultrafilter works
                separating = any(c.contains(a) and not c.contains(b) for c in clan_list)
                ultra = any(
                    a & (1 << x) and not b & (1 << x) for x in base.atoms()
                )
                assert (not base.leq(a, b)) == separating == ultra

        if algebra.axiom_report["CE"].holds:
            cluster_list = clusters(algebra)
            assert {c.support for c in cluster_list} == maximal
            for clan in clan_list:
                is_max = clan.support in maximal
                assert satisfies_cluster_condition(algebra, clan) == is_max
                enclosing = [c for c in cluster_list if clan.support & ~c.support == 0]
                assert len(enclosing) == 1
            for a in base.elements():
                for b in base.elements():
                    shared = any(c.contains(a) and c.contains(b) for c in cluster_list)
                    assert algebra.related(a, b) == shared

    # the smallest and largest contacts behave as expected
    overlap = PrecontactAlgebra.overlap(FiniteBA(3))
    assert [c.support for c in clans(overlap)] == [1, 2, 4]
    largest = PrecontactAlgebra.largest(FiniteBA(3))
    assert [c.support for c in clusters(largest)] == [7]
    budget.done()


def test_criterion_5_snapshot_representation(corpus):
    budget = Budget("criterion 5 (snapshot representation theorem)", 120)
    assert len(corpus) >= 100 + 11
    for d in corpus:
        assert d.is_valid
        report = verify_embedding(d)
        assert report.ok, report.failures()
        assert_time_axioms_match_oracle(d, DCA_TIME_AXIOMS)
        assert_time_axioms_match_oracle(canonical_standard_dca(d).model, DCA_TIME_AXIOMS)
    budget.done()


def test_criterion_6_topological_representation(corpus):
    budget = Budget("criterion 6 (topological representation theorem)", 300)
    for d in corpus:
        result = dual_space(d)
        assert validate_dms(result.space).ok
        assert validate_dms(result.space).checks == element_validate_dms(result.space).checks, d
        regions = result.space.regions
        assert lifting_conditions(result.space, regions) == element_lifting_conditions(
            result.space, regions
        ), d
        shape = classify(result.space)
        assert shape.is_t0 and shape.is_dm_compact
        report = verify_representation_topo(d)
        assert report.ok, report.failures()
        assert_time_axioms_match_oracle(d, DCA_TIME_AXIOMS)
        full, _ = rc_dca(result.space)
        for cond in DCA_TIME_AXIOMS:
            assert (
                check_time_axiom(full, cond).holds
                == element_time_axiom(result.space, cond).holds
            ), (d, cond)
    budget.done()


def test_criterion_7_duality_roundtrips(corpus):
    budget = Budget("criterion 7 (duality round trips)", 300)
    for d in corpus:
        assert duality_roundtrip(d).ok
        assert duality_roundtrip(dual_space(d).space).ok

    # sampled morphisms: naturality equations and functor laws
    sampled = 0
    for d in corpus[:10]:
        n = d.base.atom_count
        perm = tuple(range(1, n)) + (0,)

        def move_pairs(rel):
            return {(perm[x], perm[y]) for x, y in rel.pairs}

        from mereotime.dca import DCA
        from mereotime.boolean import atoms_of, mask_of

        target = DCA.from_pairs(
            n, move_pairs(d.space_rel), move_pairs(d.time_rel), move_pairs(d.prec_rel)
        )
        table = tuple(
            mask_of(perm[x] for x in atoms_of(a)) for a in d.base.elements()
        )
        f = DcaMorphism.from_table(d, target, table)
        assert validate_dca_morphism(f).ok
        assert naturality(f).ok
        theta = lower(f)
        assert naturality(theta).ok
        g = extent_isomorphism(d)
        assert naturality(g).ok
        assert functor_laws(f, extent_isomorphism(target)).ok
        sampled += 3
    assert sampled >= 20
    budget.done()


def test_criterion_8_trivial_case_coherence(corpus):
    budget = Budget("criterion 8 (trivial-case coherence)", 60)
    count = 0
    for n in range(1, 5):
        for algebra in gen.contact_algebras(n):
            d = from_contact_algebra(algebra)
            report = verify_representation_topo(d)
            assert report.ok, report.failures()
            space = dual_space(d).space
            full, _ = rc_dca(space)
            assert is_trivial(full)
            count += 1
    assert count == 1 + 2 + 8 + 64

    for d in corpus:
        space = dual_space(d).space
        shape = classify(space)
        assert shape.is_t0 and shape.is_dm_compact
        assert is_trivial(d) == is_trivial_dms(space)
        assert is_trivial_dms(space) == is_trivial(dual(space).dca)
    budget.done()


def test_criterion_9_factor_algebra_soundness(contact_sweep_3):
    budget = Budget("criterion 9 (factor algebras)", 30)
    factored = 0
    for algebra in contact_sweep_3:
        clan_list = clans(algebra)
        for size in range(1, len(clan_list) + 1):
            for selection in itertools.combinations(clan_list, size):
                quotient = factor_by_clanset(algebra, selection)
                report = check_axioms(quotient.algebra)
                for name in ("C1", "C2", "C3'", "C3''", "C4", "C5"):
                    assert report[name].holds, (algebra.relation, selection, name)
                factored += 1
    assert factored > 100
    budget.done()


def test_atom_level_decisions_at_eight_atoms():
    budget = Budget("validate_dca and clan_structure, 8-atom trivial algebra", 2)
    d = from_contact_algebra(gen.seeded_contact(random.Random(8), 8))
    assert validate_dca(d).ok
    structure = clan_structure(d)
    assert len(structure.t_clans) == 2**8 - 1
    # Clan precedence is total: every reach row covers every t-clan.
    assert all(t & ~reach == 0 for reach in structure.reach for t in structure.t_clans)
    budget.done()


def test_duality_on_twenty_two_point_dual_space():
    budget = Budget("dual space, S1-S8 and both round trips, (4,3) snapshot algebra", 1.5)
    d = path_snapshot_dca((4, 3))
    space = dual_space(d).space
    assert space.space.point_count == 22
    assert validate_dms(space).ok
    assert duality_roundtrip(d).ok
    assert duality_roundtrip(space).ok
    budget.done()


def test_representation_on_thirty_point_dual_space():
    d = path_snapshot_dca((4, 4))
    budget = Budget("verify_representation_topo, (4,4) snapshot algebra", 1)
    assert verify_representation_topo(d).ok
    assert dual_space(d).space.space.point_count == 30
    budget.done()


def test_representation_on_thirty_three_point_dual_space():
    d = path_snapshot_dca((4, 4, 2))
    budget = Budget("verify_representation_topo, (4,4,2) snapshot algebra", 0.25)
    assert verify_representation_topo(d).ok
    assert dual_space(d).space.space.point_count == 33
    budget.done()


def test_closed_family_refusal_on_thirty_seven_point_dual_space():
    """The (4,4,3) dual has 529,891 closed sets; its components count them
    over the bound before the family is built."""
    d = path_snapshot_dca((4, 4, 3))
    budget = Budget("verify_representation_topo refused, (4,4,3) snapshot algebra", 0.05)
    with pytest.raises(CapabilityError, match="at least 200001 closed sets on 37 points, over the bound of 200000"):
        verify_representation_topo(d)
    budget.done()


def test_s2_on_511_point_dual_space():
    n = 9
    path = PrecontactAlgebra.from_atom_pairs(
        FiniteBA(n), {(i, j) for i in range(n) for j in range(n) if abs(i - j) <= 1}
    )
    space = dual_space(from_contact_algebra(path)).space
    assert space.space.point_count == 511
    budget = Budget("check_s2, dual space of the 9-atom trivial path algebra", 0.4)
    assert check_s2(space).holds
    budget.done()


def test_dual_space_and_round_trip_on_1023_point_dual_space():
    n = 10
    path = PrecontactAlgebra.from_atom_pairs(
        FiniteBA(n), {(i, j) for i in range(n) for j in range(n) if abs(i - j) <= 1}
    )
    d = from_contact_algebra(path)
    for module in (contact_module, dca_module, dms_module, category_module):
        for cached in vars(module).values():
            if callable(getattr(cached, "cache_clear", None)):
                cached.cache_clear()
    budget = Budget("dual_space and duality_roundtrip, 10-atom trivial path algebra, cold", 0.5)
    assert dual_space(d).space.space.point_count == 1023
    assert duality_roundtrip(d).ok
    budget.done()


def test_time_axioms_at_ten_atoms_and_a_thousand_regions():
    budget = Budget(
        "verify_embedding, 10-atom trivial algebra; correspondence, 1,024-region full model", 1
    )
    path = PrecontactAlgebra.from_atom_pairs(
        FiniteBA(10), {(i, j) for i in range(10) for j in range(10) if abs(i - j) <= 1}
    )
    assert verify_embedding(from_contact_algebra(path)).ok
    model = build_dmst(TimeStructure.of(1, {(0, 0)}), [path], mode="full")
    assert len(model.regions) == 1024
    assert all(row.agree for row in correspondence_check(model))
    budget.done()


def test_criterion_10_negative_controls():
    budget = Budget("criterion 10 (negative controls)", 30)
    # non-symmetric contact is rejected with a concrete witness
    bad = PrecontactAlgebra.from_atom_pairs(FiniteBA(2), {(0, 1), (0, 0), (1, 1)})
    report = check_axioms(bad)
    assert not report["C4"].holds and report["C4"].witness is not None
    with pytest.raises(CapabilityError) as err:
        clans(bad)
    assert err.value.missing == "C4"

    # S4-violating space
    result = dual_space(from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2))))
    space = result.space
    shrunk = DMSpace(
        space.space,
        space.space_points & (space.space_points - 1),  # drop the lowest space point
        space.time_points,
        space.prec,
        space.regions,
    )
    s4 = validate_dms(shrunk)["S4"]
    assert not s4.holds and s4.witness is not None

    # time point whose trace is not a cluster
    widened = DMSpace(
        space.space,
        space.space_points,
        space.time_points | (space.space_points & -space.space_points),
        space.prec,
        space.regions,
    )
    s8 = validate_dms(widened)["S8"]
    assert not s8.holds and s8.witness is not None

    # morphism breaking space-contact reflection
    source = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    weak = from_contact_algebra(PrecontactAlgebra.largest(FiniteBA(2)))
    f = DcaMorphism.from_table(source, weak, tuple(source.base.elements()))
    morphism_report = validate_dca_morphism(f)
    assert not morphism_report["f2:reflects Cs"].holds
    assert morphism_report["f2:reflects Cs"].witness is not None

    # zero false acceptances
    assert not validate_dms(shrunk).ok
    assert not validate_dms(widened).ok
    assert not morphism_report.ok
    assert not check_axioms(bad).ok
    budget.done()
