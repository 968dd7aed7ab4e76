import gc
import itertools
import random

import pytest

from mereotime.boolean import FiniteBA, mask_of, meeting
from mereotime.contact import (
    Clan,
    PrecontactAlgebra,
    Relation,
    canonical_relation,
    check_axioms,
    clans,
    clusters,
    contact_from_adjacency,
    maximal_clans,
)
from mereotime.errors import CapabilityError, DimensionMismatch, PreconditionError, ValidationError
from mereotime.generate import contact_relations

from conftest import (
    all_atom_relations,
    brute_clans,
    element_axiom_checks,
    element_canonical,
    factor_by_clanset,
    inclusion_check,
    is_equivalence,
    is_reflexive,
    is_symmetric,
    is_transitive,
    pair_compose,
    pair_converse,
    pair_image,
    pair_inclusion_witness,
    pair_properties,
    pair_sets,
    row_kernel_sample,
    satisfies_cluster_condition,
    slow_c1,
    slow_c2,
    slow_c3_left,
    slow_c3_right,
    slow_c4,
    slow_c5,
    slow_ce,
    slow_interpolation_at,
)

X, Y, Z = 1, 2, 4


def alg(n, pairs):
    return PrecontactAlgebra.from_atom_pairs(FiniteBA(n), pairs)


def test_row_kernels_match_pair_set_references():
    properties = {
        "reflexive": is_reflexive,
        "symmetric": is_symmetric,
        "transitive": is_transitive,
        "equivalence": is_equivalence,
    }
    sample = list(row_kernel_sample())
    for n, pairs in sample:
        r = Relation(n, pairs)
        assert r.pairs == pairs
        assert r.converse().pairs == pair_converse(pairs)
        for name, expected in pair_properties(n, pairs).items():
            assert properties[name](r) == expected, (n, pairs, name)
        masks = range(1 << n)
        for a in masks:
            assert r.forward_image(a) == pair_image(pairs, a)
        # The pullback to every point set: i relates to j iff some point of
        # mask i relates to some point of mask j.
        met = [mask_of(j for j in masks if pair_image(pairs, a) & j) for a in masks]
        assert r.pullback(masks) == Relation.from_rows(len(masks), met), (n, pairs)

    # Every pair of relations on up to 2 points, and seeded partners on 3 and 4.
    rng = random.Random(11)
    binary = [(n, p, q) for n in (1, 2) for p in pair_sets(n) for q in pair_sets(n)]
    for n in (3, 4):
        sized = [p for m, p in sample if m == n]
        binary += [(n, p, q) for p in sized for q in rng.sample(sized, 4) + [pair_converse(p)]]
    for n, p, q in binary:
        r, s = Relation(n, p), Relation(n, q)
        assert r.compose(s).pairs == pair_compose(p, q), (n, p, q)
        check = inclusion_check("I", r, s)
        assert check.witness == pair_inclusion_witness(p, q) and check.holds == (p <= q)


def test_relations_from_equal_pairs_are_equal_whatever_the_constructor():
    for n, pairs in row_kernel_sample():
        rows = [sum(1 << y for x, y in pairs if x == i) for i in range(n)]
        first = Relation(n, pairs)
        built = [
            Relation.of(n, sorted(pairs)),
            Relation.from_rows(n, rows),
            first.converse().converse(),
            Relation.identity(n).compose(first),
        ]
        for other in built:
            assert other == first and hash(other) == hash(first), (n, pairs)
    for n in (1, 2, 3, 4):
        cells = set(itertools.product(range(n), repeat=2))
        assert Relation.identity(n) == Relation(n, {(i, i) for i in range(n)})
        assert Relation.total(n) == Relation(n, cells)
        assert Relation.empty(n) == Relation(n, ())
        assert Relation.empty(n) != Relation.empty(n + 1)
    built = [(p, Relation(2, p)) for p in pair_sets(2)]
    for (p, r), (q, s) in itertools.product(built, repeat=2):
        assert (r == s) == (p == q)
    assert len(set(all_atom_relations(3))) == 512

    for bad in (lambda: Relation(2, {(0, 2)}), lambda: Relation.of(2, [(-1, 0)])):
        with pytest.raises(DimensionMismatch, match="out of range"):
            bad()
    for rows in ([0, 4], [1], [-1, 0]):
        with pytest.raises(DimensionMismatch):
            Relation.from_rows(2, rows)


def test_inclusion_of_relations_of_different_sizes_is_refused():
    """Inclusion compares rows of equal length, as composition does: a
    shorter relation is not read as padded with empty rows."""
    for small, large in ((Relation.empty(2), Relation.total(3)), (Relation.total(3), Relation.identity(2))):
        with pytest.raises(DimensionMismatch, match="sizes"):
            inclusion_check("I", small, large)
        with pytest.raises(DimensionMismatch):
            small.compose(large)


def test_pairs_are_derived_on_each_read():
    """A relation holds only its size and rows; reading `pairs` leaves
    nothing cached on it, so cache keys stay the size of their rows."""
    r = Relation.of(3, {(0, 1), (2, 2)})
    assert r.pairs == {(0, 1), (2, 2)}
    assert set(vars(r)) == {"size", "rows"}
    assert r.pairs is not r.pairs


def test_total_adjacency_gives_contact():
    p = contact_from_adjacency(Relation.total(2))
    assert p.related(X, Y)
    assert p.axiom_report.ok


def test_identity_adjacency_is_overlap():
    p = contact_from_adjacency(Relation.identity(2))
    for a in p.base.elements():
        for b in p.base.elements():
            assert p.related(a, b) == bool(a & b)
    assert not p.related(X, Y)


def test_one_directed_pair_fails_symmetry_and_reflexivity():
    p = contact_from_adjacency(Relation.of(2, {(0, 1)}))
    report = p.axiom_report
    assert not report["C4"].holds
    assert report["C4"].witness == (X, Y)
    assert not report["C5"].holds
    assert report["C5"].witness == (X, X)
    assert report["C1"].holds and report["C2"].holds


def test_axiom_checks_match_slow_oracles_on_all_two_atom_relations():
    b = FiniteBA(2)
    for rel in all_atom_relations(2):
        p = PrecontactAlgebra(b, rel)
        report = check_axioms(p)
        assert report["C1"].holds == slow_c1(b, p.related)
        assert report["C2"].holds == slow_c2(b, p.related)
        assert report["C3'"].holds == slow_c3_left(b, p.related)
        assert report["C3''"].holds == slow_c3_right(b, p.related)
        assert report["C4"].holds == slow_c4(b, p.related)
        assert report["C5"].holds == slow_c5(b, p.related)
        assert report["CE"].holds == slow_ce(b, p.related)
        # C5 and C5' agree whenever C1-C3 hold (always, for atom normal forms)
        assert report["C5"].holds == report["C5'"].holds


def test_axiom_checks_match_slow_oracles_on_raw_relations():
    """`from_element_relation` accepts exactly the element tables that satisfy
    the slow C1-C3'' oracles, over all 65,536 tables on two atoms, and each
    rejection names a pair on which the table and its atom span differ."""
    b = FiniteBA(2)
    pair_space = list(itertools.product(b.elements(), b.elements()))
    accepted = 0
    for bits in range(1 << len(pair_space)):
        table = frozenset(p for i, p in enumerate(pair_space) if bits >> i & 1)
        rel = lambda a, c: (a, c) in table
        precontact = (
            slow_c1(b, rel) and slow_c2(b, rel) and slow_c3_left(b, rel) and slow_c3_right(b, rel)
        )
        try:
            p = PrecontactAlgebra.from_element_relation(b, table)
        except ValidationError as err:
            assert not precontact, table
            span = alg(2, {(x, y) for x in b.atoms() for y in b.atoms() if (1 << x, 1 << y) in table})
            assert (err.witness in table) != span.related(*err.witness), table
            continue
        assert precontact, table
        assert {(a, c) for a, c in pair_space if p.related(a, c)} == table
        accepted += 1
    assert accepted == 16
    # Single-atom growth of the first argument alone misses this C2 failure:
    # (2,1) holds, but (2,3) does not.
    table = {(2, 1), (3, 1)}
    assert not slow_c2(b, lambda a, c: (a, c) in table)
    with pytest.raises(ValidationError) as err:
        PrecontactAlgebra.from_element_relation(b, table)
    assert err.value.witness == (2, 3)


def test_check_axioms_matches_element_oracle_up_to_three_atoms():
    """Atom-level verdicts and witnesses equal the element-level ones."""
    checked = 0
    for n in (1, 2, 3):
        b = FiniteBA(n)
        for rel in all_atom_relations(n):
            p = PrecontactAlgebra(b, rel)
            report = check_axioms(p)
            oracle = element_axiom_checks(b, p.related)
            assert [(c.name, c.holds, c.witness) for c in report.checks] == [
                (c.name, c.holds, c.witness) for c in oracle
            ], rel
            assert canonical_relation(p) == element_canonical(b, p.related)
            for check in report.failures():
                # C5' names one element a with not aCa; the others name a pair.
                a, c = check.witness * 2 if check.name == "C5'" else check.witness
                if check.name == "C4":
                    assert p.related(a, c) and not p.related(c, a)
                elif check.name in ("C5", "C5'"):
                    assert a & c and not p.related(a, c)
                else:
                    assert not slow_interpolation_at(b, p.related, p.related, p.related, a, c)
                checked += 1
    assert checked > 0


def test_largest_contact_satisfies_everything_including_ce():
    p = PrecontactAlgebra.largest(FiniteBA(3))
    report = p.axiom_report
    assert report.ok
    assert report["CE"].holds


def test_possibility_image():
    rel = Relation.of(2, {(0, 1)})
    assert meeting(rel.rows, 0) == 0
    assert meeting(Relation.identity(3).rows, 5) == 5
    assert meeting(rel.rows, Y) == X
    # aCb iff a meets the image of b
    p = contact_from_adjacency(rel)
    for a in p.base.elements():
        for b in p.base.elements():
            assert p.related(a, b) == bool(a & meeting(rel.rows, b))


def test_from_element_relation_normalizes_and_rejects():
    b = FiniteBA(2)
    table = {
        (a, c)
        for a in b.elements()
        for c in b.elements()
        if a & c
    }
    p = PrecontactAlgebra.from_element_relation(b, table)
    assert p.relation == Relation.identity(2)

    with pytest.raises(ValidationError) as err:
        PrecontactAlgebra.from_element_relation(b, {(3, 3)})
    assert err.value.witness is not None


def test_canonical_relation_special_cases_and_round_trip():
    b = FiniteBA(3)
    assert canonical_relation(PrecontactAlgebra.overlap(b)) == Relation.identity(3)
    assert canonical_relation(PrecontactAlgebra.largest(b)) == Relation.total(3)
    for n in (1, 2):
        for rel in all_atom_relations(n):
            p = PrecontactAlgebra(FiniteBA(n), rel)
            assert canonical_relation(p) == rel


def test_clans_of_overlap_are_ultrafilters():
    p = PrecontactAlgebra.overlap(FiniteBA(3))
    assert [c.support for c in clans(p)] == [X, Y, Z]
    assert [c.support for c in clusters(p)] == [X, Y, Z]


def test_largest_contact_has_single_cluster():
    p = PrecontactAlgebra.largest(FiniteBA(3))
    assert len(clusters(p)) == 1
    assert clusters(p)[0].support == p.base.one
    assert len(clans(p)) == p.base.size - 1  # every nonempty subset


def test_clans_with_one_edge():
    pairs = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    p = alg(3, pairs)
    assert [c.support for c in clans(p)] == [X, X | Y, Y, Z]
    assert [c.support for c in clusters(p)] == [X | Y, Z]
    assert [c.support for c in maximal_clans(p)] == [X | Y, Z]


def test_clans_match_brute_force_on_contact_sweep(contact_sweep_3):
    """Same cliques in the same lexicographic order, on every contact
    algebra up to three atoms and on all 64 on four."""
    four = [PrecontactAlgebra(FiniteBA(4), rel) for rel in contact_relations(4)]
    assert len(four) == 64
    for p in [*contact_sweep_3, *four]:
        assert [c.support for c in clans(p)] == brute_clans(p)
        assert p.clique_supports == tuple(brute_clans(p))


def test_clique_walks_leave_nothing_for_the_cyclic_collector():
    """Both clique walks recurse through module-level helpers, not through
    closures that refer to themselves, so with the cyclic collector off a
    walk frees everything it made."""
    pairs = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            p = alg(3, pairs)
            assert [c.support for c in clans(p)] == [X, X | Y, Y, Z]
            assert [c.support for c in maximal_clans(p)] == [X | Y, Z]
        del p
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_clans_require_contact_axioms():
    p = alg(2, {(0, 1)})
    with pytest.raises(CapabilityError) as err:
        clans(p)
    assert err.value.missing in ("C4", "C5")


def test_clusters_require_ce():
    # path graph: reflexive, symmetric, not transitive
    pairs = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}
    p = alg(3, pairs)
    assert p.axiom_report["C4"].holds and p.axiom_report["C5"].holds
    assert not p.axiom_report["CE"].holds
    with pytest.raises(CapabilityError) as err:
        clusters(p)
    assert err.value.missing == "CE"


def test_cluster_condition_direct_check(contact_sweep_3):
    for p in contact_sweep_3:
        if not p.axiom_report["CE"].holds:
            continue
        for clan in clans(p):
            is_max = clan.support in {c.support for c in maximal_clans(p)}
            assert satisfies_cluster_condition(p, clan) == is_max


def test_factor_by_all_clans_is_isomorphic():
    p = alg(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})
    factored = factor_by_clanset(p, clans(p))
    assert factored.kept_atoms == (0, 1, 2)
    assert factored.algebra.relation == p.relation
    assert all(factored.project(a) for a in p.base.nonzero_elements())  # the kernel is {0}


def test_factor_by_single_ultrafilter():
    p = PrecontactAlgebra.overlap(FiniteBA(3))
    factored = factor_by_clanset(p, [Clan(p.base, X)])
    assert factored.algebra.base.atom_count == 1
    assert factored.project(X) == 1
    assert factored.project(Y) == 0


def test_factor_validation():
    p = PrecontactAlgebra.overlap(FiniteBA(2))
    with pytest.raises(PreconditionError):
        factor_by_clanset(p, [])
    with pytest.raises(ValidationError):
        factor_by_clanset(p, [Clan(p.base, X | Y)])  # not a clan of overlap


def test_contact_between_elements_iff_shared_clan(contact_sweep_3):
    for p in contact_sweep_3:
        all_clans = clans(p)
        maximal = maximal_clans(p)
        for a in p.base.elements():
            for b in p.base.elements():
                shared = any(c.contains(a) and c.contains(b) for c in all_clans)
                shared_max = any(c.contains(a) and c.contains(b) for c in maximal)
                assert p.related(a, b) == shared == shared_max


def test_every_contact_sits_between_overlap_and_largest(contact_sweep_3):
    for p in contact_sweep_3:
        smallest = PrecontactAlgebra.overlap(p.base)
        largest = PrecontactAlgebra.largest(p.base)
        for a in p.base.elements():
            for b in p.base.elements():
                if smallest.related(a, b):
                    assert p.related(a, b)
                if p.related(a, b):
                    assert largest.related(a, b)


def test_interesting_property_of_contact(contact_sweep_3):
    for algebra in contact_sweep_3:
        b = algebra.base
        rel = algebra.related
        for p in b.elements():
            for q in b.elements():
                if not rel(p, q):
                    continue
                for a in b.elements():
                    for c in b.elements():
                        if rel(a, c):
                            continue
                        na, nc = b.compl(a), b.compl(c)
                        assert rel(p & na, q & na) or rel(p & nc, q & nc)


def test_cluster_identity_lemma(contact_sweep_3):
    for p in contact_sweep_3:
        if not p.axiom_report["CE"].holds:
            continue
        cluster_list = clusters(p)
        for left in cluster_list:
            for right in cluster_list:
                differ = left.support != right.support
                separated = any(
                    left.contains(a) and right.contains(b) and not p.related(a, b)
                    for a in p.base.elements()
                    for b in p.base.elements()
                )
                split = any(
                    not left.contains(c) and not right.contains(p.base.compl(c))
                    for c in p.base.elements()
                )
                assert differ == separated == split


def test_every_clan_in_unique_cluster_under_ce(contact_sweep_3):
    for p in contact_sweep_3:
        if not p.axiom_report["CE"].holds:
            continue
        cluster_list = clusters(p)
        for clan in clans(p):
            enclosing = [c for c in cluster_list if clan.support & ~c.support == 0]
            assert len(enclosing) == 1
