import itertools
import random
from collections import Counter

import pytest

from mereotime import contact
from mereotime.boolean import FiniteBA
from mereotime.contact import Clan, FactorAlgebra, PrecontactAlgebra, Relation
from mereotime.dca import (
    DCA,
    CanonicalModel,
    canonical_standard_dca,
    canonical_time_structure,
    clan_structure,
    coordinate_algebra,
    correspondence2,
    from_contact_algebra,
    is_trivial,
    standard_dca,
    t_clan_count,
    validate_dca,
    verify_embedding,
)
from mereotime import generate as gen
from mereotime.dms import dual_space
from mereotime.errors import PreconditionError
from mereotime.snapshot import (
    DCA_TIME_AXIOMS,
    DMST,
    FREE_VARIABLE_AXIOMS,
    TIME_CONDITIONS,
    TimeCondition,
    TimeStructure,
    build_dmst,
)

from conftest import (
    all_atom_relations,
    brute_clans,
    check_time_axiom,
    clan_precedence,
    dca_corpus,
    element_prec_extension,
    element_time_axiom,
    element_validate_dca,
    element_verify_embedding,
    embedding_refutations,
    extension_of_prec_checks,
    factor_by_clanset,
    g_maps,
    irr_one_directional,
    is_equivalence,
    pair_compose,
    slow_c4,
    slow_c5,
    slow_interpolation,
    slow_interpolation_at,
    time_axiom_fails_at,
)

X, Y, Z = 1, 2, 4
ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))
TWO_ATOM = PrecontactAlgebra.overlap(FiniteBA(2))


def two_time_chain():
    ts = TimeStructure.of(2, {(0, 1)})
    return build_dmst(ts, [ONE_ATOM, ONE_ATOM], mode="full")


def test_standard_dca_of_full_model_validates():
    d = standard_dca(two_time_chain())
    assert d.base.atom_count == 2
    assert d.is_valid


def test_trivial_dca_from_overlap_validates():
    d = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    assert d.is_valid
    assert is_trivial(d)


def test_trivial_dca_from_largest_contact_validates():
    d = from_contact_algebra(PrecontactAlgebra.largest(FiniteBA(3)))
    assert d.is_valid and is_trivial(d)


def test_from_contact_algebra_rejects_non_contact():
    bad = PrecontactAlgebra.from_atom_pairs(FiniteBA(2), {(0, 1)})
    with pytest.raises(PreconditionError):
        from_contact_algebra(bad)


def test_inclusion_failure_witness():
    d = DCA.from_pairs(
        2,
        space={(0, 0), (0, 1), (1, 0), (1, 1)},
        time={(0, 0), (1, 1)},
        prec={(0, 0), (0, 1), (1, 0), (1, 1)},
    )
    report = validate_dca(d)
    assert not report["Cs<=Ct"].holds
    assert report["Cs<=Ct"].witness == (X, Y)


def test_validation_cross_checks_agree_on_invalid_inputs():
    # even for broken structures the atom decisions must match the axioms
    import random

    rng = random.Random(11)
    cells = list(itertools.product(range(2), repeat=2))
    b = FiniteBA(2)
    for _ in range(60):
        pick = lambda: frozenset(c for c in cells if rng.random() < 0.6)
        d = DCA.from_pairs(2, pick(), pick(), pick())
        report = validate_dca(d)
        ct, prec = d.time_contact, d.precedes
        assert report["Ct:C4"].holds == slow_c4(b, ct)
        assert report["Ct:C5"].holds == slow_c5(b, ct)
        assert report["CtE"].holds == slow_interpolation(b, ct, ct, ct)
        assert report["CtB"].holds == slow_interpolation(b, prec, ct, prec)
        assert report["BCt"].holds == slow_interpolation(b, prec, prec, ct)
        assert report["fact1:Rt equivalence"].holds == is_equivalence(d.time_rel)
        assert report["fact2:Rt.prec<=prec"].holds == report["CtB"].holds
        assert report["fact3:prec.Rt<=prec"].holds == report["BCt"].holds
        assert report["fact5:Rs<=Rt"].holds == report["Cs<=Ct"].holds


def _dca_triples():
    """All 4,096 relation triples on two atoms, then 1,000 seeded on three."""
    import random

    two = [frozenset(r.pairs) for r in all_atom_relations(2)]
    yield from (DCA.from_pairs(2, *t) for t in itertools.product(two, repeat=3))
    three = [frozenset(r.pairs) for r in all_atom_relations(3)]
    rng = random.Random(4)
    yield from (DCA.from_pairs(3, *rng.choices(three, k=3)) for _ in range(1000))


def test_validate_dca_matches_element_oracle():
    """Atom-level verdicts and witnesses equal the element-level ones."""
    counted = 0
    for d in _dca_triples():
        report = validate_dca(d)
        for check in element_validate_dca(d).checks:
            assert (report[check.name].holds, report[check.name].witness) == (
                check.holds,
                check.witness,
            ), (d, check)
        rt, pr = d.time_rel, d.prec_rel
        facts = {
            "fact1:Rt equivalence": is_equivalence(rt),
            "fact2:Rt.prec<=prec": pair_compose(rt.pairs, pr.pairs) <= pr.pairs,
            "fact3:prec.Rt<=prec": pair_compose(pr.pairs, rt.pairs) <= pr.pairs,
            "fact4:Rt.prec.Rt<=prec": pair_compose(pair_compose(rt.pairs, pr.pairs), rt.pairs) <= pr.pairs,
            "fact5:Rs<=Rt": d.space_rel.pairs <= rt.pairs,
        }
        for name, holds in facts.items():
            assert report[name].holds == holds, (d, name)
        for check in report.failures():
            assert _counterexample(d, check.name, *check.witness), (d, check)
            counted += 1
    assert counted > 0


def test_validate_dca_composes_on_rows_and_reads_two_axiom_reports(monkeypatch):
    """One validation builds no `Relation` by composition and decides the
    contact axioms at most once for each of its two contacts."""
    calls = Counter()
    compose, check_axioms = Relation.compose, contact.check_axioms

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(Relation, "compose", counted("compose", compose))
    monkeypatch.setattr(contact, "check_axioms", counted("check_axioms", check_axioms))
    corpus = list(dca_corpus(300, 5, seed=3)) + list(itertools.islice(_dca_triples(), 0, None, 50))
    for d in corpus:
        calls.clear()
        report = validate_dca(DCA(d.base, d.space_rel, d.time_rel, d.prec_rel))
        assert len(report.checks) == 25
        assert calls["compose"] == 0 and calls["check_axioms"] <= 2, (d, calls)


# The axioms whose counterexamples also refute each atom fact.
FACT_AXIOMS = {
    "fact1:Rt equivalence": ("Ct:C4", "Ct:C5", "CtE"),
    "fact2:Rt.prec<=prec": ("CtB",),
    "fact3:prec.Rt<=prec": ("BCt",),
    "fact5:Rs<=Rt": ("Cs<=Ct",),
}


def _counterexample(d, name, a, b) -> bool:
    """Whether the element pair (a, b) refutes check `name` by its definition."""
    cs, ct, prec = d.space_contact, d.time_contact, d.precedes
    interpolation = {"CtE": (ct, ct, ct), "CtB": (prec, ct, prec), "BCt": (prec, prec, ct)}
    if name in FACT_AXIOMS:
        return any(_counterexample(d, axiom, a, b) for axiom in FACT_AXIOMS[name])
    if name == "fact4:Rt.prec.Rt<=prec":
        return not prec(a, b) and bool(d.time_rel.compose(d.prec_rel).compose(d.time_rel).forward_image(a) & b)
    if name in interpolation:
        return not slow_interpolation_at(d.base, *interpolation[name], a, b)
    if name == "Cs<=Ct":
        return cs(a, b) and not ct(a, b)
    prefix, axiom = name.split(":")
    rel = cs if prefix == "Cs" else ct
    if axiom == "C4":
        return rel(a, b) and not rel(b, a)
    assert axiom == "C5", name
    return bool(a & b) and not rel(a, b)


def test_verify_embedding_matches_element_oracle(small_dca_corpus):
    for d in small_dca_corpus:
        expected = element_verify_embedding(d)
        assert [(c.name, c.holds, c.witness) for c in verify_embedding(d).checks] == [
            (c.name, c.holds, c.witness) for c in expected.checks
        ]


def _corrupted_models(canonical):
    """Canonical models with one planted fault each: a coordinate pair
    dropped (every pair in turn), the time structure reversed or emptied,
    and a factor's last atom dropped, from the factor alone or from the factor and
    the model built on it."""
    model, factors = canonical.model, canonical.factors
    for k, coordinate in enumerate(model.coordinates):
        for i, j in sorted(coordinate.relation.pairs):
            rows = list(coordinate.relation.rows)
            rows[i] &= ~(1 << j)
            dropped = PrecontactAlgebra(coordinate.base, Relation.from_rows(len(rows), rows))
            coordinates = (*model.coordinates[:k], dropped, *model.coordinates[k + 1 :])
            yield CanonicalModel(canonical.time, factors, DMST(model.time, coordinates, model.cells))
    for rows in (model.time.converse().rows, [0] * model.time.size):
        time = TimeStructure.from_rows(model.time.size, rows)
        yield CanonicalModel(canonical.time, factors, DMST(time, model.coordinates, model.cells))
    for k, f in enumerate(factors):
        kept = f.kept_atoms[:-1]
        if kept:
            relation = f.algebra.relation.pullback([1 << i for i in range(len(kept))])
            short = FactorAlgebra(f.source, PrecontactAlgebra(FiniteBA(len(kept)), relation), kept)
            shorter = (*factors[:k], short, *factors[k + 1 :])
            yield CanonicalModel(canonical.time, shorter, model)
            rebuilt = build_dmst(model.time, [g.algebra for g in shorter], mode="full")
            yield CanonicalModel(canonical.time, shorter, rebuilt)


def test_verify_embedding_fails_as_the_element_oracle_on_corrupted_models(small_dca_corpus):
    """On a planted faulty canonical model, every check's verdict is the
    oracle's, and every failing witness refutes its check by the oracle's
    definition."""
    failed = Counter()
    for d in [*small_dca_corpus, *gen.trivial_dcas(3)]:
        for corrupted in _corrupted_models(canonical_standard_dca(d)):
            planted = DCA(d.base, d.space_rel, d.time_rel, d.prec_rel)
            planted.__dict__["canonical_standard_dca"] = corrupted
            report = verify_embedding(planted)
            expected = element_verify_embedding(planted)
            assert [(c.name, c.holds) for c in report.checks] == [(c.name, c.holds) for c in expected.checks]
            refutations = embedding_refutations(planted)
            for check in report.failures():
                failed[check.name] += 1
                if check.name in refutations:
                    assert refutations[check.name](*check.witness), check
                else:
                    assert check.witness is None, check
    # Every check that a canonical model built from factors can fail is
    # reached; distinct atoms keep distinct coordinate atoms, so the images
    # stay disjoint and h(0) = 0.
    assert set(failed) >= {
        "h(1)=1",
        "h preserves complement",
        "h injective",
        "Cs respected",
        "Ct respected",
        "B respected",
        "order respected",
    }, failed
    assert any(name.startswith("time axiom") for name in failed), failed


def test_clan_structure_of_trivial_dca():
    d = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    cs = clan_structure(d)
    assert cs.t_clans == (X, X | Y, Y)  # all grills, lexicographic by support
    assert cs.s_clans == (X, Y)
    assert cs.clusters == (X | Y,)
    assert cs.reach == (d.base.one,) * len(cs.t_clans)
    assert clan_precedence(d) == {(l, r) for l in cs.t_clans for r in cs.t_clans}


def test_clan_structure_with_identity_time_relation():
    d = DCA.from_pairs(
        2,
        space={(0, 0), (1, 1)},
        time={(0, 0), (1, 1)},
        prec={(0, 0), (1, 1)},
    )
    assert d.is_valid
    cs = clan_structure(d)
    assert cs.clusters == (X, Y)


def test_clan_structure_of_two_time_chain():
    d = standard_dca(two_time_chain())
    cs = clan_structure(d)
    assert cs.s_clans == (X, Y) and cs.t_clans == (X, Y)
    assert set(cs.clusters) == {X, Y}
    # exactly one directed pair between the two singleton clusters
    directed = {(l, r) for (l, r) in clan_precedence(d) if l != r}
    assert len(directed) == 1


def test_gamma_properties(small_dca_corpus):
    for d in small_dca_corpus:
        cs = clan_structure(d)
        clusters = set(cs.clusters)
        for t_clan, cluster in cs.gamma.items():
            assert cluster in clusters
            assert t_clan & ~cluster == 0
        for cluster in clusters:
            assert cs.gamma[cluster] == cluster


def test_clan_structure_keeps_the_lexicographic_order(small_dca_corpus):
    """s- and t-clans come in lexicographic order of their atoms, so the
    dual space numbers its points as the sorted clan list did."""
    for d in small_dca_corpus:
        structure = clan_structure(d)
        assert structure.t_clans == tuple(brute_clans(d.ct_algebra)), d
        assert structure.s_clans == tuple(brute_clans(d.cs_algebra)), d
        assert dual_space(d).points == structure.t_clans


def test_t_clan_count_is_read_off_the_time_classes(small_dca_corpus):
    for d in [*small_dca_corpus, *gen.trivial_dcas(4), *dca_corpus(100, 3, seed=0)]:
        assert t_clan_count(d) == len(clan_structure(d).t_clans), d


def test_clan_inclusion_chain(small_dca_corpus):
    for d in small_dca_corpus:
        cs = clan_structure(d)
        singletons = {1 << x for x in d.base.atoms()}
        assert singletons <= set(cs.s_clans)
        assert set(cs.s_clans) <= set(cs.t_clans)


def test_extension_of_prec_equivalences(small_dca_corpus):
    # The element-level definition (the literal column) agrees with the
    # atom-level precedence, and with the clans' reach rows, on every t-clan
    # pair.
    for d in small_dca_corpus:
        cs = clan_structure(d)
        prec = clan_precedence(d)
        pairs = list(itertools.product(cs.t_clans, repeat=2))
        checks = extension_of_prec_checks(d)
        assert [c.name for c in checks] == [f"prec extension {l:#x}->{r:#x}" for l, r in pairs]
        assert all(c.holds for c in checks)
        reach = dict(zip(cs.t_clans, cs.reach))
        for left, right in pairs:
            literal = element_prec_extension(d, left, right)
            assert literal == ((left, right) in prec) == (right & ~reach[left] == 0), (d, left, right)


def test_prec_extends_to_clusters(small_dca_corpus):
    for d in small_dca_corpus:
        cs = clan_structure(d)
        prec = clan_precedence(d)
        for left, right in prec:
            enclosing = [
                (gl, gr)
                for gl in cs.clusters
                for gr in cs.clusters
                if left & ~gl == 0 and right & ~gr == 0 and (gl, gr) in prec
            ]
            assert enclosing


def test_g_maps():
    d = standard_dca(two_time_chain())
    cs = clan_structure(d)
    empty = g_maps(d, 0)
    assert empty == {"g": (), "gs": (), "gclust": ()}
    everything = g_maps(d, d.base.one)
    assert everything["g"] == cs.t_clans
    assert everything["gclust"] == cs.clusters
    single = g_maps(d, X)
    assert single["g"] == (X,)


def test_g_maps_characterize_relations(small_dca_corpus):
    for d in small_dca_corpus:
        cs = clan_structure(d)
        prec = clan_precedence(d)
        for a in d.base.elements():
            for b in d.base.elements():
                ga = g_maps(d, a, cs)
                gb = g_maps(d, b, cs)
                assert d.time_contact(a, b) == bool(set(ga["g"]) & set(gb["g"]))
                assert d.time_contact(a, b) == bool(set(ga["gclust"]) & set(gb["gclust"]))
                assert d.space_contact(a, b) == bool(set(ga["gs"]) & set(gb["gs"]))
                expected_b = any(
                    (l, r) in prec for l in ga["g"] for r in gb["g"]
                )
                assert d.precedes(a, b) == expected_b


def test_canonical_time_structure_examples():
    trivial = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    canon = canonical_time_structure(trivial)
    assert canon.structure.point_count == 1
    assert canon.structure.prec == {(0, 0)}

    chain = standard_dca(two_time_chain())
    canon = canonical_time_structure(chain)
    assert canon.structure.point_count == 2
    directed = {(i, j) for i, j in canon.structure.prec if i != j}
    assert len(directed) == 1

    unrelated = standard_dca(
        build_dmst(TimeStructure.of(2, set()), [ONE_ATOM, ONE_ATOM], mode="full")
    )
    assert canonical_time_structure(unrelated).structure.prec == frozenset()


def test_correspondence2_rows():
    trivial = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    rows = {r.condition: r for r in correspondence2(trivial)}
    assert TimeCondition.IRR not in rows
    assert len(rows) == 10
    ref = rows[TimeCondition.REF]
    assert ref.on_ultrafilters and ref.on_clusters and ref.on_regions

    unrelated = standard_dca(
        build_dmst(TimeStructure.of(2, set()), [ONE_ATOM, ONE_ATOM], mode="full")
    )
    tri = {r.condition: r for r in correspondence2(unrelated)}[TimeCondition.TRI]
    assert not tri.on_ultrafilters and not tri.on_clusters and not tri.on_regions

    for d in (trivial, unrelated):
        assert all(r.agree for r in correspondence2(d))


def test_correspondence2_on_corpus(small_dca_corpus):
    for d in small_dca_corpus:
        rows = correspondence2(d)
        assert len(rows) == 10
        assert all(r.agree for r in rows)


def test_clan_cluster_characterizations(small_dca_corpus):
    for d in small_dca_corpus:
        cs = clan_structure(d)
        inside = {
            cluster: [s for s in cs.s_clans if s & ~cluster == 0]
            for cluster in cs.clusters
        }
        cluster_prec = [
            (l, r) for (l, r) in clan_precedence(d) if l in inside and r in inside
        ]
        for a in d.base.elements():
            for b in d.base.elements():
                via_shared_sclan = any(
                    s & a and s & b for group in inside.values() for s in group
                )
                assert d.space_contact(a, b) == via_shared_sclan
                via_same_cluster = any(
                    any(s & a for s in group) and any(s & b for s in group)
                    for group in inside.values()
                )
                assert d.time_contact(a, b) == via_same_cluster
                via_ordered_clusters = any(
                    any(s & a for s in inside[l]) and any(s & b for s in inside[r])
                    for l, r in cluster_prec
                )
                assert d.precedes(a, b) == via_ordered_clusters
                rest = a & ~b
                via_witness_sclan = any(
                    s & rest for group in inside.values() for s in group
                )
                assert (not d.base.leq(a, b)) == (rest != 0) == via_witness_sclan


def _snapshot_corpus():
    """Algebras of full models over every time structure on at most three
    moments, of seeded models, and of every contact algebra on three atoms."""
    one_atom = PrecontactAlgebra.overlap(FiniteBA(1))
    out = [
        standard_dca(build_dmst(ts, [one_atom] * ts.point_count, mode="full"))
        for n in (1, 2, 3)
        for ts in gen.all_time_structures(n)
    ]
    rng = random.Random(11)
    out += [standard_dca(gen.seeded_model(rng, moments)) for moments in (1, 2, 3) for _ in range(4)]
    out += [from_contact_algebra(ca) for ca in gen.contact_algebras(3)]
    return out


def test_canonical_model_equals_the_clan_inventory_construction(small_dca_corpus):
    # The canonical model reads clusters and the space contact directly; the
    # oracle builds it from the full clan inventory, t-clans included.
    for d in [*small_dca_corpus, *_snapshot_corpus()]:
        cs = clan_structure(d)
        clan_prec = clan_precedence(d)
        prec = {
            (i, j)
            for i, left in enumerate(cs.clusters)
            for j, right in enumerate(cs.clusters)
            if (left, right) in clan_prec
        }
        factors = tuple(
            factor_by_clanset(
                d.cs_algebra, [Clan(d.base, s) for s in cs.s_clans if s & ~cluster == 0]
            )
            for cluster in cs.clusters
        )
        time = canonical_time_structure(d)
        assert time.clusters == cs.clusters
        assert time.structure == TimeStructure.of(len(cs.clusters), prec)
        assert tuple(coordinate_algebra(d, c) for c in cs.clusters) == factors
        canonical = canonical_standard_dca(d)
        assert canonical.factors == factors
        assert canonical.model == build_dmst(time.structure, [f.algebra for f in factors])


def test_coordinate_algebra_of_two_time_chain():
    d = standard_dca(two_time_chain())
    cs = clan_structure(d)
    for cluster in cs.clusters:
        factored = coordinate_algebra(d, cluster)
        assert factored.algebra.base.atom_count == 1

    with pytest.raises(PreconditionError):
        coordinate_algebra(d, X | Y)  # not a cluster here


def test_coordinate_algebra_of_trivial_dca_recovers_contact():
    p = PrecontactAlgebra.from_atom_pairs(
        FiniteBA(3), {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)}
    )
    d = from_contact_algebra(p)
    cs = clan_structure(d)
    assert cs.clusters == (p.base.one,)
    factored = coordinate_algebra(d, p.base.one)
    assert factored.kept_atoms == (0, 1, 2)
    assert factored.algebra.relation == p.relation


def test_canonical_standard_dca_embedding_basics():
    trivial = from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2)))
    canonical = canonical_standard_dca(trivial)
    assert len(canonical.factors) == 1
    assert canonical.embed(0) == canonical.model.zero
    assert canonical.embed(trivial.base.one) == canonical.model.one
    images = {canonical.embed(a) for a in trivial.base.elements()}
    assert len(images) == trivial.base.size


def test_verify_embedding_passes_on_examples(small_dca_corpus):
    for d in small_dca_corpus:
        assert verify_embedding(d).ok


def test_region_algebra_atoms_and_masks():
    m = two_time_chain()
    atoms = [m.region(1 << i) for i in range(len(m.cells))]
    assert atoms == [(0, 1), (1, 0)]
    assert m.region_index((1, 1)) == 3
    assert m.region_index((0, 0)) == 0


def test_standard_dca_of_rich_model_validates():
    ts = TimeStructure.of(2, {(0, 1)})
    rich = build_dmst(ts, [TWO_ATOM, TWO_ATOM], mode="rich")
    d = standard_dca(rich)
    assert d.is_valid
    assert d.base.atom_count == 2  # the four 0/1 vectors form a 2-atom algebra


def test_standard_dca_of_single_reflexive_moment():
    ts = TimeStructure.of(1, {(0, 0)})
    d = standard_dca(build_dmst(ts, [TWO_ATOM], mode="full"))
    for a in d.base.elements():
        for b in d.base.elements():
            assert d.precedes(a, b) == d.time_contact(a, b)


def test_is_trivial_examples():
    assert is_trivial(from_contact_algebra(PrecontactAlgebra.overlap(FiniteBA(2))))
    assert not is_trivial(standard_dca(two_time_chain()))
    one_atom = DCA.from_pairs(1, {(0, 0)}, {(0, 0)}, {(0, 0)})
    assert is_trivial(one_atom)


def test_irr_forward_direction(small_dca_corpus):
    gap_seen = False
    for d in small_dca_corpus:
        result = irr_one_directional(d)
        assert result["forward_holds"]
        gap_seen = gap_seen or result["converse_gap"]
    # recorded, not asserted: whether the converse fails somewhere
    print(f"irr converse gap observed: {gap_seen}")


def test_time_axiom_equivalence_with_canonical_model(small_dca_corpus):
    for d in small_dca_corpus:
        canonical = canonical_standard_dca(d)
        induced = standard_dca(canonical.model)
        assert induced.is_valid
        for cond in DCA_TIME_AXIOMS:
            holds = element_time_axiom(canonical.model, cond).holds
            assert check_time_axiom(d, cond).holds == holds, (d, cond)
            assert check_time_axiom(induced, cond).holds == holds, (d, cond)


def _time_axiom_cases():
    """Every (time contact, precedence) pair on 1-2 atoms and 1,000 seeded 3-atom pairs."""
    for n in (1, 2):
        relations = list(all_atom_relations(n))
        for t, p in itertools.product(relations, repeat=2):
            yield DCA.from_pairs(n, set(), t.pairs, p.pairs)
    rng = random.Random(6)
    cells = list(itertools.product(range(3), repeat=2))
    for _ in range(1000):
        t, p = (
            {c for i, c in enumerate(cells) if bits >> i & 1}
            for bits in (rng.getrandbits(9), rng.getrandbits(9))
        )
        yield DCA.from_pairs(3, set(), t, p)


def test_time_axioms_match_element_oracle():
    """Atom-level verdicts and witnesses equal the element-level ones under
    both readings, and each failing witness fails the axiom's definition."""
    checked = 0
    for d in _time_axiom_cases():
        for cond in TIME_CONDITIONS:
            for existential in (False, True) if cond in FREE_VARIABLE_AXIOMS else (False,):
                fast = check_time_axiom(d, cond, existential)
                slow = element_time_axiom(d, cond, existential)
                assert (fast.holds, fast.witness) == (slow.holds, slow.witness), (d, cond, existential)
                if not fast.holds:
                    assert time_axiom_fails_at(d, cond, existential, fast.witness)
                checked += 1
    assert checked == (4 + 256 + 1000) * 15


def test_is_trivial_matches_element_definition(small_dca_corpus):
    def element_trivial(d):
        return all(
            d.time_contact(a, b) and d.precedes(a, b)
            for a in d.base.nonzero_elements()
            for b in d.base.nonzero_elements()
        )

    cases = list(small_dca_corpus) + list(gen.trivial_dcas(4))
    for d in cases:
        assert is_trivial(d) == element_trivial(d), d
    assert {is_trivial(d) for d in cases} == {True, False}


def test_canonical_time_isomorphism_measured_not_asserted():
    # whether the canonical time structure of a full snapshot algebra is
    # isomorphic to the source structure: measured and reported only
    import itertools as it

    matches = 0
    total = 0
    for bits in range(16):
        pairs = {
            (i, j)
            for k, (i, j) in enumerate(it.product(range(2), repeat=2))
            if bits >> k & 1
        }
        source = TimeStructure.of(2, pairs)
        model = build_dmst(source, [ONE_ATOM, ONE_ATOM], mode="full")
        canon = canonical_time_structure(standard_dca(model)).structure
        total += 1
        if canon.point_count == source.point_count:
            for perm in it.permutations(range(source.point_count)):
                mapped = {(perm[i], perm[j]) for i, j in source.prec}
                if mapped == set(canon.prec):
                    matches += 1
                    break
    print(f"canonical time isomorphic to source on {matches}/{total} structures")
    assert total == 16
