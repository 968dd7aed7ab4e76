"""Sampled invariants over wider element and relation spaces."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from mereotime.boolean import (
    FiniteBA,
    atoms_of,
    mask_of,
    meeting,
)
from mereotime.contact import PrecontactAlgebra, Relation, canonical_relation
from mereotime.snapshot import TimeStructure, build_dmst

from conftest import grill_from_atoms, is_grill_members


algebras = st.integers(min_value=1, max_value=6).map(FiniteBA)


@st.composite
def algebra_with_elements(draw, count=2):
    base = draw(algebras)
    masks = [draw(st.integers(min_value=0, max_value=base.one)) for _ in range(count)]
    return (base, *masks)


@given(st.integers(min_value=0, max_value=2**200))
def test_atoms_of_matches_bit_scan(mask):
    assert list(atoms_of(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@given(algebra_with_elements(count=2))
def test_boolean_identities(data):
    base, a, b = data
    assert base.leq(a, b) == (base.meet(a, base.compl(b)) == 0)
    assert base.compl(base.compl(a)) == a
    assert base.compl(base.join(a, b)) == base.meet(base.compl(a), base.compl(b))
    assert base.diff(a, b) == base.meet(a, base.compl(b))


@given(algebra_with_elements(count=1))
def test_grill_round_trip(data):
    base, support = data
    if support == 0:
        return
    g = grill_from_atoms(base, support)
    assert is_grill_members(base, g.members)
    assert mask_of(i for i in base.atoms() if 1 << i in g.members) == support


@st.composite
def atom_relations(draw, max_size=4):
    size = draw(st.integers(min_value=1, max_value=max_size))
    cells = list(itertools.product(range(size), repeat=2))
    pairs = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return Relation(size, frozenset(pairs))


@given(atom_relations())
@settings(max_examples=60)
def test_canonical_relation_round_trip(rel):
    algebra = PrecontactAlgebra(FiniteBA(rel.size), rel)
    assert canonical_relation(algebra) == rel


@given(atom_relations(max_size=3))
@settings(max_examples=60)
def test_possibility_image_characterizes_contact(rel):
    algebra = PrecontactAlgebra(FiniteBA(rel.size), rel)
    for a in algebra.base.elements():
        for b in algebra.base.elements():
            assert algebra.related(a, b) == bool(a & meeting(rel.rows, b))


@st.composite
def region_seeds(draw):
    moments = draw(st.integers(min_value=1, max_value=3))
    coords = [PrecontactAlgebra.overlap(FiniteBA(draw(st.integers(1, 2)))) for _ in range(moments)]
    prec = draw(
        st.sets(st.sampled_from(list(itertools.product(range(moments), repeat=2))))
        if moments
        else st.just(set())
    )
    seeds = [
        tuple(draw(st.integers(0, c.base.one)) for c in coords)
        for _ in range(draw(st.integers(0, 2)))
    ]
    return TimeStructure.of(moments, prec), coords, seeds


@given(region_seeds())
@settings(max_examples=40, deadline=None)
def test_rich_closure_is_boolean_closed(data):
    ts, coords, seeds = data
    model = build_dmst(ts, coords, mode="rich", regions=seeds)
    regions = set(model.regions)
    tops = tuple(c.base.one for c in coords)
    for a in regions:
        assert tuple(t ^ x for t, x in zip(tops, a)) in regions
        for b in regions:
            assert tuple(x | y for x, y in zip(a, b)) in regions
            assert tuple(x & y for x, y in zip(a, b)) in regions
    # rebuilding from the closed family as a custom model reproduces it
    again = build_dmst(ts, coords, mode="custom", regions=sorted(regions))
    assert again.regions == model.regions
