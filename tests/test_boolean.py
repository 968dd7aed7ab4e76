import itertools
import random

import pytest

from mereotime.boolean import (
    FiniteBA,
    Grill,
    SetAlgebra,
    additive,
    joins,
    mask_of,
)
from mereotime.errors import DimensionMismatch, MembershipError, PreconditionError, ValidationError

from conftest import (
    extend_to_ultrafilter,
    grill_from_atoms,
    is_filter_members,
    is_grill_members,
    is_ideal_members,
    principal_filter,
    submasks,
)

X, Y, Z = 1, 2, 4  # atom masks


def test_element_operations_on_two_atoms():
    b = FiniteBA(2)
    assert b.join(X, Y) == (X | Y)
    assert b.compl(X) == Y
    assert b.meet(X, X | Y) == X
    assert b.diff(X | Y, Y) == X
    assert b.leq(X, X | Y)
    assert not b.leq(X | Y, X)


def test_leq_matches_zero_test_exhaustively():
    for n in range(1, 5):
        b = FiniteBA(n)
        for a in b.elements():
            for c in b.elements():
                assert b.leq(a, c) == (b.meet(a, b.compl(c)) == 0)


def test_dimension_errors():
    b = FiniteBA(2)
    with pytest.raises(DimensionMismatch):
        b.meet(X, 8)
    with pytest.raises(DimensionMismatch):
        b.atom_mask(2)
    with pytest.raises(ValidationError):
        FiniteBA(0)


def test_ultrafilters_single_atom():
    b = FiniteBA(1)
    assert Grill(b, 1).members == principal_filter(b, 1) == {1}


def test_ultrafilters_are_principal_per_atom():
    """The ultrafilter of an atom is the singleton grill of that atom."""
    b = FiniteBA(3)
    for i in b.atoms():
        members = Grill(b, 1 << i).members
        assert members == principal_filter(b, 1 << i) == {a for a in b.elements() if a & (1 << i)}
        assert is_filter_members(b, members)


def test_ultrafilter_membership_table():
    b = FiniteBA(2)
    u0 = Grill(b, X)
    assert u0.contains(X) and u0.contains(X | Y)
    assert not u0.contains(0) and not u0.contains(Y)


def test_filter_validation_catches_gaps():
    b = FiniteBA(2)
    assert not is_filter_members(b, {b.one, X, Y})  # X & Y = 0 missing
    assert not is_filter_members(b, {X})  # missing 1
    assert not is_ideal_members(b, {0, X | Y})  # not downward closed
    assert is_filter_members(b, {X, b.one}) and {X, b.one} == principal_filter(b, X)
    assert is_ideal_members(b, {0, Y})


def test_filters_and_ideals_are_the_up_and_down_sets_of_their_generators():
    """A finite filter is the up-set of its least member and an ideal the
    down-set of its greatest: the direct laws hold on exactly those
    families, over every family of elements over three atoms."""
    b = FiniteBA(3)
    elements = list(b.elements())
    counts = {"filter": 0, "ideal": 0}
    for bits in range(1 << len(elements)):
        family = frozenset(e for i, e in enumerate(elements) if bits >> i & 1)
        meet, join = b.one, 0
        for a in family:
            meet, join = meet & a, join | a
        for name, law, generated in (
            ("filter", is_filter_members, principal_filter(b, meet)),
            ("ideal", is_ideal_members, frozenset(submasks(join))),
        ):
            assert law(b, family) == (family == generated), (name, family)
            counts[name] += law(b, family)
    # one filter and one ideal per generator
    assert counts == {"filter": 8, "ideal": 8}


def test_every_proper_filter_extends_to_ultrafilter():
    b = FiniteBA(4)
    for gen_f in b.nonzero_elements():
        atom = extend_to_ultrafilter(b, gen_f)
        assert principal_filter(b, gen_f) <= Grill(b, 1 << atom).members
    with pytest.raises(PreconditionError):
        extend_to_ultrafilter(b, 0)


def test_grill_round_trip_and_principal_case():
    for n in range(1, 5):
        b = FiniteBA(n)
        for support in b.nonzero_elements():
            g = grill_from_atoms(b, support)
            assert is_grill_members(b, g.members)
            assert mask_of(i for i in b.atoms() if 1 << i in g.members) == support
    b = FiniteBA(2)
    assert grill_from_atoms(b, X).members == principal_filter(b, X)
    assert grill_from_atoms(b, X | Y).members == set(b.nonzero_elements())


def test_empty_grill_support_rejected():
    with pytest.raises(ValidationError):
        Grill(FiniteBA(2), 0)


def test_is_grill_matches_reference_on_all_families():
    for n in (2, 3):
        b = FiniteBA(n)
        elements = list(b.elements())
        grills = {Grill(b, s).members for s in b.nonzero_elements()}
        for bits in range(1 << len(elements)):
            family = frozenset(e for i, e in enumerate(elements) if bits >> i & 1)
            expected = family in grills
            assert is_grill_members(b, family) == expected


def test_ultrafilters_are_maximal_proper_filters():
    b = FiniteBA(3)
    ultra = [Grill(b, 1 << i).members for i in b.atoms()]
    for members in ultra:
        assert is_filter_members(b, members)  # filter laws hold
        assert 0 not in members
    # no proper filter strictly contains an ultrafilter
    for gen in b.nonzero_elements():
        for members in ultra:
            assert not members < principal_filter(b, gen)


def test_ultrafilters_are_exactly_singleton_grills():
    """The grills that are filters are the grills of one atom."""
    for n in range(1, 5):
        b = FiniteBA(n)
        for support in b.nonzero_elements():
            members = grill_from_atoms(b, support).members
            assert is_filter_members(b, members) == (support.bit_count() == 1)


# Sizes on both sides of byte boundaries.
CHUNK_SIZES = (1, 7, 8, 9, 16, 17, 33)


def union_of_images(images, mask):
    out = 0
    for i, image in enumerate(images):
        if mask >> i & 1:
            out |= image
    return out


def test_additive_matches_union_of_images_across_chunks():
    rng = random.Random(5)
    for n in CHUNK_SIZES:
        images = [rng.getrandbits(40) for _ in range(n)]
        image = additive(images)
        masks = [0, (1 << n) - 1, *(1 << i for i in range(n)), *(rng.getrandbits(n) for _ in range(300))]
        for mask in masks:
            assert image(mask) == union_of_images(images, mask), (n, mask)
        # bits beyond the images are ignored
        assert image(1 << n | 1) == images[0]


def test_joins_lists_the_join_of_every_subset():
    images = [0b0011, 0b0110, 0b1000]
    assert joins(images) == [union_of_images(images, a) for a in range(8)]
    assert joins([]) == [0]


def minimal_members(family) -> list[int]:
    """The nonzero members with no other nonzero member inside, ascending."""
    return sorted(m for m in family if m and not any(a and a != m and a & ~m == 0 for a in family))


def family_witness(family):
    """The witness of the three rules of `SetAlgebra.of_family`, read off
    every subset join of the minimal members; None for a Boolean family."""
    members = set(family)
    atoms = minimal_members(members)
    for i, b in enumerate(atoms):
        earlier = {union_of_images(atoms[:i], s) for s in range(1 << i)}
        escaped = sorted(a for a in earlier if a | b not in members)
        if escaped:
            return (escaped[0], b, "join escapes")
    stray = members - {union_of_images(atoms, s) for s in range(1 << len(atoms))}
    if stray:
        return (min(stray), "not a join of atoms")
    return None if len(members) == 1 << len(atoms) else (len(members), len(atoms))


def test_of_family_matches_the_witness_rules_on_every_family_over_three_points():
    kinds = []
    for bits in range(1 << 8):
        family = [m for m in range(8) if bits >> m & 1]
        witness = family_witness(family)
        if witness is None:
            atoms = SetAlgebra.of_family(family)
            assert list(atoms) == minimal_members(family) and sorted(joins(atoms)) == family, family
            kinds.append("Boolean")
        else:
            with pytest.raises(ValidationError, match="^region family is not a Boolean subalgebra$") as err:
                SetAlgebra.of_family(family)
            assert err.value.witness == witness, family
            kinds.append(witness[-1] if isinstance(witness[-1], str) else "counts")
    # Every kind of verdict occurs, and Boolean families whose atoms share points pass.
    assert set(kinds) == {"Boolean", "join escapes", "not a join of atoms", "counts"}
    assert SetAlgebra.of_family([0, 0b011, 0b110, 0b111]) == (0b011, 0b110)


def element_closure(top: int, generators) -> set[int]:
    """Zero, `top` and the generators closed under union and complement in `top`, by fixpoint."""
    family = {0, top, *(g & top for g in generators)}
    while True:
        more = {a | b for a in family for b in family} | {top ^ a for a in family}
        if more <= family:
            return family
        family |= more


def test_cut_spans_the_element_level_closure_of_every_short_generator_list():
    top = 0b1111
    for count in range(4):
        for generators in itertools.product(range(16), repeat=count):
            cells = SetAlgebra.cut(top, generators)
            closure = element_closure(top, generators)
            # The joins of the cells are the closure, each once, and the cells its atoms.
            assert sorted(joins(cells)) == sorted(closure), generators
            assert sorted(cells) == minimal_members(closure), generators
    assert SetAlgebra.cut(0, [0b1]) == ()


def test_join_index_and_holds_agree_with_the_listing_of_joins():
    algebras = [
        SetAlgebra(()),
        SetAlgebra.cut(0b11111, [0b00110, 0b01100]),
        # Atoms sharing points, as regular closed atoms share their boundaries.
        SetAlgebra((0b00011, 0b01110, 0b11000)),
    ]
    for atoms in algebras:
        listed = joins(atoms)
        for i, member in enumerate(listed):
            assert (atoms.join(i), atoms.index(member), atoms.holds(member)) == (member, i, True)
        for mask in range(1 << 5):
            assert atoms.holds(mask) == (mask in listed), (atoms, mask)
        for index in (-1, len(listed), 2 * len(listed) + 3):
            with pytest.raises(MembershipError, match=f"no member at index {index}: the algebra has {len(listed)} members"):
                atoms.join(index)
