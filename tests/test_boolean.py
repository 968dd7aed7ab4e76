import itertools
import random

import pytest

from mereotime.boolean import (
    FiniteBA,
    Filter,
    Grill,
    Ideal,
    SetAlgebra,
    Ultrafilter,
    additive,
    filter_sum,
    joins,
    mask_of,
    separate,
    ultrafilters,
)
from mereotime.errors import DimensionMismatch, MembershipError, PreconditionError, ValidationError

from conftest import (
    extend_to_ultrafilter,
    grill_from_atoms,
    is_filter_members,
    is_grill_members,
    is_ideal_members,
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
    out = ultrafilters(FiniteBA(1))
    assert len(out) == 1
    assert out[0].members == {1}


def test_ultrafilters_are_principal_per_atom():
    b = FiniteBA(3)
    out = ultrafilters(b)
    assert [u.atom for u in out] == [0, 1, 2]
    for u in out:
        assert u.members == {a for a in b.elements() if a & (1 << u.atom)}


def test_ultrafilter_membership_table():
    b = FiniteBA(2)
    u0 = Ultrafilter(b, 0)
    assert u0.contains(X) and u0.contains(X | Y)
    assert not u0.contains(0) and not u0.contains(Y)


def test_filter_validation_catches_gaps():
    b = FiniteBA(2)
    with pytest.raises(ValidationError) as err:
        Filter.from_members(b, {b.one, X, Y})  # X & Y = 0 missing
    assert err.value.witness == 0
    with pytest.raises(ValidationError) as err:
        Filter.from_members(b, {X})  # missing 1
    assert err.value.witness == b.one
    with pytest.raises(ValidationError) as err:
        Ideal.from_members(b, {0, X | Y})  # not downward closed
    assert err.value.witness == X
    assert Filter.from_members(b, {X, b.one}) == Filter.principal(b, X)
    assert Ideal.from_members(b, {0, Y}) == Ideal.principal(b, Y)


def test_filters_and_ideals_from_members_match_their_laws_on_all_families():
    """`from_members` against the direct laws, on every family of elements
    over three atoms; a rejection names the smallest element on which the
    family and the up-set of its meet (down-set of its join) differ."""
    b = FiniteBA(3)
    elements = list(b.elements())
    counts = {"filter": 0, "ideal": 0}
    for bits in range(1 << len(elements)):
        family = frozenset(e for i, e in enumerate(elements) if bits >> i & 1)
        meet, join = b.one, 0
        for a in family:
            meet, join = meet & a, join | a
        for name, build, law, generated in (
            ("filter", Filter.from_members, is_filter_members, Filter(b, meet)),
            ("ideal", Ideal.from_members, is_ideal_members, Ideal(b, join)),
        ):
            try:
                built = build(b, family)
            except ValidationError as err:
                assert not law(b, family), (name, family)
                assert err.witness == min(family ^ generated.members), (name, family)
                continue
            assert law(b, family), (name, family)
            assert built == generated and built.members == family
            counts[name] += 1
    # one filter and one ideal per generator
    assert counts == {"filter": 8, "ideal": 8}


def test_filter_sum_principal_example():
    b = FiniteBA(3)
    f = Filter.principal(b, X | Y)
    g = Filter.principal(b, Y | Z)
    total = filter_sum(f, g)
    # oracle: enumerate all pairwise meets directly
    assert total.members == {a & c for a in f.members for c in g.members}
    assert total == Filter.principal(b, Y)
    assert total.is_proper


def test_filter_sum_improper_flag():
    b = FiniteBA(2)
    total = filter_sum(Filter.principal(b, X), Filter.principal(b, Y))
    assert not total.is_proper
    assert 0 in total.members


def test_filter_sum_idempotent():
    b = FiniteBA(3)
    for g in b.elements():
        f = Filter.principal(b, g)
        assert filter_sum(f, f) == f


def test_filter_sum_is_smallest_containing_filter():
    b = FiniteBA(3)
    for gen_f in b.nonzero_elements():
        for gen_g in b.nonzero_elements():
            f, g = Filter.principal(b, gen_f), Filter.principal(b, gen_g)
            total = filter_sum(f, g)
            assert f.members <= total.members and g.members <= total.members
            # any principal filter containing both contains the sum
            for other_gen in b.elements():
                other = Filter.principal(b, other_gen)
                if f.members <= other.members and g.members <= other.members:
                    assert total.members <= other.members


def test_separate_examples():
    b2 = FiniteBA(2)
    u = separate(Filter.principal(b2, X), Ideal.principal(b2, Y))
    assert u.atom == 0

    b3 = FiniteBA(3)
    u = separate(Filter.principal(b3, X | Y), Ideal.principal(b3, Z))
    assert u.atom == 0  # lowest eligible index among {x, y}


def test_separate_precondition_carries_witness():
    b = FiniteBA(2)
    f = Filter.principal(b, X)
    ideal = Ideal.principal(b, X | Y)
    with pytest.raises(PreconditionError) as err:
        separate(f, ideal)
    assert err.value.witness in f.members & ideal.members


def test_separate_exhaustive_small():
    b = FiniteBA(3)
    for gen_f in b.nonzero_elements():
        f = Filter.principal(b, gen_f)
        for gen_i in b.elements():
            ideal = Ideal.principal(b, gen_i)
            if f.members & ideal.members:
                with pytest.raises(PreconditionError):
                    separate(f, ideal)
                continue
            u = separate(f, ideal)
            assert f.members <= u.members
            assert not (u.members & ideal.members)
            eligible = [x for x in b.atoms() if gen_f & (1 << x) and not gen_i & (1 << x)]
            assert u.atom == min(eligible)


def test_every_proper_filter_extends_to_ultrafilter():
    b = FiniteBA(4)
    for gen_f in b.nonzero_elements():
        f = Filter.principal(b, gen_f)
        u = extend_to_ultrafilter(f)
        assert f.members <= u.members
    with pytest.raises(PreconditionError):
        extend_to_ultrafilter(Filter.principal(b, 0))


def test_grill_round_trip_and_principal_case():
    for n in range(1, 5):
        b = FiniteBA(n)
        for support in b.nonzero_elements():
            g = grill_from_atoms(b, support)
            assert is_grill_members(b, g.members)
            assert mask_of(i for i in b.atoms() if 1 << i in g.members) == support
    b = FiniteBA(2)
    assert grill_from_atoms(b, X).members == Ultrafilter(b, 0).members
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
    ultra = [u.members for u in ultrafilters(b)]
    for members in ultra:
        assert Filter.from_members(b, members).members == members  # filter laws hold
        assert 0 not in members
    # no proper filter strictly contains an ultrafilter
    for gen in b.elements():
        f = Filter.principal(b, gen)
        if not f.is_proper:
            continue
        for members in ultra:
            assert not members < f.members


def test_ultrafilters_are_exactly_singleton_grills():
    for n in range(1, 5):
        b = FiniteBA(n)
        ultra = {frozenset(u.members) for u in ultrafilters(b)}
        for support in b.nonzero_elements():
            members = frozenset(grill_from_atoms(b, support).members)
            assert (members in ultra) == (support.bit_count() == 1)


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
