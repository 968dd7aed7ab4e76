import itertools
import random

import pytest

from mereotime.boolean import FiniteBA
from mereotime.contact import PrecontactAlgebra
from mereotime.errors import MembershipError, PreconditionError, ValidationError
from mereotime.snapshot import (
    DMST,
    FREE_VARIABLE_AXIOMS,
    TimeCondition,
    TimeStructure,
    build_dmst,
    check_time_axiom,
    check_time_condition,
    correspondence_check,
    dynamic_relations,
    is_full,
    is_rich,
    reading_comparison,
    region_algebra_atoms,
    time_axiom_holds,
)

from conftest import (
    element_boolean_closure,
    element_closure_defect,
    element_is_rich,
    element_region_atoms,
    element_time_axiom,
    time_axiom_fails_at,
    zero_one_vectors,
)

ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))
TWO_ATOM = PrecontactAlgebra.overlap(FiniteBA(2))


def ts(n, pairs):
    return TimeStructure.of(n, pairs)


def full_model(n, pairs, coord=ONE_ATOM):
    return build_dmst(ts(n, pairs), [coord] * n, mode="full")


def test_time_condition_witnesses():
    chain = ts(2, {(0, 1)})
    rs = check_time_condition(chain, TimeCondition.RS)
    assert not rs.holds and rs.witness == (1,)
    assert check_time_condition(chain, TimeCondition.IRR).holds

    total = ts(2, {(0, 0), (0, 1), (1, 0), (1, 1)})
    for cond in TimeCondition:
        expected = cond is not TimeCondition.IRR
        assert check_time_condition(total, cond).holds == expected

    lonely = ts(1, set())
    assert check_time_condition(lonely, TimeCondition.TR).holds
    assert not check_time_condition(lonely, TimeCondition.REF).holds


def test_time_condition_against_direct_quantifiers():
    # independent first-order evaluation over all structures with two moments
    for bits in range(16):
        pairs = {
            (i, j)
            for k, (i, j) in enumerate(itertools.product(range(2), repeat=2))
            if bits >> k & 1
        }
        t = ts(2, pairs)
        before = lambda i, j: (i, j) in pairs
        moments = range(2)
        expected = {
            TimeCondition.RS: all(any(before(m, n) for n in moments) for m in moments),
            TimeCondition.LS: all(any(before(n, m) for n in moments) for m in moments),
            TimeCondition.UP_DIR: all(
                any(before(i, k) and before(j, k) for k in moments)
                for i in moments
                for j in moments
            ),
            TimeCondition.DOWN_DIR: all(
                any(before(k, i) and before(k, j) for k in moments)
                for i in moments
                for j in moments
            ),
            TimeCondition.CIRC: all(
                any(before(j, k) and before(k, i) for k in moments)
                for i in moments
                for j in moments
                if before(i, j)
            ),
            TimeCondition.DENS: all(
                any(before(i, k) and before(k, j) for k in moments)
                for i in moments
                for j in moments
                if before(i, j)
            ),
            TimeCondition.REF: all(before(m, m) for m in moments),
            TimeCondition.IRR: all(not before(m, m) for m in moments),
            TimeCondition.LIN: all(
                before(m, n) or before(n, m) for m in moments for n in moments
            ),
            TimeCondition.TRI: all(
                m == n or before(m, n) or before(n, m) for m in moments for n in moments
            ),
            TimeCondition.TR: all(
                before(i, k)
                for i in moments
                for j in moments
                for k in moments
                if before(i, j) and before(j, k)
            ),
        }
        for cond, value in expected.items():
            assert check_time_condition(t, cond).holds == value, (pairs, cond)


def test_build_full_model_region_count():
    m = full_model(2, {(0, 1)})
    assert len(m.regions) == 4
    assert is_full(m) and is_rich(m)


def test_rich_minimal_model():
    t = ts(2, {(0, 1)})
    m = build_dmst(t, [TWO_ATOM, TWO_ATOM], mode="rich")
    assert len(m.regions) == 4  # the zero/one vectors are already closed
    assert is_rich(m) and not is_full(m)
    for vec in itertools.product((0, 3), repeat=2):
        assert vec in m.regions


def test_custom_model_closure_validation():
    t = ts(1, set())
    with pytest.raises(ValidationError) as err:
        build_dmst(t, [TWO_ATOM], mode="custom", regions=[(0,), (3,), (1,)])
    assert err.value.witness == (2,)  # the missing complement

    m = build_dmst(t, [TWO_ATOM], mode="custom", regions=[(0,), (3,), (1,), (2,)])
    assert len(m.regions) == 4


FAMILY_SHAPES = ((2, 1), (1, 1, 1), (2,), (3,), (2, 2))


def region_families(coordinates):
    """Every nonempty region family on at most eight regions; on larger
    shapes, seeded samples and the Boolean closure of each."""
    regions = list(itertools.product(*(c.base.elements() for c in coordinates)))
    if len(regions) <= 8:
        for bits in range(1, 1 << len(regions)):
            yield [r for i, r in enumerate(regions) if bits >> i & 1]
        return
    rng = random.Random(len(regions))
    for _ in range(150):
        sample = rng.sample(regions, rng.randint(1, 5))
        yield sample
        yield list(element_boolean_closure(coordinates, sample))


def test_region_families_match_element_oracle():
    cases = closed = 0
    for shape in FAMILY_SHAPES:
        coordinates = [PrecontactAlgebra.overlap(FiniteBA(k)) for k in shape]
        t = ts(len(shape), {(i, i + 1) for i in range(len(shape) - 1)})
        for family in region_families(coordinates):
            members = tuple(sorted(set(family)))
            rich = build_dmst(t, coordinates, mode="rich", regions=family)
            expected = element_boolean_closure(coordinates, zero_one_vectors(coordinates) + family)
            assert rich.regions == expected, (shape, family)
            models = [rich]
            if element_closure_defect(coordinates, members) is None:
                models.append(build_dmst(t, coordinates, mode="custom", regions=family))
                assert models[-1].regions == members
                closed += 1
            else:
                with pytest.raises(ValidationError) as err:
                    build_dmst(t, coordinates, mode="custom", regions=family)
                witness = err.value.witness
                assert witness not in members, (shape, family)
                assert witness in element_boolean_closure(coordinates, members), (shape, family)
            for m in models:
                assert region_algebra_atoms(m) == element_region_atoms(m), (shape, family)
                assert is_rich(m) == element_is_rich(m), (shape, family)
            cases += 1
    assert cases == 3 * 255 + 15 + 300 and closed > 50


def test_custom_model_missing_mixed_vector_is_not_rich():
    t = ts(2, {(0, 1)})
    m = build_dmst(t, [TWO_ATOM, TWO_ATOM], mode="custom", regions=[(0, 0), (3, 3)])
    assert not is_rich(m)


def test_dynamic_relations_examples():
    m = full_model(2, {(0, 1)})
    a, b = (1, 0), (0, 1)
    rel = dynamic_relations(m, a, b)
    assert rel == {"Cs": False, "Ct": False, "B": True}
    assert dynamic_relations(m, b, a)["B"] is False

    one = m.one
    assert dynamic_relations(m, one, one)["Cs"] is True
    zero = m.zero
    assert dynamic_relations(m, zero, b) == {"Cs": False, "Ct": False, "B": False}


def test_foreign_region_rejected():
    m = full_model(1, set())
    with pytest.raises(MembershipError):
        m.space_contact((4,), (1,))


def test_space_contact_implies_time_contact():
    m = full_model(2, {(0, 1)}, coord=TWO_ATOM)
    for a in m.regions:
        for b in m.regions:
            if m.space_contact(a, b):
                assert m.time_contact(a, b)


def test_replacing_order_by_equality_gives_time_contact():
    pairs = {(0, 1), (1, 1)}
    m = full_model(2, pairs, coord=TWO_ATOM)
    eq = full_model(2, {(0, 0), (1, 1)}, coord=TWO_ATOM)
    for a in m.regions:
        for b in m.regions:
            assert eq.precedes(a, b) == m.time_contact(a, b)


def test_single_reflexive_moment_collapses_precedence():
    m = full_model(1, {(0, 0)}, coord=TWO_ATOM)
    for a in m.regions:
        for b in m.regions:
            assert m.precedes(a, b) == m.time_contact(a, b)


def test_time_axiom_examples():
    total = full_model(2, {(0, 0), (0, 1), (1, 0), (1, 1)})
    assert check_time_axiom(total, TimeCondition.REF).holds

    chain = full_model(2, {(0, 1)})
    lin = check_time_axiom(chain, TimeCondition.LIN)
    assert not lin.holds
    a, b = lin.witness[0], lin.witness[1]
    assert chain.is_nonzero(a) and chain.is_nonzero(b)
    assert not chain.precedes(a, b) and not chain.precedes(b, a)

    empty = full_model(2, set())
    assert check_time_axiom(empty, TimeCondition.TR).holds


def test_time_axioms_against_direct_quantifiers():
    # independent evaluation of every region axiom on a couple of models
    for pairs in (set(), {(0, 1)}, {(0, 1), (1, 0)}, {(0, 0), (0, 1), (1, 1)}):
        m = full_model(2, pairs, coord=TWO_ATOM)
        regions = m.regions
        nz = m.is_nonzero
        ct = m.time_contact
        bb = m.precedes
        comp = m.compl
        direct = {
            TimeCondition.RS: all(not nz(a) or bb(a, m.one) for a in regions),
            TimeCondition.LS: all(not nz(a) or bb(m.one, a) for a in regions),
            TimeCondition.UP_DIR: all(
                bb(a, p) or bb(b, comp(p))
                for a in regions
                for b in regions
                for p in regions
                if nz(a) and nz(b)
            ),
            TimeCondition.DOWN_DIR: all(
                bb(p, a) or bb(comp(p), b)
                for a in regions
                for b in regions
                for p in regions
                if nz(a) and nz(b)
            ),
            TimeCondition.CIRC: all(
                bb(b, p) or bb(comp(p), a)
                for a in regions
                for b in regions
                for p in regions
                if bb(a, b)
            ),
            TimeCondition.DENS: all(
                bb(a, p) or bb(comp(p), b)
                for a in regions
                for b in regions
                for p in regions
                if bb(a, b)
            ),
            TimeCondition.REF: all(
                bb(a, b) for a in regions for b in regions if ct(a, b)
            ),
            TimeCondition.IRR: all(
                any(
                    ct(a, c) and ct(b, d) and not ct(c, d)
                    for c in regions
                    for d in regions
                )
                for a in regions
                for b in regions
                if bb(a, b)
            ),
            TimeCondition.LIN: all(
                bb(a, b) or bb(b, a)
                for a in regions
                for b in regions
                if nz(a) and nz(b)
            ),
            TimeCondition.TRI: all(
                ct(a, b) or bb(a, b) or bb(b, a)
                for a in regions
                for b in regions
                if nz(a) and nz(b)
            ),
            TimeCondition.TR: all(
                any(not bb(a, c) and not bb(comp(c), b) for c in regions)
                for a in regions
                for b in regions
                if not bb(a, b)
            ),
        }
        for cond, value in direct.items():
            assert check_time_axiom(m, cond).holds == value, (pairs, cond)


def _oracle_models():
    """The full, rich and custom models of this module over every time
    relation on two moments, plus a custom model whose atoms span both moments."""
    for bits in range(16):
        pairs = {
            (i, j)
            for k, (i, j) in enumerate(itertools.product(range(2), repeat=2))
            if bits >> k & 1
        }
        t = ts(2, pairs)
        yield full_model(2, pairs)
        yield full_model(2, pairs, coord=TWO_ATOM)
        yield build_dmst(t, [TWO_ATOM, TWO_ATOM], mode="rich")
        yield build_dmst(t, [TWO_ATOM, TWO_ATOM], mode="custom", regions=[(0, 0), (3, 3)])
        yield build_dmst(
            t, [TWO_ATOM, TWO_ATOM], mode="custom", regions=[(0, 0), (1, 2), (2, 1), (3, 3)]
        )
    yield build_dmst(ts(1, set()), [TWO_ATOM], mode="custom", regions=[(0,), (3,), (1,), (2,)])
    yield full_model(1, {(0, 0)}, coord=TWO_ATOM)


def test_time_axioms_on_models_match_element_oracle():
    """Decided on region atoms, each axiom has the element-level verdict and
    witness under both readings, and each failing witness fails its definition."""
    failures = 0
    for m in _oracle_models():
        for cond in TimeCondition:
            for existential in (False, True) if cond in FREE_VARIABLE_AXIOMS else (False,):
                fast = check_time_axiom(m, cond, existential)
                slow = element_time_axiom(m, cond, existential)
                assert (fast.holds, fast.witness) == (slow.holds, slow.witness), (m, cond, existential)
                assert time_axiom_holds(m, cond, existential) == fast.holds
                if not fast.holds:
                    assert time_axiom_fails_at(m, cond, existential, fast.witness)
                    failures += 1
    assert failures > 100


def test_correspondence_rows_on_selected_structures():
    chain = full_model(2, {(0, 1)})
    rows = {r.condition: r for r in correspondence_check(chain)}
    assert all(r.agree for r in rows.values())
    assert rows[TimeCondition.IRR].left and rows[TimeCondition.IRR].right

    total = full_model(2, {(0, 0), (0, 1), (1, 0), (1, 1)})
    rows = {r.condition: r for r in correspondence_check(total)}
    assert rows[TimeCondition.REF].left and rows[TimeCondition.REF].right


def test_correspondence_requires_richness():
    t = ts(2, {(0, 1)})
    poor = build_dmst(t, [TWO_ATOM, TWO_ATOM], mode="custom", regions=[(0, 0), (3, 3)])
    assert not is_rich(poor)
    with pytest.raises(PreconditionError):
        correspondence_check(poor)


def test_free_variable_readings_can_differ():
    # on some structure the universal and existential readings split
    seen_difference = False
    for bits in range(16):
        pairs = {
            (i, j)
            for k, (i, j) in enumerate(itertools.product(range(2), repeat=2))
            if bits >> k & 1
        }
        m = full_model(2, pairs)
        for cond in (
            TimeCondition.UP_DIR,
            TimeCondition.DOWN_DIR,
            TimeCondition.CIRC,
            TimeCondition.DENS,
        ):
            universal, existential = reading_comparison(m, cond)
            if universal != existential:
                seen_difference = True
                assert existential and not universal  # universal is stronger
    assert seen_difference
