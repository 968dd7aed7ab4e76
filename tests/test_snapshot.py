import collections
import itertools
import random

import pytest

from mereotime.boolean import FiniteBA
from mereotime.contact import PrecontactAlgebra, Relation
from mereotime.dca import standard_dca
from mereotime.generate import all_relations, all_time_structures
from mereotime.errors import CapabilityError, MembershipError, PreconditionError, ValidationError
from mereotime.models import decode, encode
from mereotime.reporting import Report
from mereotime import snapshot
from mereotime.snapshot import (
    DMST,
    FREE_VARIABLE_AXIOMS,
    FULL_REGION_CAP,
    TimeCondition,
    TimeStructure,
    build_dmst,
    check_time_condition,
    correspondence_check,
    is_full,
    is_rich,
    time_axiom_failures,
    time_axiom_holds,
    time_condition_failures,
)

from conftest import (
    atom_failure,
    check_time_axiom,
    condition_failure,
    element_boolean_closure,
    element_closure_defect,
    element_is_rich,
    element_region_atoms,
    element_time_axiom,
    element_time_condition,
    product_universe,
    reading_comparison,
    ListedModel,
    time_axiom_fails_at,
    zero_one_vectors,
)

ONE_ATOM = PrecontactAlgebra.overlap(FiniteBA(1))
TWO_ATOM = PrecontactAlgebra.overlap(FiniteBA(2))


def ts(n, pairs):
    return TimeStructure.of(n, pairs)


def full_model(n, pairs, coord=ONE_ATOM):
    return build_dmst(ts(n, pairs), [coord] * n, mode="full")


@pytest.mark.parametrize(
    "build",
    [
        lambda: TimeStructure(0, ()),
        lambda: TimeStructure.of(0, []),
        lambda: TimeStructure.from_rows(0, ()),
        lambda: TimeStructure(2, {(0, 2)}),
        lambda: TimeStructure.of(2, [(-1, 0)]),
        lambda: TimeStructure.from_rows(2, (0b100, 0)),
        lambda: TimeStructure.from_rows(2, (0,)),
    ],
)
def test_time_structure_refuses_no_moment_and_pairs_out_of_range(build):
    with pytest.raises(ValidationError):
        build()


def test_time_structure_from_rows_equals_from_pairs():
    pairs = {(0, 1), (1, 2), (2, 0), (1, 1)}
    rows = (0b010, 0b110, 0b001)
    by_rows, by_pairs = TimeStructure.from_rows(3, rows), TimeStructure.of(3, pairs)
    assert isinstance(by_rows, TimeStructure) and isinstance(by_rows, Relation)
    assert by_rows == by_pairs and hash(by_rows) == hash(by_pairs)
    assert by_rows.prec == pairs and by_rows.point_count == 3
    assert not hasattr(by_rows, "relation")


def test_time_structure_files_round_trip():
    structures = list(all_time_structures(3))
    assert len(structures) == 512
    for t in structures:
        payload = encode(t)
        assert payload["kind"] == "time_structure"
        kind, back, _ = decode(payload)
        assert kind == "time_structure" and isinstance(back, TimeStructure) and back == t
    assert encode(Relation(3, structures[-1].prec))["kind"] == "adjacency"


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


def test_time_conditions_match_pair_lookup_oracle():
    structures = [ts for n in (1, 2, 3) for ts in all_time_structures(n)]
    cells = list(itertools.product(range(4), repeat=2))
    structures += [
        TimeStructure.of(4, (c for i, c in enumerate(cells) if bits >> i & 1))
        for bits in random.Random(12).sample(range(1 << 16), 400)
    ]
    for t in structures:
        for cond in TimeCondition:
            assert check_time_condition(t, cond) == element_time_condition(t, cond), (t, cond)


def _condition_structures():
    """Every time structure on at most three moments, then 400 seeded ones
    on four and five moments."""
    for n in (1, 2, 3):
        yield from all_time_structures(n)
    rng = random.Random(27)
    for _ in range(400):
        n = rng.randint(4, 5)
        yield TimeStructure.from_rows(n, _seeded_relation(rng, n).rows)


def test_one_pass_conditions_match_per_condition_oracle():
    """All conditions of a relation in one pass give each condition's witness."""
    for t in _condition_structures():
        expected = {cond: condition_failure(cond, t) for cond in TimeCondition}
        assert time_condition_failures(t) == expected, t
        assert t.condition_failures == expected, t


def _seeded_relation(rng, n) -> Relation:
    density = rng.random()
    return Relation.from_rows(
        n, (sum(1 << y for y in range(n) if rng.random() < density) for _ in range(n))
    )


def _atom_frames():
    """Every (time, prec) frame on at most two atoms; every frame on three
    atoms whose time relation is an equivalence (5 partitions x 512
    precedences), the shape of a DCA's clusters and of the identity frame;
    then 5,000 seeded frames on three to five atoms."""
    for n in (1, 2):
        relations = list(all_relations(n))
        yield from itertools.product(relations, relations)
    precedences = list(all_relations(3))
    for blocks in ((0b001, 0b010, 0b100), (0b011, 0b100), (0b101, 0b010), (0b001, 0b110), (0b111,)):
        time = Relation.from_rows(3, (next(b for b in blocks if b >> x & 1) for x in range(3)))
        yield from ((time, prec) for prec in precedences)
    rng = random.Random(14)
    for _ in range(5000):
        n = rng.randint(3, 5)
        yield _seeded_relation(rng, n), _seeded_relation(rng, n)


def test_one_pass_axioms_match_per_condition_oracle():
    """All region axioms of an atom frame in one pass give each axiom's
    witness under both readings; every verdict occurs both ways."""
    seen = collections.Counter()
    for time, prec in _atom_frames():
        failures = time_axiom_failures(time, prec)
        assert failures[2] == {cond: condition_failure(cond, prec) for cond in TimeCondition}, (time, prec)
        for existential in (False, True):
            for cond in TimeCondition:
                expected = atom_failure(cond, existential, time, prec)
                assert failures[existential][cond] == expected, (time, prec, cond, existential)
                seen[cond, existential, expected is None] += 1
    for cond in TimeCondition:
        for existential in (False, True):
            # Read existentially, density cannot fail: its scope makes the
            # first precedence row nonempty.
            outcomes = (True,) if existential and cond is TimeCondition.DENS else (True, False)
            assert all(seen[cond, existential, holds] for holds in outcomes), (cond, existential)


def test_coordinates_shared_by_moments_read_their_axiom_report_once(monkeypatch):
    """`build_dmst` decides a coordinate's contact verdict once per
    algebra, however many moments share it and however often it is built."""
    coordinate = PrecontactAlgebra.overlap(FiniteBA(2))
    report, first_failure, reads = coordinate.axiom_report, Report.first_failure, []

    def counted(self, *names):
        if self is report:
            reads.append(names)
        return first_failure(self, *names)

    monkeypatch.setattr(Report, "first_failure", counted)
    for k in (1, 3, 4):
        build_dmst(ts(k, set()), [coordinate] * k, mode="full")
    assert len(reads) == 1


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


def first_missing_join(coordinates, members):
    """The first join of the cells, in binary counting order, missing from
    `members`: the cells as vectors, cut out of the top by each member in
    turn, with each cell split into its meet with the member and the rest."""
    tops = tuple(c.base.one for c in coordinates)
    cells = [tops]
    for g in members:
        parts = ((tuple(x & y for x, y in zip(cell, g)), tuple(x & ~y for x, y in zip(cell, g))) for cell in cells)
        cells = [part for pair in parts for part in pair if any(part)]
    for index in range(1 << len(cells)):
        join = tuple(0 for _ in tops)
        for i, cell in enumerate(cells):
            if index >> i & 1:
                join = tuple(x | y for x, y in zip(join, cell))
        if join not in members:
            return join
    return None


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
                assert witness == first_missing_join(coordinates, members), (shape, family)
            for m in models:
                assert [m.region(1 << i) for i in range(len(m.cells))] == element_region_atoms(m), (shape, family)
                assert is_rich(m) == element_is_rich(m), (shape, family)
            cases += 1
    assert cases == 3 * 255 + 15 + 300 and closed > 50


def oracle_time_structures(moments):
    """Every time structure on at most two moments; a seeded sample on three."""
    structures = list(all_time_structures(moments))
    return structures if moments < 3 else random.Random(moments).sample(structures, 24)


def path_contact(base: FiniteBA) -> PrecontactAlgebra:
    """Atom i touches atoms i-1, i and i+1."""
    atoms = range(base.atom_count)
    return PrecontactAlgebra.from_atom_pairs(base, ((i, j) for i in atoms for j in atoms if abs(i - j) <= 1))


def test_models_match_the_listed_universe_oracle():
    """Full, rich and custom models with overlap and with path-contact
    coordinates, decided on their cells, against the same models held as
    listed regions: the listing, its size, fullness, richness, the atoms and
    their three relations, membership and index, and every time-axiom
    witness."""
    models = 0
    for shape, contact in itertools.product(FAMILY_SHAPES, (PrecontactAlgebra.overlap, path_contact)):
        coordinates = [contact(FiniteBA(k)) for k in shape]
        vectors = list(itertools.product(*(c.base.elements() for c in coordinates)))
        chain = ts(len(shape), {(i, i + 1) for i in range(len(shape) - 1)})
        cases = [(t, "full", None) for t in oracle_time_structures(len(shape))]
        for i, family in enumerate(region_families(coordinates)):
            if i % 5 == 0:
                cases.append((chain, "rich", family))
                if element_closure_defect(coordinates, family) is None:
                    cases.append((chain, "custom", family))
        for t, mode, family in cases:
            m = build_dmst(t, coordinates, mode=mode, regions=family)
            universe = (
                tuple(sorted(set(family))) if mode == "custom"
                else product_universe(coordinates, mode, family or ())
            )
            oracle = ListedModel(t, coordinates, universe)
            assert tuple(m.regions) == universe, (shape, mode, family)
            assert len(m.regions) == m.region_count == len(universe)
            assert is_full(m) == (len(universe) == len(vectors))
            assert is_rich(m) == element_is_rich(oracle)
            assert [m.region(1 << i) for i in range(len(m.cells))] == oracle.atoms
            d = standard_dca(m)
            assert (d.space_rel, d.time_rel, d.prec_rel) == (oracle.space, *oracle.frame)
            index = {r: i for i, r in enumerate(universe)}
            for v in vectors:
                assert (v in m.regions) == (v in index), (shape, mode, family, v)
                if v in index:
                    assert m.region_index(v) == index[v]
                else:
                    with pytest.raises(MembershipError):
                        m.region_index(v)
            for cond in TimeCondition:
                for existential in (False, True):
                    witness = oracle.axiom_witness(cond, existential)
                    assert check_time_axiom(m, cond, existential).witness == witness, (t, mode, cond)
            models += 1
    assert models > 300


def test_region_refuses_an_index_outside_the_listing():
    # Two one-atom moments: four regions, indexed 0..3.
    m = full_model(2, set())
    assert [m.region(i) for i in range(4)] == list(m.regions)
    for index in (4, -1, 7):
        with pytest.raises(MembershipError, match=f"^no member at index {index}: the algebra has 4 members$"):
            m.region(index)


def test_region_views_compare_on_layout_and_cells_without_listing():
    # Sixteen one-atom moments: 2^16 regions on each side, past the bound.
    m, n = full_model(16, set()), full_model(16, {(0, 1)})
    assert m.region_count > FULL_REGION_CAP
    assert m.regions == n.regions
    # Eight two-atom moments: the same 2^16 regions count and cells, another layout.
    assert m.regions != full_model(8, set(), TWO_ATOM).regions
    # Under the bound, views compare as their listings do.
    small = [
        full_model(2, set()), full_model(2, {(0, 1)}), full_model(1, set(), TWO_ATOM),
        build_dmst(ts(2, set()), [TWO_ATOM] * 2, mode="rich"), full_model(2, set(), TWO_ATOM),
    ]
    for a, b in itertools.product(small, repeat=2):
        assert (a.regions == b.regions) == (tuple(a.regions) == tuple(b.regions)), (a, b)
    assert small[0].regions == tuple(small[0].regions)


def test_region_views_compare_with_tuples_without_listing():
    # Sixteen one-atom moments: 2^16 regions, past the bound.
    m = full_model(16, set())
    assert m.region_count > FULL_REGION_CAP
    assert m.regions != () and [m.regions].index(m.regions) == 0
    with pytest.raises(ValueError):
        [m.regions].index(())
    # Equal lengths are compared region by region, up to the first difference.
    assert m.regions != (m.zero,) * m.region_count
    assert m.regions != (m.zero, m.one)
    small = full_model(2, set())
    listing = tuple(small.regions)
    assert small.regions == listing and small.regions != listing[:-1] + (listing[0],)
    assert small.regions != [*listing] and small.regions != listing[::-1]


def test_regions_are_listed_only_up_to_the_bound():
    # Seventeen one-atom moments: 2^17 regions, counted and tested on cells.
    m = full_model(17, set())
    assert len(m.regions) == m.region_count == 1 << 17 > FULL_REGION_CAP
    assert m.one in m.regions and m.region_index(m.one) == (1 << 17) - 1
    assert (2,) + m.zero[1:] not in m.regions
    rich = build_dmst(m.time, [TWO_ATOM] * 17, mode="rich")
    assert not is_full(rich) and len(rich.regions) == 1 << 17
    for listing in (lambda: list(m.regions), lambda: encode(rich)):
        with pytest.raises(CapabilityError) as err:
            listing()
        assert str(1 << 17) in str(err.value) and str(FULL_REGION_CAP) in str(err.value)
    assert encode(m)["mode"] == "full"
    # Past twelve digits the count is given as the power of two it is.
    with pytest.raises(CapabilityError, match=r"model too large to list: 2\^64 regions, over the bound"):
        list(full_model(64, set()).regions)


def test_custom_model_missing_mixed_vector_is_not_rich():
    t = ts(2, {(0, 1)})
    m = build_dmst(t, [TWO_ATOM, TWO_ATOM], mode="custom", regions=[(0, 0), (3, 3)])
    assert not is_rich(m)


def test_dynamic_relations_examples():
    m = full_model(2, {(0, 1)})

    def relations(a, b):
        return {"Cs": m.space_contact(a, b), "Ct": m.time_contact(a, b), "B": m.precedes(a, b)}

    a, b = (1, 0), (0, 1)
    assert relations(a, b) == {"Cs": False, "Ct": False, "B": True}
    assert relations(b, a)["B"] is False

    one = m.one
    assert relations(one, one)["Cs"] is True
    zero = m.zero
    assert relations(zero, b) == {"Cs": False, "Ct": False, "B": False}


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


def test_correspondence_decides_the_time_conditions_once(monkeypatch):
    """On a full model of one-atom coordinates each cell is one moment, so
    the cells' precedence is the time structure relabelled: one
    `correspondence_check` walks one frame, the cells', and its rows are
    those of the time structure's own conditions."""
    calls = []

    def counted(time, prec):
        calls.append(prec)
        return time_axiom_failures(time, prec)

    monkeypatch.setattr(snapshot, "time_axiom_failures", counted)
    for t in all_time_structures(3):
        model = build_dmst(t, [ONE_ATOM] * 3, mode="full")
        before = len(calls)
        rows = correspondence_check(model)
        assert len(calls) == before + 1, t
        conditions = time_condition_failures(TimeStructure.from_rows(3, t.rows))
        assert [row.left for row in rows] == [conditions[row.condition] is None for row in rows], t


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
