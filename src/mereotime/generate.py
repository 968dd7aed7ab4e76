"""Deterministic generators for structures at desk scale.

Exhaustive sweeps enumerate every relation of a size; seeded generation is
reproducible under a fixed seed.  Dynamic algebras are seeded through the
snapshot construction: a random full model's induced algebra is always
valid.
"""

from __future__ import annotations

import itertools
import random

from .boolean import FiniteBA
from .contact import PrecontactAlgebra, Relation
from .dca import DCA, from_contact_algebra, standard_dca
from .errors import PreconditionError
from .snapshot import DMST, TimeStructure, build_dmst

ATOM_CAP = 6
TIME_CAP = 4


def check_size(kind: str, size: int, exhaustive: bool) -> None:
    """Refuse a size out of bounds for `kind`, and an exhaustive listing of a
    kind `EXHAUSTIVE` lacks or of the 2^(n^2) relations of size n > `TIME_CAP`."""
    cap = TIME_CAP if kind in ("time_structure", "dca", "dmst") else ATOM_CAP
    if not 1 <= size <= cap:
        raise PreconditionError(f"size {size} out of bounds for {kind} (1..{cap})")
    if exhaustive and kind not in EXHAUSTIVE:
        raise PreconditionError(f"exhaustive generation covers {' and '.join(EXHAUSTIVE)}")
    if exhaustive and size > TIME_CAP:
        too_many = f"2^{size * size} relations, over the bound of 2^{TIME_CAP * TIME_CAP} (size {TIME_CAP})"
        raise PreconditionError(f"exhaustive {kind} generation of size {size} lists {too_many}")


def all_relations(size: int):
    """Every binary relation on `size` points, read off the bits of a counter:
    bit x*size+y relates x to y."""
    full = (1 << size) - 1
    for bits in range(1 << size * size):
        yield Relation.from_rows(size, (bits >> x * size & full for x in range(size)))


def all_time_structures(size: int):
    for rel in all_relations(size):
        yield TimeStructure.from_rows(size, rel.rows)


def contact_relations(size: int):
    """Every reflexive and symmetric relation: the contact algebras."""
    off = list(itertools.combinations(range(size), 2))
    for bits in range(1 << len(off)):
        rows = [1 << i for i in range(size)]
        for i, (x, y) in enumerate(off):
            if bits >> i & 1:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
        yield Relation.from_rows(size, rows)


def contact_algebras(size: int):
    for rel in contact_relations(size):
        yield PrecontactAlgebra(FiniteBA(size), rel)


def trivial_dcas(max_atoms: int):
    """Every contact algebra up to `max_atoms`, lifted to a trivial algebra."""
    for n in range(1, max_atoms + 1):
        for algebra in contact_algebras(n):
            yield from_contact_algebra(algebra)


def seeded_contact(rng: random.Random, atoms: int) -> PrecontactAlgebra:
    pairs = {(i, i) for i in range(atoms)}
    for x, y in itertools.combinations(range(atoms), 2):
        if rng.random() < 0.5:
            pairs.add((x, y))
            pairs.add((y, x))
    return PrecontactAlgebra(FiniteBA(atoms), Relation(atoms, frozenset(pairs)))


def seeded_relation(rng: random.Random, size: int) -> Relation:
    """Each pair related with probability 1/2, drawn row by row."""
    return Relation.from_rows(size, [sum(1 << y for y in range(size) if rng.random() < 0.5) for _ in range(size)])


def seeded_time_structure(rng: random.Random, moments: int) -> TimeStructure:
    return TimeStructure.from_rows(moments, seeded_relation(rng, moments).rows)


def seeded_model(rng: random.Random, moments: int) -> DMST:
    """Random full snapshot model within the atom cap."""
    ts = seeded_time_structure(rng, moments)
    budget = ATOM_CAP
    coordinates = []
    for remaining in range(moments, 0, -1):
        most = max(1, min(2, budget - (remaining - 1)))
        size = rng.randint(1, most)
        budget -= size
        coordinates.append(seeded_contact(rng, size))
    return build_dmst(ts, coordinates, mode="full")


def seeded_dca(rng: random.Random, moments: int) -> DCA:
    return standard_dca(seeded_model(rng, moments))


# The generators `mereotime generate` reads, per kind: every structure of a
# size in a fixed order, and one structure of a size drawn from a seeded rng.
EXHAUSTIVE = {"adjacency": all_relations, "time_structure": all_time_structures}
SEEDED = {
    "adjacency": seeded_relation,
    "time_structure": seeded_time_structure,
    "dca": seeded_dca,
    "dmst": seeded_model,
}
