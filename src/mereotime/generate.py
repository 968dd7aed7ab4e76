"""Deterministic generators for structures at desk scale.

Exhaustive sweeps enumerate every relation up to the size caps; seeded
generation is reproducible under a fixed seed.  Dynamic algebras are seeded
through the snapshot construction: a random full model's induced algebra is
always valid.
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


def check_size(kind: str, size: int) -> None:
    cap = TIME_CAP if kind in ("time_structure", "dca", "dmst") else ATOM_CAP
    if not 1 <= size <= cap:
        raise PreconditionError(f"size {size} out of bounds for {kind} (1..{cap})")


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


def seeded_time_structure(rng: random.Random, moments: int) -> TimeStructure:
    pairs = {
        (i, j)
        for i in range(moments)
        for j in range(moments)
        if rng.random() < 0.5
    }
    return TimeStructure(moments, frozenset(pairs))


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


def seeded_dca(seed: int, moments: int) -> DCA:
    rng = random.Random(seed)
    return standard_dca(seeded_model(rng, moments))


def dca_corpus(count: int, max_moments: int = 3, seed: int = 0):
    """`count` seeded snapshot algebras cycling over the moment counts."""
    for i in range(count):
        moments = 1 + (i % max_moments)
        yield seeded_dca(seed + i, moments)
