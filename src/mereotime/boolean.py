"""Finite Boolean algebras as powerset algebras over an atom set.

Elements are int bitmasks over atoms 0..n-1: bit i set means atom i belongs
to the element.  0 is the bottom element, the full mask the top.  Every
finite Boolean algebra is isomorphic to such a powerset algebra, so no more
general lattice representation is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DimensionMismatch, PreconditionError, ValidationError


def atoms_of(mask: int):
    """Yield atom indices of `mask` in ascending order."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(atoms) -> int:
    out = 0
    for a in atoms:
        out |= 1 << a
    return out


def submasks(mask: int):
    """All submasks of `mask` including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class FiniteBA:
    """Powerset algebra over atoms 0..atom_count-1."""

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 1:
            raise ValidationError("degenerate algebra: at least one atom required")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return (1 << self.atom_count) - 1

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    def elements(self) -> range:
        return range(self.size)

    def nonzero_elements(self) -> range:
        return range(1, self.size)

    def atoms(self) -> range:
        return range(self.atom_count)

    def atom_mask(self, i: int) -> int:
        if not 0 <= i < self.atom_count:
            raise DimensionMismatch(f"atom {i} out of range for {self.atom_count} atoms")
        return 1 << i

    def check(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise DimensionMismatch(
                f"element {a:#x} does not fit an algebra with {self.atom_count} atoms"
            )
        return a

    # Boolean operations (set-theoretic on atom masks).

    def meet(self, a: int, b: int) -> int:
        return self.check(a) & self.check(b)

    def join(self, a: int, b: int) -> int:
        return self.check(a) | self.check(b)

    def compl(self, a: int) -> int:
        return self.one ^ self.check(a)

    def diff(self, a: int, b: int) -> int:
        return self.check(a) & ~self.check(b)

    def leq(self, a: int, b: int) -> bool:
        return self.check(a) & ~self.check(b) == 0


@dataclass(frozen=True)
class Filter:
    """Filter stored as an explicit member set; may be improper (contain 0)."""

    algebra: FiniteBA
    members: frozenset[int]

    def __post_init__(self):
        alg = self.algebra
        if alg.one not in self.members:
            raise ValidationError("filter must contain 1")
        for a in self.members:
            alg.check(a)
            for b in alg.elements():
                if a & ~b == 0 and b not in self.members:
                    raise ValidationError("filter not upward closed", witness=(a, b))
            for b in self.members:
                if a & b not in self.members:
                    raise ValidationError("filter not closed under meet", witness=(a, b))

    @classmethod
    def principal(cls, algebra: FiniteBA, generator: int) -> "Filter":
        algebra.check(generator)
        return cls(algebra, frozenset(b for b in algebra.elements() if generator & ~b == 0))

    @property
    def is_proper(self) -> bool:
        return 0 not in self.members

    @cached_property
    def minimum(self) -> int:
        """Smallest member; the filter is principal over it."""
        out = self.algebra.one
        for a in self.members:
            out &= a
        return out


@dataclass(frozen=True)
class Ideal:
    """Ideal stored as an explicit member set."""

    algebra: FiniteBA
    members: frozenset[int]

    def __post_init__(self):
        alg = self.algebra
        if 0 not in self.members:
            raise ValidationError("ideal must contain 0")
        for a in self.members:
            alg.check(a)
            for b in alg.elements():
                if b & ~a == 0 and b not in self.members:
                    raise ValidationError("ideal not downward closed", witness=(a, b))
            for b in self.members:
                if a | b not in self.members:
                    raise ValidationError("ideal not closed under join", witness=(a, b))

    @classmethod
    def principal(cls, algebra: FiniteBA, generator: int) -> "Ideal":
        algebra.check(generator)
        return cls(algebra, frozenset(submasks(generator)))

    @property
    def is_proper(self) -> bool:
        return self.algebra.one not in self.members

    @cached_property
    def maximum(self) -> int:
        out = 0
        for a in self.members:
            out |= a
        return out


@dataclass(frozen=True)
class Ultrafilter:
    """In a finite algebra every ultrafilter is principal over one atom."""

    algebra: FiniteBA
    atom: int

    def __post_init__(self):
        self.algebra.atom_mask(self.atom)

    @property
    def members(self) -> frozenset[int]:
        bit = 1 << self.atom
        return frozenset(a for a in self.algebra.elements() if a & bit)

    def contains(self, a: int) -> bool:
        return bool(self.algebra.check(a) & (1 << self.atom))


def ultrafilters(algebra: FiniteBA) -> list[Ultrafilter]:
    """All ultrafilters, one per atom, in ascending atom order."""
    return [Ultrafilter(algebra, i) for i in algebra.atoms()]


def filter_sum(f: Filter, g: Filter) -> Filter:
    """Smallest filter containing both, realized as all pairwise meets.

    The result is improper exactly when some a in f has its complement in g.
    """
    if f.algebra != g.algebra:
        raise DimensionMismatch("filters live in different algebras")
    members = frozenset(a & b for a in f.members for b in g.members)
    return Filter(f.algebra, members)


def separate(f: Filter, ideal: Ideal) -> Ultrafilter:
    """Ultrafilter extending `f` and disjoint from `ideal`.

    Deterministic: returns the lowest eligible atom index.
    """
    if f.algebra != ideal.algebra:
        raise DimensionMismatch("filter and ideal live in different algebras")
    common = f.members & ideal.members
    if common:
        raise PreconditionError(
            "filter and ideal intersect", witness=min(common)
        )
    eligible = f.minimum & ~ideal.maximum
    if eligible == 0:
        # Unreachable when the precondition holds: min(F) outside the ideal
        # must keep an atom outside its largest member.
        raise PreconditionError("no separating atom", witness=f.minimum)
    return Ultrafilter(f.algebra, next(atoms_of(eligible)))


def extend_to_ultrafilter(f: Filter) -> Ultrafilter:
    """Every proper filter extends to an ultrafilter."""
    if not f.is_proper:
        raise PreconditionError("improper filter cannot extend", witness=0)
    return separate(f, Ideal.principal(f.algebra, 0))


@dataclass(frozen=True)
class Grill:
    """Grill determined by a nonempty atom support.

    Induced member set is every element meeting the support; in a finite
    algebra these are exactly the unions of ultrafilters.
    """

    algebra: FiniteBA
    support: int

    def __post_init__(self):
        self.algebra.check(self.support)
        if self.support == 0:
            raise ValidationError("grill support must be nonempty (1 would be lost)")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(a for a in self.algebra.elements() if a & self.support)

    def contains(self, a: int) -> bool:
        return bool(self.algebra.check(a) & self.support)


def grill_from_atoms(algebra: FiniteBA, support) -> Grill:
    mask = support if isinstance(support, int) else mask_of(support)
    return Grill(algebra, mask)


def is_grill(algebra: FiniteBA, members) -> bool:
    """Direct check of the three grill conditions on an element family."""
    members = frozenset(members)
    if algebra.one not in members or 0 in members:
        return False
    for a in members:
        for b in algebra.elements():
            if a & ~b == 0 and b not in members:
                return False
    for a in algebra.elements():
        for b in algebra.elements():
            if (a | b) in members and a not in members and b not in members:
                return False
    return True


def grill_support(algebra: FiniteBA, members) -> int:
    """Recover the support of a grill member set: the singletons it contains."""
    members = frozenset(members)
    out = 0
    for i in algebra.atoms():
        if (1 << i) in members:
            out |= 1 << i
    return out
