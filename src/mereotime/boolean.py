"""Finite Boolean algebras as powerset algebras over an atom set.

Elements are int bitmasks over atoms 0..n-1: bit i set means atom i belongs
to the element.  0 is the bottom element, the full mask the top.  Every
finite Boolean algebra is isomorphic to such a powerset algebra, so no more
general lattice representation is kept.

Each structure on such an algebra is stored by its generator: a filter by
its least member, an ideal by its greatest, an ultrafilter by its atom and a
grill by its atom support.  Member sets are derived views, and a family of
elements is recognised as a filter or an ideal by comparing it with the
member set of the generator it determines; the recognisers of the other
member sets are test oracles (`tests/conftest.py`).

A finite Boolean algebra of sets, a model's regions or a space's, is held by
its atoms as a `SetAlgebra`, which indexes and tests members without a listing
and lists each point's trace, the atoms that hold it, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .errors import DimensionMismatch, MembershipError, PreconditionError, ValidationError, count_text


class cached_attribute:
    """An attribute computed by `func` on its first read and kept in the
    instance's `__dict__` under its name, where every later read finds it
    without reaching this descriptor.  Unlike `functools.cached_property`
    on Python 3.11, a first read takes no lock: two threads reading it at
    once may each compute the value, and one of the equal values is kept.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def atoms_of(mask: int):
    """Yield atom indices of `mask` in ascending order, one per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(atoms) -> int:
    out = 0
    for a in atoms:
        out |= 1 << a
    return out


def meeting(masks, target: int) -> int:
    """The indices of the `masks` that meet `target`, as a mask."""
    out = 0
    for i, mask in enumerate(masks):
        if mask & target:
            out |= 1 << i
    return out


def joins(masks) -> list[int]:
    """The join of every subset of `masks`: entry a joins the masks that a selects."""
    out = [0]
    for m in masks:
        out += [j | m for j in out]
    return out


class SetAlgebra(tuple):
    """A finite Boolean algebra of sets held by its atoms (Sikorski 1964):
    member a is the join of the atoms that a selects, as in `joins`.  The
    joins are distinct; atoms may share points, as regular closed ones do."""

    def join(self, index: int) -> int:
        """The member at `index`: the join of the atoms it selects."""
        if not 0 <= index < 1 << len(self):
            raise MembershipError(f"no member at index {index}: the algebra has {count_text(1 << len(self))} members")
        out = 0
        for i in atoms_of(index):
            out |= self[i]
        return out

    def index(self, mask: int) -> int:
        """The atoms inside `mask`, those missing its complement: its index if it is a member."""
        return (1 << len(self)) - 1 ^ meeting(self, ~mask)

    def holds(self, mask: int) -> bool:
        return self.join(self.index(mask)) == mask

    @cached_attribute
    def traces(self) -> tuple[int, ...]:
        """traces[x]: the atoms that hold point x, as a mask, for each point up
        to the last one an atom holds; one pass over the atoms' points."""
        out = [0] * max(self, default=0).bit_length()
        for i, atom in enumerate(self):
            for x in atoms_of(atom):
                out[x] |= 1 << i
        return tuple(out)

    @classmethod
    def cut(cls, top: int, generators) -> "SetAlgebra":
        """The algebra `generators` span inside `top`: the nonempty cells they
        cut out of it, in the order of the cuts; O(generators x cells)."""
        cells = [top] if top else []
        for g in generators:
            cells = [part for cell in cells for part in (cell & g, cell & ~g) if part]
        return cls(cells)

    @classmethod
    def of_family(cls, family) -> "SetAlgebra":
        """The atoms of a family that is a Boolean algebra under union: its
        minimal nonzero members, ascending by mask.  The family is Boolean
        iff the 2^k joins of its k atoms are pairwise distinct and are exactly
        its members.  Otherwise the error's witness is a member and an atom
        whose join escapes, a member that is no join of atoms, or the member
        and atom counts when atom joins collide.  The distinct joins stay
        inside the family, so the work is O(k * family)."""
        members = set(family)
        atoms = []
        for m in sorted(members, key=int.bit_count):
            if m:
                for a in atoms:
                    if a & ~m == 0:
                        break
                else:
                    atoms.append(m)
        atoms.sort()
        spanned = {0}
        for b in atoms:
            escaped = min((a for a in spanned if a | b not in members), default=None)
            if escaped is not None:
                raise ValidationError(
                    "region family is not a Boolean subalgebra", witness=(escaped, b, "join escapes")
                )
            spanned |= {a | b for a in spanned}
        extra = members - spanned
        if extra or len(members) != 1 << len(atoms):
            raise ValidationError(
                "region family is not a Boolean subalgebra",
                witness=(min(extra), "not a join of atoms") if extra else (len(members), len(atoms)),
            )
        return cls(atoms)


def additive(images):
    """The union-preserving map sending bit i to `images[i]`: a call joins
    the images of the argument's set bits, one step per bit; bits beyond
    the images are ignored."""
    images = tuple(images)
    inside = (1 << len(images)) - 1

    def image(mask: int) -> int:
        out, mask = 0, mask & inside
        while mask:
            low = mask & -mask
            out |= images[low.bit_length() - 1]
            mask ^= low
        return out

    return image


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


def _spanned(candidate, members, what: str):
    """`candidate` if its member set is `members`, else a witness in the difference."""
    stray = candidate.members ^ members
    if stray:
        raise ValidationError(f"members are not {what}", witness=min(stray))
    return candidate


@dataclass(frozen=True)
class Filter:
    """Filter stored by its least member; a least member 0 makes it improper.

    In a finite algebra every filter is principal over the meet of its
    members, so the member set is derived from that generator.
    """

    algebra: FiniteBA
    minimum: int

    def __post_init__(self):
        self.algebra.check(self.minimum)

    @classmethod
    def principal(cls, algebra: FiniteBA, generator: int) -> "Filter":
        return cls(algebra, generator)

    @classmethod
    def from_members(cls, algebra: FiniteBA, members) -> "Filter":
        """The filter with this member set: the up-set of the members' meet."""
        members = frozenset(members)
        return _spanned(cls(algebra, reduce(and_, members, algebra.one)), members, "the up-set of their meet")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.minimum | b for b in submasks(self.algebra.one ^ self.minimum))

    @property
    def is_proper(self) -> bool:
        return self.minimum != 0


@dataclass(frozen=True)
class Ideal:
    """Ideal stored by its greatest member; the member set is its down-set."""

    algebra: FiniteBA
    maximum: int

    def __post_init__(self):
        self.algebra.check(self.maximum)

    @classmethod
    def principal(cls, algebra: FiniteBA, generator: int) -> "Ideal":
        return cls(algebra, generator)

    @classmethod
    def from_members(cls, algebra: FiniteBA, members) -> "Ideal":
        """The ideal with this member set: the down-set of the members' join."""
        members = frozenset(members)
        join = reduce(or_, members, 0) & algebra.one
        return _spanned(cls(algebra, join), members, "the down-set of their join")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(submasks(self.maximum))

    @property
    def is_proper(self) -> bool:
        return self.maximum != self.algebra.one


@dataclass(frozen=True)
class Ultrafilter:
    """In a finite algebra every ultrafilter is principal over one atom."""

    algebra: FiniteBA
    atom: int

    def __post_init__(self):
        self.algebra.atom_mask(self.atom)

    @property
    def members(self) -> frozenset[int]:
        return Grill(self.algebra, 1 << self.atom).members

    def contains(self, a: int) -> bool:
        return bool(self.algebra.check(a) & (1 << self.atom))


def ultrafilters(algebra: FiniteBA) -> list[Ultrafilter]:
    """All ultrafilters, one per atom, in ascending atom order."""
    return [Ultrafilter(algebra, i) for i in algebra.atoms()]


def filter_sum(f: Filter, g: Filter) -> Filter:
    """Smallest filter containing both: principal over the meet of the generators.

    The result is improper exactly when some a in f has its complement in g.
    """
    if f.algebra != g.algebra:
        raise DimensionMismatch("filters live in different algebras")
    return Filter(f.algebra, f.minimum & g.minimum)


def separate(f: Filter, ideal: Ideal) -> Ultrafilter:
    """Ultrafilter extending `f` and disjoint from `ideal`.

    Deterministic: returns the lowest atom of min(F) outside max(I).  The two
    meet iff min(F) <= max(I), and min(F) is then their smallest common member.
    """
    if f.algebra != ideal.algebra:
        raise DimensionMismatch("filter and ideal live in different algebras")
    eligible = f.minimum & ~ideal.maximum
    if eligible == 0:
        raise PreconditionError("filter and ideal intersect", witness=f.minimum)
    return Ultrafilter(f.algebra, next(atoms_of(eligible)))


@dataclass(frozen=True)
class Grill:
    """Grill determined by a nonempty atom support.

    Induced member set is every element meeting the support; in a finite
    algebra these are exactly the unions of ultrafilters.  Clans and
    clusters of a contact algebra are the grills whose support is a clique
    (`contact.Clan`).
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

