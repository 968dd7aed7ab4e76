"""Uniform pass/fail checks with witnesses, aggregated into reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import CapabilityError


class Check(NamedTuple):
    """One named verdict. A failing check always carries a concrete witness."""

    name: str
    holds: bool
    witness: tuple | None = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class Report:
    """Ordered collection of checks produced by a validator."""

    subject: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, holds: bool, witness=None, note=None) -> Check:
        check = Check(name, holds, witness, note)
        self.checks.append(check)
        return check

    def extend(self, checks) -> None:
        self.checks.extend(checks)

    def add_summary(self, name: str, other: "Report") -> Check:
        """A check that holds iff all of `other` does, witnessed by its first failure's name."""
        failing = other.first_failure()
        return self.add(name, failing is None, None if failing is None else (failing.name,))

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.holds]

    def first_failure(self, *names: str) -> Check | None:
        """The first failing check among `names` (all checks if none are named), or None."""
        for c in self.checks:
            if not c.holds and (not names or c.name in names):
                return c
        return None

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.checks)

    def require(self, *names: str) -> None:
        """Raise CapabilityError naming the first failing check among `names`.

        With no names, every check must hold.
        """
        c = self.first_failure(*names)
        if c is not None:
            raise CapabilityError(
                f"{self.subject}: required property {c.name} fails"
                + (f" (witness {c.witness!r})" if c.witness is not None else ""),
                missing=c.name,
            )


def plain(value):
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(plain(v) for v in value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)
