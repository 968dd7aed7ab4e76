"""Exception hierarchy shared by all modules, and the form their messages give counts in."""


def count_text(count: int) -> str:
    """A count as a message gives it: in full up to 12 digits, past that as
    2^k - 1 or 2^k where it is one, or as the power of two it exceeds."""
    if count < 10**12:
        return str(count)
    k = count.bit_length()
    if count & (count + 1) == 0:
        return f"2^{k} - 1"
    return f"2^{k - 1}" if count & (count - 1) == 0 else f"more than 2^{k - 1}"


class MereotimeError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(MereotimeError):
    """Operands belong to algebras or spaces of different sizes."""


class PreconditionError(MereotimeError):
    """A stated precondition was violated; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ValidationError(MereotimeError):
    """An input fails a structural requirement; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapabilityError(MereotimeError):
    """An operation needs a property the input lacks (e.g. an axiom)."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing


class CompositionError(MereotimeError):
    """Morphisms cannot be composed (codomain/domain mismatch)."""


class MembershipError(MereotimeError):
    """A region or point does not belong to the structure it was used with."""


class SchemaError(MereotimeError):
    """A model file is malformed or violates the file schema."""
