"""Exception types shared across the package."""


class GdapredError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GdapredError):
    """Malformed input file; the message carries file/line context."""


class DanglingReferenceError(ParseError):
    """An edge points at an identifier never defined in the input."""


class CycleError(GdapredError):
    """A subsumption hierarchy that must be acyclic contains a cycle."""


class ConfigurationError(GdapredError, ValueError):
    """Inconsistent or incomplete configuration / argument combination."""


class IntegrityError(GdapredError):
    """Structurally valid inputs that contradict each other."""


class UnknownNodeError(GdapredError, KeyError):
    """A queried term or entity is not part of the graph."""

    def __str__(self):  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class DegenerateDataError(GdapredError):
    """Input too small or too uniform for the operation to be defined."""


class ZeroVectorError(GdapredError):
    """Cosine similarity is undefined for a zero vector."""


class DivergenceError(GdapredError):
    """Training produced a non-finite loss."""


class InfeasibleNegativesError(GdapredError):
    """The negative-pair space is smaller than the requested sample."""


class StageDependencyError(GdapredError):
    """A pipeline stage is missing an artifact a previous stage produces."""
