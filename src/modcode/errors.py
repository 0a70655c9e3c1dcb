"""Exception hierarchy for the modcode package."""


class ModcodeError(Exception):
    """Base class for all modcode errors."""


class DimensionMismatchError(ModcodeError):
    """Operands live in incompatible ambient spaces or have bad shapes."""


class EnumerationBudgetError(ModcodeError):
    """An exhaustive enumeration would exceed the configured budget."""


class NotAnIsometryError(ModcodeError):
    """An operation requiring a Hamming isometry was given a non-isometry."""


class RankInfeasibleError(ModcodeError):
    """No homomorphism with the requested kernel exists at this alphabet size."""


class ZeroCodeError(ModcodeError):
    """The code has no nonzero codeword, so minimum distance is undefined."""


class DomainRejectionError(ModcodeError):
    """The request is outside the operation's mathematical domain."""
