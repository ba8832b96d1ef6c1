"""Exception hierarchy shared across the library."""


class EndolabError(Exception):
    """Base class for all library errors."""


class NotPrime(EndolabError):
    pass


class EvenCharacteristic(EndolabError):
    pass


class UnsupportedDegree(EndolabError):
    pass


class ZeroArgument(EndolabError):
    pass


class WrongField(EndolabError):
    pass


class ZeroPoint(EndolabError):
    pass


class HypothesisFailed(EndolabError):
    pass


class CapExceeded(EndolabError):
    pass


class PrecisionExhausted(EndolabError):
    pass


class DivisionByNonUnitBeyondPrecision(PrecisionExhausted):
    pass


class IndistinguishableFromZero(EndolabError):
    pass


class SquareDiscriminant(EndolabError):
    pass


class NonMonotone(EndolabError):
    pass


class NotInIplus(EndolabError):
    pass


class NotAffineGeneric(EndolabError):
    pass


class NotInFiltration(EndolabError):
    pass


class InvalidParams(EndolabError):
    pass


class InvalidU(EndolabError):
    pass


class RootOfUnityUnavailable(EndolabError):
    pass


class OutOfDomain(EndolabError):
    pass


class UnknownPair(EndolabError):
    pass


class IdentityFailed(EndolabError):
    pass


class IncompatibleParams(EndolabError):
    pass
