"""Exception hierarchy shared across the package."""


class BranchInvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BranchInvError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonPositiveValuationGenerator(BranchInvError):
    pass


class ImprimitiveParametrization(BranchInvError):
    def __init__(self, d: int, message: str | None = None):
        if message is None:
            message = (
                f"parametrization is imprimitive: achieved valuations share gcd {d}; "
                f"substitute a new parameter (u = t^{d} for monomial branches)"
            )
        super().__init__(message)
        self.d = d


class TruncationExhausted(BranchInvError):
    pass


class OrderUndetectable(TruncationExhausted):
    pass


class DegreeLimitExceeded(TruncationExhausted):
    """A power or product in a generator would pass the parser's degree limit."""

    def __init__(self, degree: int, limit: int, position: int):
        super().__init__(f"generator degree {degree} is above {limit} (at position {position})")
        self.degree = degree
        self.position = position


class InsufficientTruncation(BranchInvError):
    pass


class NonPositiveMultiplierValuation(BranchInvError):
    pass


class NotNested(BranchInvError):
    pass


class UncertifiedTail(BranchInvError):
    pass


class RingMismatch(BranchInvError):
    pass


class NotInNormalization(BranchInvError):
    pass


class NotAnIntegralIdeal(BranchInvError):
    pass


class ScanExhausted(BranchInvError):
    pass


class GcdNotOne(BranchInvError):
    pass


class SieveLimitExceeded(BranchInvError):
    pass


class DomainError(BranchInvError):
    pass


class InternalInconsistency(BranchInvError):
    """Two independent routes to the same quantity disagreed; results must not be reported."""
