"""Exception types shared across the package."""


class ButterflyError(Exception):
    """Base class for every domain error raised by this package."""


class NotCoprime(ButterflyError):
    """Inputs that must be coprime are not."""


class DegenerateDifference(ButterflyError):
    """Farey difference of two fractions with equal denominators."""


class TailDirectionMismatch(ButterflyError):
    """Chain generator applied against the tail direction of the state."""


class NoTail(ButterflyError):
    """Chain operation requested on a state without a tail."""


class InconsistentChernPair(ButterflyError):
    """The two diagonal slopes disagree about the central gap congruence."""


class InvariantViolation(ButterflyError):
    """A constructed object failed its own consistency checks."""


class MalformedRecord(ButterflyError):
    """An export record that cannot be read: not JSON, or a field missing or mistyped."""


class NotCCell(ButterflyError):
    """Pythagorean conversion requested for a node that is not a C-cell."""


class ParabolicWord(ButterflyError):
    """Word whose block trace has magnitude < 3, so no hyperbolic exponent."""


class EmptyInput(ButterflyError):
    """Renderer invoked with nothing to draw."""
