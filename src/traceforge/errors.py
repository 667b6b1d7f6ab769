"""Exception types shared across the package."""


class TraceForgeError(Exception):
    """Base class for all package errors."""


class FieldMismatch(TraceForgeError, ValueError):
    """Operands belong to different coefficient fields."""


class DivisionByZero(TraceForgeError, ZeroDivisionError):
    """Division by, or inversion of, a zero field element."""


class EmptyGenerators(TraceForgeError, ValueError):
    """A semigroup or module constructor received no generators."""


class NotCofinite(TraceForgeError, ValueError):
    """The generators have gcd > 1, so the monoid misses infinitely many integers."""


class NotAMember(TraceForgeError, ValueError):
    """An element required to lie in the semigroup does not."""


class BoundTooLarge(TraceForgeError, ValueError):
    """An enumeration bound exceeds the supported workload."""


class ZeroIdeal(TraceForgeError, ValueError):
    """An operation that needs a nonzero module received none."""


class NotIntegral(TraceForgeError, ValueError):
    """Adjoined element has negative valuation, so it is not integral."""


class WorkloadExceeded(TraceForgeError, RuntimeError):
    """An exhaustive enumeration would exceed the configured guard."""


class NotMinimalMultiplicity(TraceForgeError, ValueError):
    """The semigroup's multiplicity differs from its embedding dimension."""


class IsDVR(TraceForgeError, ValueError):
    """The semigroup is all of N0, so the ring is a discrete valuation ring."""


class PreconditionViolated(TraceForgeError, ValueError):
    """A probe's value-set precondition fails for the given semigroup."""


class NotGorenstein(TraceForgeError, ValueError):
    """The algebra's socle is not one-dimensional."""


class DependentGenerators(TraceForgeError, ValueError):
    """The supplied elements are dependent modulo the square of the maximal ideal."""


class InfiniteField(TraceForgeError, ValueError):
    """An exhaustive enumeration was requested over an infinite field."""


class ZeroQuotient(TraceForgeError, ValueError):
    """The conductor is the whole ring, so the quotient algebra is zero."""
