"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input is outside the domain of the requested operation."""


class NotSequentiallyCongruentError(DomainError):
    """Input partition violates the sequential congruence conditions.

    ``index`` is the first 1-based position i where part i is not congruent
    to part i+1 modulo i (or, at the last position, not divisible by it).
    """

    def __init__(self, index):
        self.index = index
        super().__init__(f"not sequentially congruent: congruence fails at index {index}")


class ContainmentError(DomainError):
    """A multiset of parts to remove is not contained in the partition."""


class CanonicalFormError(DomainError):
    """A coefficient vector is not in canonical form (trailing zero)."""


class SpecError(DomainError):
    """A sequence specification does not meet an operation's requirements."""


class HorizonError(SpecError):
    """A sequence term beyond the configured realization horizon was needed."""


class ResourceError(DomainError):
    """An answer would exceed the output-size limit (``partition.MAX_OUTPUT_PARTS``)."""
