"""Exception types shared across the package.

The CLI maps these onto exit codes: validation failures exit 1,
consistency violations (including sampler exhaustion) exit 2, I/O errors
exit 3.
"""


class ValidationError(ValueError):
    """An input failed a validity predicate (shape, norm, unitarity, ...)."""


class ConsistencyError(RuntimeError):
    """An internal invariant was violated (e.g. imaginary residue too large)."""


class SamplingExhaustedError(ConsistencyError):
    """Rejection sampling hit its rejection budget before accepting."""

    def __init__(self, message: str, accepted: int, attempts: int):
        super().__init__(message)
        self.accepted = accepted
        self.attempts = attempts

    def __reduce__(self):
        # The default rebuilds from the message alone, which __init__ refuses.
        return type(self), (self.args[0], self.accepted, self.attempts)

    @property
    def acceptance_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.accepted / self.attempts
