"""Exception types shared across the package."""


class QcorrError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(QcorrError):
    """A matrix failed density-matrix validation; the message names the
    check that failed and the offending value."""


class NotPositiveError(InvalidStateError):
    """A matrix has an eigenvalue below the positivity tolerance."""

    def __init__(self, min_eigenvalue):
        super().__init__(
            f"matrix is not positive semidefinite (min eigenvalue {min_eigenvalue:.3e})"
        )
        self.min_eigenvalue = min_eigenvalue

    def __reduce__(self):
        # ``args`` holds the message, not the value the class is built from
        return type(self), (self.min_eigenvalue,)


class OutOfClassError(QcorrError):
    """The state has off-diagonal correlation entries, outside the
    diagonal-correlation family the witness is formulated for."""


class OptimizerFailureError(QcorrError):
    """The measurement-basis search did not converge within its budget."""
