"""Exception types shared across the package."""


class PrevRatioError(Exception):
    """Base class for errors raised by this package."""


class DataError(PrevRatioError):
    """Invalid or unusable input data (CSV parsing, validation)."""


class InvalidArgumentError(PrevRatioError, ValueError):
    """An argument that cannot be used: a conditioning value the contrast
    sets, or a fit of the wrong family.

    It is also a ValueError, so code that catches ValueError still catches it.
    """


class RankDeficientError(PrevRatioError):
    """An SPD factorization hit a non-positive pivot.

    ``column`` is the index of the design-matrix column at which the
    factorization broke down (a collinear or constant predictor).
    """

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"matrix is rank deficient at column {column}")

    def __reduce__(self):
        # the default rebuilds from args, which hold the message, not the column
        return type(self), (self.column, str(self)), self.__dict__


class NonIdentifiableError(PrevRatioError):
    """The design matrix is collinear; coefficients cannot be identified."""


class NonConvergenceError(PrevRatioError):
    """Model fitting failed to converge.

    Carries the iteration count and last deviance seen, when available.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 deviance: float | None = None):
        self.iterations = iterations
        self.deviance = deviance
        super().__init__(message)


class DegenerateDenominatorError(PrevRatioError):
    """A ratio denominator collapsed to (numerically) zero, or an estimate
    too degenerate to have a log-scale interval, as on a separated fit.
    """
