"""Exception types shared across the package, and how failed replicates are counted."""

from collections import Counter


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


def _fail(errors: list, bad, make) -> None:
    """Give each problem flagged in the boolean array ``bad`` the error ``make(i)``.

    ``errors`` holds each problem's error, or None; a problem keeps its
    first error, the one that would stop it if it were computed alone.
    """
    for i in bad.nonzero()[0].tolist():
        if errors[i] is None:
            errors[i] = make(i)


def _outcome(fn, *args):
    """``fn(*args)``, or the PrevRatioError that stopped it.

    The error is returned without its traceback, whose frames would keep
    the failed call's data alive for as long as the error is kept.
    """
    try:
        return fn(*args)
    except PrevRatioError as exc:
        return exc.with_traceback(None)


def _failure_reasons(outcomes) -> dict[str, int]:
    """How many of ``outcomes`` are errors, by error type name, sorted by name."""
    counts = Counter(type(o).__name__ for o in outcomes if isinstance(o, PrevRatioError))
    return dict(sorted(counts.items()))
