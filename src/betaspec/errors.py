"""Exception hierarchy for the betaspec package.

Every error raised by library code derives from :class:`BetaSpecError` so
callers (notably the CLI) can separate computational failures from plain
Python bugs.
"""
from __future__ import annotations


class BetaSpecError(Exception):
    """Base class for all betaspec errors."""


class InvalidOrderError(BetaSpecError):
    """Matrix order n outside the valid range for the requested object."""


class InvalidParameterError(BetaSpecError):
    """Parameter (beta, domain point, option value) outside its contract."""


class PrecisionError(BetaSpecError):
    """Working precision below the supported minimum, or otherwise unusable."""


class SizeLimitError(BetaSpecError):
    """Exact oracle invoked beyond its hard size limit."""


class ZeroRootError(BetaSpecError):
    """Coefficient reversal requested for a polynomial with constant term 0."""


class PoleError(BetaSpecError):
    """Limit-function evaluation requested at a pole."""


class ConvergenceFailureError(BetaSpecError):
    """Iteration exhausted its precision ladder / sweep budget.

    Carries the best iterate seen so far in ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class RefinementFailureError(BetaSpecError):
    """Newton refinement diverged or stalled before reaching its target."""


class SingularityError(BetaSpecError):
    """A quantity that is provably nonzero evaluated to zero."""


class UnknownTestFunctionError(BetaSpecError):
    """Requested distribution test function id is not registered."""
