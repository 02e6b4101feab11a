"""Exception hierarchy for gjekit.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as a plain ValueError/RuntimeError.  Batched
solves report failures per row with a ``RowStatus`` code instead; each code
names the exception the one-row solve raises.
"""

from enum import IntEnum

import numpy as np


class GjekitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GjekitError):
    """A triple (x, xbar, z) is outside the admissible set of the
    generating function, or an iterate left its chart."""


class RangeError(GjekitError):
    """A scalar value u is outside the range of G(x, xbar, .)."""


class ConvergenceError(GjekitError):
    """An iterative solve exhausted its budget without meeting tolerance."""


class ConfigError(GjekitError):
    """Malformed construction parameters or run configuration."""


class EmptyEnvelopeError(GjekitError):
    """No envelope piece is admissible at the evaluation point."""


class NicenessError(GjekitError):
    """A scalar value left the declared nice interval where it was required
    to stay inside it."""


class HypothesisError(GjekitError):
    """A precondition of a pointwise estimate failed; carries the name of
    the violated clause."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"hypothesis violated: {clause}" + (f" ({detail})" if detail else ""))


class InfeasibleError(GjekitError):
    """A required bisection bracket could not be established inside the
    admissible scalar range."""


class StallError(GjekitError):
    """The solver swept too many times without residual decrease."""


class MonotonicityError(GjekitError):
    """A quantity asserted to be monotone was observed to violate
    monotonicity beyond tolerance; carries a witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class RowStatus(IntEnum):
    """Outcome of one row of a batched solve; every nonzero code is a failure.

    The codes follow the order in which a solve runs its checks (start,
    Newton iteration, final admissibility), so the lowest failing code of a
    batch is the error a raising caller reports.
    """

    OK = 0
    NO_ADMISSIBLE_Z = 1      # scalar inverse: no admissible z with G = u
    INVERSE_RESIDUAL = 2     # scalar inverse: residual above tolerance
    NO_START = 3             # no admissible Newton starting point
    SINGULAR_JACOBIAN = 4
    NONFINITE_STEP = 5
    DAMPING_EXHAUSTED = 6    # no step length decreased the residual
    ITERATION_LIMIT = 7      # newton_max_iter reached
    INADMISSIBLE = 8         # converged outside the admissible set
    DERIVATIVE_STENCIL = 9   # finite-difference stencil left the admissible set

    def error(self, label):
        cls, text = _ROW_ERRORS[self]
        return cls(f"{label}: {text}")


_ROW_ERRORS = {
    RowStatus.NO_ADMISSIBLE_Z: (RangeError, "no admissible z with G = u"),
    RowStatus.INVERSE_RESIDUAL: (ConvergenceError,
                                 "scalar inversion residual exceeds tolerance"),
    RowStatus.NO_START: (DomainError, "found no admissible starting point"),
    RowStatus.SINGULAR_JACOBIAN: (ConvergenceError, "singular jacobian in Newton solve"),
    RowStatus.NONFINITE_STEP: (ConvergenceError, "non-finite Newton step"),
    RowStatus.DAMPING_EXHAUSTED: (ConvergenceError,
                                  "Newton stalled (damping exhausted)"),
    RowStatus.ITERATION_LIMIT: (ConvergenceError, "Newton exceeded the iteration limit"),
    RowStatus.INADMISSIBLE: (DomainError, "converged outside the admissible set"),
    RowStatus.DERIVATIVE_STENCIL: (DomainError,
                                   "finite-difference stencil exits the admissible set"),
}


def raise_for_status(status, label):
    """Raise the error of the lowest failing code in ``status``, naming its row."""
    status = np.asarray(status)
    if status.any():
        code = int(status[status != 0].min())
        row = int(np.argmax(status == code))
        raise RowStatus(code).error(f"{label} (row {row} of {status.size})")

