"""Signal types and per-element status codes.

Numerical failure here is a *signal*, not an exception in the mathematics:
deep exponential towers overflow doubles by design, log pullbacks can land
on the principal branch cut, and the map families have excluded lattice
points.  Grid APIs return a status plane; every scalar API is its grid on a
0-d point passed through `scalar`, which raises the signal of a failure
status, so a scalar call fails exactly where its grid's status does.
"""

# status codes used by the grid kernels and grid-level evaluators
OK = 0
SINGULAR = 1
SHORT_CIRCUIT = 2
NONFINITE = 3
BRANCH_CUT = 4
DOMAIN = 5
NO_CONVERGENCE = 6

STATUS_NAMES = {
    OK: "ok",
    SINGULAR: "singular",
    SHORT_CIRCUIT: "short_circuit",
    NONFINITE: "nonfinite",
    BRANCH_CUT: "branch_cut",
    DOMAIN: "domain",
    NO_CONVERGENCE: "no_convergence",
}

# e^x overflows IEEE doubles just past x = 709; the guard trips early so the
# pre-overflow iterate is still representable.
OVERFLOW_GUARD = 700.0

# exclusion radius around the singular lattice, measured in the exponent
# coordinate lambda*(j - s)
SINGULAR_RADIUS = 1e-9


class BetaTetError(Exception):
    """Base class for all evaluation signals."""


class ShortCircuit(BetaTetError):
    """An evaluation stopped early: an intermediate would exceed double range,
    or the result would carry more rounding error than its evaluator allows.

    A grid's values keep the last finite iterate at such a point, where one
    exists; the scalar call raises this signal instead.
    """


class SingularPoint(BetaTetError):
    """Evaluation point within the exclusion radius of the singular lattice."""


class NonFinite(BetaTetError):
    """An evaluator produced NaN (or was fed non-finite input)."""


class BranchCut(BetaTetError):
    """Evaluation point on (or within 1e-9 of) the cut (-inf, -2]."""


class CalibrationFailed(BetaTetError):
    """No bracket for the normalization shift found in the scan range."""


class NoConvergence(BetaTetError):
    """Newton iteration failed to converge within its step budget."""


class DomainError(BetaTetError):
    """Input outside the implemented domain (e.g. complex slog branch)."""


_STATUS_EXC = {
    SINGULAR: SingularPoint,
    SHORT_CIRCUIT: ShortCircuit,
    NONFINITE: NonFinite,
    BRANCH_CUT: BranchCut,
    DOMAIN: DomainError,
    NO_CONVERGENCE: NoConvergence,
}


def scalar(result, context):
    """A grid's (value, status) on a 0-d point as a complex number; a failure
    status raises its signal, with the message "<status name>: <context>"."""
    value, status = result
    if status != OK:
        raise _STATUS_EXC[int(status)](f"{STATUS_NAMES[int(status)]}: {context}")
    return complex(value)
