"""The two-parameter map family, its Taylor data, and the w-coordinate forms.

The family composes q_j(s, z) = e^z / (e^{lambda (j-s)} + 1) innermost-first;
its limit satisfies

    beta(s + 1) = e^{beta(s)} / (e^{-lambda s} + 1)

and is 2*pi*i/lambda periodic in s.  The substitution w = e^{lambda s} turns
the family into g(w) with g(0) = 0, radius of convergence e^{Re lambda}, and
the scaling law g(e^lambda w) = (w/(w+1)) e^{g(w)}; f(w) = g(1/w) is the
reciprocal form used near infinity.  g_eval(lam, w) and f_eval(lam, w)
evaluate the limit from 40 Taylor terms of g, with no depth.  The
"variable" mode replaces the exponent by (j - s)/sqrt(1 + s) (principal
branch, cut on (-inf, -1]).
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import SHORT_CIRCUIT, DomainError, NonFinite, ShortCircuit, raise_for_status

VARIABLE = "variable"


@dataclass(frozen=True)
class BetaParams:
    """One member of the family: lambda (or the variable marker) and depth."""

    lam: complex | str
    depth: int = 100

    def __post_init__(self):
        if isinstance(self.lam, str):
            if self.lam != VARIABLE:
                raise ValueError(f"lam must be a complex number or {VARIABLE!r}")
        else:
            object.__setattr__(self, "lam", complex(self.lam))
            if self.lam.real <= 0:
                raise ValueError("fixed lambda requires Re(lambda) > 0")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @property
    def is_variable(self):
        return isinstance(self.lam, str)


# ---------------------------------------------------------------- evaluators

def beta_eval(params, s):
    """Depth-n truncation at one point: beta_grid of one, raising on a failure status."""
    values, status = beta_grid(params, complex(s))
    raise_for_status(status[0], "beta evaluation")
    return complex(values[0])


def beta_grid(params, s):
    """Vectorized depth-n evaluation; returns (values, status) arrays."""
    if params.is_variable:
        return _kernels.beta_variable_grid(s, params.depth)
    return _kernels.beta_fixed_grid(s, params.lam, params.depth)


def beta_periodicity_check(params, s):
    """|beta(s + 2 pi i / lambda) - beta(s)| at matched depth (fixed lambda)."""
    if params.is_variable:
        raise ValueError("periodicity is defined for fixed lambda only")
    period = 2j * math.pi / params.lam
    return abs(beta_eval(params, s + period) - beta_eval(params, s))


# -------------------------------------------------------------- Taylor data

@dataclass(frozen=True, eq=False)
class TaylorSeries:
    """Derivatives a_k of g at 0 (g(w) = sum a_k w^k / k!), radius e^{Re lambda}."""

    lam: complex
    coefficients: np.ndarray          # a_k = g^{(k)}(0)
    radius: float
    monomial: np.ndarray = field(repr=False)  # a_k / k!


def _float_factorial(k):
    f = math.factorial(k)
    return float(f) if k <= 170 else math.inf


def taylor_coefficients(lam, K):
    """Coefficients a_0..a_K of g from the inductive recursion.

    Worked in the scaled basis a_k/k! (with b_k/k! for e^{g}) so the double
    induction never touches raw factorials; the k! conversion happens once
    at the end and flags overflow for very large K.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("requires Re(lambda) > 0")
    if K < 0:
        raise ValueError("K must be >= 0")
    a = np.zeros(K + 1, np.complex128)   # g's monomial coefficients
    b = np.zeros(K + 1, np.complex128)   # e^g's monomial coefficients
    b[0] = 1.0
    q = cmath.exp(-lam)
    for k in range(1, K + 1):
        alt = 0j
        sign = 1.0
        for c in range(k):
            alt += sign * b[c]
            sign = -sign
        a[k] = (q ** k) * ((-1.0) ** (k + 1)) * alt
        b[k] = sum((k - d) * b[d] * a[k - d] for d in range(k)) / k
    fact = np.array([_float_factorial(k) for k in range(K + 1)], float)
    with np.errstate(all="ignore"):
        coeff = a * fact
    if not np.all(np.isfinite(coeff.real) & np.isfinite(coeff.imag)):
        raise ShortCircuit(f"a_k overflows double range before K={K}")
    return TaylorSeries(lam=lam, coefficients=coeff,
                        radius=math.exp(lam.real), monomial=a)


# Taylor terms summed inside the disk
_TERMS = 40


@lru_cache(maxsize=64)
def _cached_series(lam):
    return taylor_coefficients(lam, _TERMS)


# safe fraction of the convergence radius for direct Taylor summation
_TAYLOR_FRACTION = 0.35
_MAX_PULL_STEPS = 4096

# push-out condition estimate above which g_eval signals instead of returning:
# on 5489 random (lambda, w) pairs (ten lambdas from 0.05 to 0.5+3i, |w| from
# 0.5 to 3000) the relative error against a 60-digit push-out from the same
# Taylor value stayed below 3.2e-15 times the estimate, so up to this bound
# it is below 1e-12 with a margin of 3 (measured: at most 1.0e-13)
_PUSH_COND_MAX = 100.0


def g_eval(lam, w):
    """Evaluate g: Taylor sum inside the disk, scaling-law continuation outside.

    The argument is pulled inside |w| <= 0.35 e^{Re lambda} by repeated
    division by e^lambda, summed there, then pushed back out through
    g(e^lambda w) = (w/(w+1)) e^{g(w)}: the w kernel runs one level per
    pull, starting from the Taylor value, with its singular and overflow
    guards.  A level maps a relative error of its output to an absolute
    error of its input, so the push-out magnifies rounding by up to the
    product of max(1, |g|) over the level inputs; where that exceeds
    _PUSH_COND_MAX, ShortCircuit is raised.
    """
    series = _cached_series(complex(lam))
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise NonFinite("w is not finite")
    if w == 0:
        return 0j
    elam = cmath.exp(series.lam)
    thresh = _TAYLOR_FRACTION * series.radius
    wi = w
    pulls = 0
    while abs(wi) > thresh:
        wi /= elam
        pulls += 1
        if pulls > _MAX_PULL_STEPS:
            raise ShortCircuit(f"|w|={abs(w):.3g} needs more than {_MAX_PULL_STEPS} pull-in steps")
    value = 0j
    for c in series.monomial[::-1]:
        value = value * wi + c
    values, status = _kernels._w(w, series.lam, pulls, value, rows=max(pulls, 1))
    if status[-1, 0] == SHORT_CIRCUIT:
        raise ShortCircuit("push-out exponential exceeds double range",
                           last_value=complex(values[-1, 0]))
    raise_for_status(status[-1, 0], f"g({w}) push-out")
    inputs = np.concatenate([[value], values[:-1, 0]])
    with np.errstate(over="ignore"):
        cond = np.prod(np.maximum(1.0, np.abs(inputs)))
    if cond > _PUSH_COND_MAX:
        raise ShortCircuit(f"g({w}) push-out is ill-conditioned (estimate {cond:.3g})")
    return complex(values[-1, 0])


def f_eval(lam, w):
    """Reciprocal form f(w) = g(1/w); satisfies f(e^{-lambda} w) = e^{f(w)}/(1+w)."""
    w = complex(w)
    if w == 0:
        raise DomainError("f is undefined at w = 0")
    return g_eval(lam, 1.0 / w)


def singular_lattice(lam, window, jmax=64, kmax=64):
    """Excluded s-points lambda (j - s) = (2k+1) pi i inside a window.

    window is (re_min, re_max, im_min, im_max); returns a complex ndarray.
    """
    lam = complex(lam)
    re_min, re_max, im_min, im_max = window
    pts = []
    for j in range(1, jmax + 1):
        for k in range(-kmax, kmax + 1):
            s = j - (2 * k + 1) * 1j * math.pi / lam
            if re_min <= s.real <= re_max and im_min <= s.imag <= im_max:
                pts.append(s)
    return np.array(pts, np.complex128)
