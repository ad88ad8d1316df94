"""The two-parameter map family, its Taylor data, and the w-coordinate forms.

The family composes q_j(s, z) = e^z / (e^{lambda (j-s)} + 1) innermost-first;
its limit satisfies

    beta(s + 1) = e^{beta(s)} / (e^{-lambda s} + 1)

and is 2*pi*i/lambda periodic in s.  The substitution w = e^{lambda s} turns
the family into g(w) with g(0) = 0, radius of convergence e^{Re lambda}, and
the scaling law g(e^lambda w) = (w/(w+1)) e^{g(w)}; f(w) = g(1/w) is the
reciprocal form used near infinity.  g_grid and f_grid evaluate the limit
from 40 Taylor terms of g, with no depth; g_eval and f_eval are grids of
one.  The "variable" mode replaces the exponent by (j - s)/sqrt(1 + s)
(principal branch, cut on (-inf, -1]).
"""

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DOMAIN, NONFINITE, OK, SHORT_CIRCUIT, ShortCircuit, scalar

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
            object.__setattr__(self, "lam", _fixed_lam(self.lam))
        object.__setattr__(self, "depth", _integer(self.depth, "depth"))
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @property
    def is_variable(self):
        return isinstance(self.lam, str)


def _fixed_lam(lam):
    """lam as a complex number; ValueError unless it is a finite number (no
    string) with Re(lambda) > 0."""
    try:
        if isinstance(lam, str):
            raise TypeError
        lam = complex(lam)
    except (TypeError, ValueError):
        raise ValueError(f"lambda must be a complex number, got {lam!r}") from None
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam.real <= 0:
        raise ValueError("fixed lambda requires Re(lambda) > 0")
    return lam


def _integer(value, name):
    """value as an int (numpy integers pass); ValueError for a non-integral value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


# ---------------------------------------------------------------- evaluators

def beta_eval(params, s):
    """Depth-n truncation at one point: beta_grid of one, raising on a failure status."""
    return scalar(beta_grid(params, complex(s)), "beta evaluation")


def beta_grid(params, s):
    """Vectorized depth-n evaluation; returns (values, status) with the input shape."""
    if params.is_variable:
        return _kernels.beta_variable_grid(s, params.depth)
    return _kernels.beta_fixed_grid(s, params.lam, params.depth)


# -------------------------------------------------------------- Taylor data

@dataclass(frozen=True, eq=False)
class TaylorSeries:
    """Derivatives a_k of g at 0 (g(w) = sum a_k w^k / k!), radius e^{Re lambda}."""

    lam: complex
    coefficients: np.ndarray          # a_k = g^{(k)}(0)
    radius: float
    monomial: np.ndarray = field(repr=False)  # a_k / k!


def taylor_coefficients(lam, K):
    """Coefficients a_0..a_K of g from the inductive recursion.

    Worked in the scaled basis a_k/k! (with b_k/k! for e^{g}) so the double
    induction never touches raw factorials; the k! conversion happens once
    at the end and flags overflow.  From K = 171 on, K! itself is not a
    double, so such K raise ShortCircuit before the induction runs.
    """
    lam = _fixed_lam(lam)
    K = _integer(K, "K")
    if K < 0:
        raise ValueError("K must be >= 0")
    if K > 170:     # 171! is not a double, so a_K K! cannot be finite
        raise ShortCircuit(f"a_k overflows double range before K={K}")
    a = np.zeros(K + 1, np.complex128)   # g's monomial coefficients
    b = np.zeros(K + 1, np.complex128)   # e^g's monomial coefficients
    b[0] = 1.0
    q = cmath.exp(-lam)
    alt = 0j                            # b_0 - b_1 + ... +- b_{k-1}
    for k in range(1, K + 1):
        alt += (-1.0) ** (k - 1) * b[k - 1]
        a[k] = (q ** k) * ((-1.0) ** (k + 1)) * alt
        b[k] = sum((k - d) * b[d] * a[k - d] for d in range(k)) / k
    fact = np.array([float(math.factorial(k)) for k in range(K + 1)])
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

# push-out condition estimate above which g_grid signals instead of returning:
# on 5489 random (lambda, w) pairs (ten lambdas from 0.05 to 0.5+3i, |w| from
# 0.5 to 3000) the relative error against a 60-digit push-out from the same
# Taylor value stayed below 3.2e-15 times the estimate, so up to this bound
# it is below 1e-12 with a margin of 3 (measured: at most 1.0e-13)
_PUSH_COND_MAX = 100.0


def g_grid(lam, w):
    """g over an array of w; returns (values, status) arrays.

    Each point is pulled inside |w| <= 0.35 e^{Re lambda} by repeated
    division by e^lambda, summed there from the Taylor terms, and pushed back
    out through g(e^lambda w) = (w/(w+1)) e^{g(w)}: one w-kernel level per
    pull, one kernel call per distinct pull count, so a point's bits do not
    depend on its batch.  The push-out magnifies rounding by up to the
    product of max(1, |g|) over the level inputs; above _PUSH_COND_MAX, or
    past _MAX_PULL_STEPS pulls, the point gets short_circuit.
    """
    return _g_points(lam, w)[:2]


def f_grid(lam, w):
    """Reciprocal form f(w) = g(1/w) over an array; w = 0 gets domain."""
    return _g_points(lam, w, reciprocal=True)[:2]


def g_eval(lam, w):
    """g at one point: g_grid of one, raising on a failure status."""
    return scalar(g_grid(lam, complex(w)), f"g({w})")


def f_eval(lam, w):
    """f at one point: f_grid of one; satisfies f(e^{-lambda} w) = e^{f(w)}/(1+w)."""
    return scalar(f_grid(lam, complex(w)), f"f({w})")


def _g_points(lam, w, reciprocal=False):
    """g_grid (or f_grid) values and status, and the push-out condition
    estimate: 0 where no push-out finished."""
    series = _cached_series(_fixed_lam(lam))
    w = np.asarray(w, np.complex128)
    shape, zero = w.shape, reciprocal & (w == 0)
    with np.errstate(all="ignore"):
        w = (1.0 / w if reciprocal else w).ravel()
    status = np.where(np.isfinite(w), OK, NONFINITE).astype(np.int8)
    values, cond = np.full(w.shape, np.nan, np.complex128), np.zeros(w.shape)
    elam, thresh = cmath.exp(series.lam), _TAYLOR_FRACTION * series.radius
    wi, pulls = np.where(status == OK, w, 0), np.zeros(w.shape, int)
    out = np.flatnonzero(np.abs(wi) > thresh)
    while out.size and pulls[out[0]] < _MAX_PULL_STEPS:    # all points in out pulled alike
        wi[out] /= elam
        pulls[out] += 1
        out = out[np.abs(wi[out]) > thresh]
    status[out], wi[out] = SHORT_CIRCUIT, 0
    taylor = np.polyval(series.monomial[::-1], wi)           # Horner, constant term last
    for p in np.unique(pulls[status == OK]).tolist():
        at = np.flatnonzero((status == OK) & (pulls == p))
        rows, st = _kernels.g_comp_grid(w[at], series.lam, p, taylor[at], rows=max(p, 1))
        inputs = np.concatenate([taylor[at][None], rows[:-1]])    # each level's input
        with np.errstate(over="ignore"):
            est = np.maximum(1.0, np.abs(inputs)).prod(axis=0)
        values[at], status[at] = rows[-1], st[-1]
        cond[at] = np.where(st[-1] == OK, est, 0.0)
    status[cond > _PUSH_COND_MAX] = SHORT_CIRCUIT
    status[zero.ravel()] = DOMAIN
    return values.reshape(shape), status.reshape(shape), cond.reshape(shape)


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
