"""Hot composition kernels, vectorized with numpy.

Both recursions of the map family run on one compacting loop, `_compose`,
which evaluates a depth-n truncation innermost term first, j = n, ..., 1.
The beta kernel steps

    f <- e^f / (1 + e^{x_j}),   x_j = rate (j - s),   from f = 0,

where the rate is lambda for the fixed family and 1/sqrt(1 + s) for the
variable one.  The w-coordinate kernel steps f <- w e^f / (e^{lambda j} + w),
the same map under w = e^{lambda s}; g_eval runs it from its Taylor value.

`_compose` applies the same guards to each point, in this order: singular
denominator, then overflow guard, then non-finite update.  A point stops at
the first guard it trips and keeps its last finite iterate; a point with a
non-finite input gets the nonfinite status before the first level.
"""

import numpy as np

from .errors import NONFINITE, OVERFLOW_GUARD, SHORT_CIRCUIT, SINGULAR, SINGULAR_RADIUS

BACKEND = "numpy"


def _as_c128(a):
    arr = np.asarray(a, dtype=np.complex128)
    return np.atleast_1d(arr)


def _isfinite(z):
    return np.isfinite(z.real) & np.isfinite(z.imag)


def _compose(level, depth, f, *inputs):
    """Run f <- level(j, f, *inputs) for j = depth, ..., 1; returns (values, status).

    level returns the update and its singular mask.  Points that stop are
    compacted away each level together with their inputs, which stay named
    arrays: numpy may compute a product with a temporary operand in place,
    swapping the operands, and complex multiplication with FMA is not
    bitwise commutative, so gathering inside level would change last bits.
    For the same reason a level writes each product with its temporary
    operand on the left, so its bits do not depend on the batch size.
    """
    values = f.copy()
    status = np.zeros(f.shape, np.int8)
    out_v, out_st = values.reshape(-1), status.reshape(-1)
    finite = np.logical_and.reduce([_isfinite(a) for a in inputs]).ravel()
    out_st[~finite] = NONFINITE
    idx = np.flatnonzero(finite)
    inputs = [a.ravel()[idx] for a in inputs]
    f = out_v[idx]
    with np.errstate(all="ignore"):
        for j in range(depth, 0, -1):
            if not idx.size:
                break
            fn, sing = level(j, f, *inputs)
            stop = sing | (f.real > OVERFLOW_GUARD) | ~_isfinite(fn)
            if stop.any():
                at = idx[stop]
                out_v[at] = f[stop]
                out_st[at] = np.where(sing[stop], SINGULAR, SHORT_CIRCUIT)
                keep = ~stop
                idx, f = idx[keep], fn[keep]
                inputs = [a[keep] for a in inputs]
            else:
                f = fn
    out_v[idx] = f
    return values, status


def _beta_level(j, f, s, rate):
    # past the overflow guard e^x itself would overflow: use e^{f - x}
    x = (j - s) * rate
    big = x.real > OVERFLOW_GUARD
    den = 1.0 + np.exp(x)
    fn = np.exp(f) / den
    if big.any():
        fn[big] = np.exp(f[big] - x[big])
    return fn, ~big & (np.abs(den) < SINGULAR_RADIUS)


def _beta(s, lam, depth):
    """Beta recursion over an array of s; lam=None selects the variable rate
    (1/0 at s = -1, so that point is nonfinite)."""
    s = _as_c128(s)
    with np.errstate(all="ignore"):
        rate = 1.0 / np.sqrt(1.0 + s) if lam is None else np.full(s.shape, complex(lam))
    return _compose(_beta_level, depth, np.zeros(s.shape, np.complex128), s, rate)


def _w(w, lam, depth, f=None):
    """w-coordinate recursion over an array of w, from f (default 0)."""
    w = _as_c128(w)
    lam = complex(lam)

    def level(j, f, w):
        x = lam * j
        if x.real > OVERFLOW_GUARD:
            # e^{lambda j} would overflow: w e^f/(e^x + w) = w e^{f-x}/(1 + w e^{-x})
            return np.exp(f - x) * w / (1.0 + w * np.exp(-x)), np.zeros(f.shape, bool)
        ej = np.exp(x)
        den = ej + w
        return np.exp(f) * w / den, np.abs(den) < SINGULAR_RADIUS * abs(ej)

    f = np.zeros(w.shape, np.complex128) if f is None else np.broadcast_to(f, w.shape)
    return _compose(level, depth, f, w)


def beta_fixed_grid(s, lam, depth):
    """Depth-n fixed-lambda composition over an array of s values.

    Returns (values, status) with the input shape; status-2 elements hold the
    last finite iterate before the overflow guard tripped.
    """
    return _beta(s, lam, int(depth))


def beta_variable_grid(s, depth):
    """Depth-n composition with the drifting exponent (j - s)/sqrt(1 + s)."""
    return _beta(s, None, int(depth))


def g_comp_grid(w, lam, depth):
    """Depth-n w-coordinate composition f <- w e^f/(e^{lambda j} + w)."""
    return _w(w, lam, int(depth))


def available_backends():
    """Kernel backends in this build; numpy is the only one."""
    return [BACKEND]
