"""Hot composition kernels, vectorized with numpy.

Both recursions of the map family run on one compacting loop, `_compose`,
which evaluates a depth-n truncation innermost term first, j = n, ..., 1.
The beta kernel steps

    f <- e^f / (1 + e^{x_j}),   x_j = rate (j - s),   from f = 0,

where the rate is lambda for the fixed family and 1/sqrt(1 + s) for the
variable one.  The w-coordinate kernel steps f <- w e^f / (e^{lambda j} + w),
the same map under w = e^{lambda s}; g_eval runs it from its Taylor value.
Both can return the iterates of the last few levels as rows: for fixed
lambda those are the pullback stack beta(s + m), one run for all rows.

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


def _compose(level, depth, f, *inputs, rows=None):
    """Run f <- level(j, f, *inputs) for j = depth, ..., 1; returns (values, status).

    With rows, values and status gain a leading axis of that length: row m
    holds the iterate after level rows - m, so the last row is the result.
    A point that stops fills the rows not yet written with its kept iterate
    and stop status.

    level returns the update and its singular mask.  Points that stop are
    compacted away each level together with their inputs, which stay named
    arrays: numpy may compute a product with a temporary operand in place,
    swapping the operands, and complex multiplication with FMA is not
    bitwise commutative, so gathering inside level would change last bits.
    For the same reason a level writes each product with its temporary
    operand on the left, so its bits do not depend on the batch size.
    """
    shape = f.shape if rows is None else (rows, *f.shape)
    count = 1 if rows is None else rows
    values = np.repeat(f.reshape(1, -1), count, axis=0)
    status = np.zeros(values.shape, np.int8)
    finite = np.logical_and.reduce([_isfinite(a) for a in inputs]).ravel()
    status[:, ~finite] = NONFINITE
    idx = np.flatnonzero(finite)
    inputs = [a.ravel()[idx] for a in inputs]
    f = values[0, idx]
    with np.errstate(all="ignore"):
        for j in range(depth, 0, -1):
            if not idx.size:
                break
            fn, sing = level(j, f, *inputs)
            stop = sing | (f.real > OVERFLOW_GUARD) | ~_isfinite(fn)
            if stop.any():
                at, first = idx[stop], max(count - j, 0)
                values[first:, at] = f[stop]
                status[first:, at] = np.where(sing[stop], SINGULAR, SHORT_CIRCUIT)
                keep = ~stop
                idx, f = idx[keep], fn[keep]
                inputs = [a[keep] for a in inputs]
            else:
                f = fn
            if j <= count:
                values[count - j, idx] = f
    return values.reshape(shape), status.reshape(shape)


def _beta_level(j, f, s, rate):
    # past the overflow guard e^x itself would overflow: use e^{f - x}
    x = (j - s) * rate
    big = x.real > OVERFLOW_GUARD
    den = 1.0 + np.exp(x)
    fn = np.exp(f) / den
    if big.any():
        fn[big] = np.exp(f[big] - x[big])
    return fn, ~big & (np.abs(den) < SINGULAR_RADIUS)


def _beta(s, lam, depth, rows=None):
    """Beta recursion over an array of s; lam=None selects the variable rate
    (1/0 at s = -1, so that point is nonfinite)."""
    s = _as_c128(s)
    with np.errstate(all="ignore"):
        rate = 1.0 / np.sqrt(1.0 + s) if lam is None else np.full(s.shape, complex(lam))
    return _compose(_beta_level, depth, np.zeros(s.shape, np.complex128), s, rate, rows=rows)


def _w(w, lam, depth, f=None, rows=None):
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
    return _compose(level, depth, f, w, rows=rows)


def beta_fixed_grid(s, lam, depth, rows=None):
    """Depth-n fixed-lambda composition over an array of s values.

    Returns (values, status) with the input shape; status-2 elements hold the
    last finite iterate before the overflow guard tripped.  With rows, the
    iterates after levels rows, ..., 1 come as a leading axis: a level at s
    is the level one lower at s - 1, so row m is beta at depth
    n - rows + 1 + m and at s - rows + 1 + m, and each row is one level
    applied to the row before.
    """
    return _beta(s, lam, int(depth), rows)


def beta_variable_grid(s, depth):
    """Depth-n composition with the drifting exponent (j - s)/sqrt(1 + s)."""
    return _beta(s, None, int(depth))


def g_comp_grid(w, lam, depth):
    """Depth-n w-coordinate composition f <- w e^f/(e^{lambda j} + w)."""
    return _w(w, lam, int(depth))


def available_backends():
    """Kernel backends in this build; numpy is the only one."""
    return [BACKEND]
