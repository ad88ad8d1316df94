"""Hot composition kernels, vectorized with numpy.

The beta kernel evaluates depth-n truncations of the nested map

    f <- e^f / (1 + e^{x_j}),   j = n, n-1, ..., 1

innermost term first, starting from f = 0, with the per-point exponent
x_j = rate (j - s).  The rate is lambda for the fixed family and
1/sqrt(1 + s) for the variable one, so both families share one loop.  The
w-coordinate kernel uses f <- w e^f / (e^{lambda j} + w).

Every kernel applies the same guards to each point, in this order: singular
denominator, then overflow guard, then non-finite update.  A point stops at
the first guard it trips and keeps its last finite iterate.
"""

import numpy as np

from .errors import NONFINITE, OVERFLOW_GUARD, SHORT_CIRCUIT, SINGULAR, SINGULAR_RADIUS

BACKEND = "numpy"


def _as_c128(a):
    arr = np.asarray(a, dtype=np.complex128)
    return np.atleast_1d(arr)


def _isfinite(z):
    return np.isfinite(z.real) & np.isfinite(z.imag)


def _beta(s, lam, depth):
    """Beta recursion over an array of s; lam=None selects the variable rate.

    A non-finite s or rate (the variable rate is 1/0 at s = -1) gets the
    nonfinite status before the first level.  Finished points are compacted
    away each level, and the e^{f - x} branch (used where Re x passes the
    overflow guard, since e^x itself would overflow) runs only when a live
    point needs it.
    """
    s = _as_c128(s)
    with np.errstate(all="ignore"):
        rate = 1.0 / np.sqrt(1.0 + s) if lam is None else np.full(s.shape, complex(lam))
    values = np.zeros(s.shape, np.complex128)
    status = np.zeros(s.shape, np.int8)
    out_v, out_st = values.reshape(-1), status.reshape(-1)
    finite = (_isfinite(s) & _isfinite(rate)).ravel()
    out_st[~finite] = NONFINITE
    idx = np.flatnonzero(finite)
    sl, rl = s.ravel()[idx], rate.ravel()[idx]
    f = np.zeros(idx.size, np.complex128)
    with np.errstate(all="ignore"):
        for j in range(depth, 0, -1):
            if not idx.size:
                break
            x = rl * (j - sl)
            big = x.real > OVERFLOW_GUARD
            den = 1.0 + np.exp(x)
            sing = ~big & (np.abs(den) < SINGULAR_RADIUS)
            ovf = f.real > OVERFLOW_GUARD
            fn = np.exp(f) / den
            if big.any():
                fn[big] = np.exp(f[big] - x[big])
            stop = sing | ovf | ~_isfinite(fn)
            if stop.any():
                at = idx[stop]
                out_v[at] = f[stop]
                out_st[at] = np.where(sing[stop], SINGULAR, SHORT_CIRCUIT)
                keep = ~stop
                idx, sl, rl, f = idx[keep], sl[keep], rl[keep], fn[keep]
            else:
                f = fn
    out_v[idx] = f
    return values, status


def _g_comp_np(w, lam, depth):
    f = np.zeros(w.shape, np.complex128)
    status = np.zeros(w.shape, np.int8)
    active = np.isfinite(w.real) & np.isfinite(w.imag)
    status[~active] = 3
    with np.errstate(all="ignore"):
        for j in range(depth, 0, -1):
            x = lam * j
            big = x.real > OVERFLOW_GUARD
            if big:
                ovf = active & (f.real > OVERFLOW_GUARD)
                status[ovf] = 2
                active &= ~ovf
                fn = w * np.exp(f - x)
            else:
                ej = np.exp(x)
                den = ej + w
                sing = active & (np.abs(den) < SINGULAR_RADIUS * abs(ej))
                status[sing] = 1
                active &= ~sing
                ovf = active & (f.real > OVERFLOW_GUARD)
                status[ovf] = 2
                active &= ~ovf
                fn = w * np.exp(f) / den
            bad = active & ~(np.isfinite(fn.real) & np.isfinite(fn.imag))
            status[bad] = 2
            active &= ~bad
            f = np.where(active, fn, f)
    return f, status


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
    return _g_comp_np(_as_c128(w), complex(lam), int(depth))


def available_backends():
    """Kernel backends in this build; numpy is the only one."""
    return [BACKEND]
