"""Normalized tetration, its inverse, and fractional exponential iteration.

The variable-exponent F is real and increasing on part of the positive real
axis; calibration locates the shift x0 with F(x0) = 1 by bisection.  The
normalized function is then evaluated by a step recursion anchored to the
base strip Re(s) in (-1, 0]:

    tet(s) = F(s + x0)            Re(s) in (-1, 0]
    tet(s) = e^{tet(s-1)}         Re(s) > 0
    tet(s) = log(tet(s+1))        Re(s) <= -1, principal branch

so tet(0) = 1, tet(1) = e, tet(-1) = 0 hold to calibration accuracy and
tet(s+1) = e^{tet(s)} holds exactly by construction.  The inverse slog is
implemented on the branch reaching the real base interval [0, e]: masked
log/exp steps reduce the whole input onto the interval, then Newton runs on
every live target at once from a precomputed monotone table, with one
tet_grid call per step on the stencil [s, s+h, s-h].  Points that converge
or fail leave the batch; a step that does not halve a residual fails its
target, so Newton needs no step budget.  tet_grid is the one tet evaluator:
calibration evaluates its slog table with it, and tet_eval, slog_eval and
exp_iter = tet_eval(s + slog z) are grids called on a 0-d point, since every
grid returns its input's shape.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .beta import VARIABLE, BetaParams
from .errors import (
    BRANCH_CUT,
    DOMAIN,
    NO_CONVERGENCE,
    NONFINITE,
    OK,
    SHORT_CIRCUIT,
    OVERFLOW_GUARD,
    CalibrationFailed,
    scalar,
)
from .tau import F_grid, TauConfig, _on_cut

PROFILES = {"default": (25, 5), "high": (100, 20)}

_SCAN_LO, _SCAN_HI = -5, 10
_BISECT_LEVELS = 5
_CUT_DIST = 1e-9
_E = math.e


@dataclass(frozen=True, eq=False)
class TetModel:
    """Calibrated tetration: normalization shift, depth profile, slog table."""

    x0: float
    n: int
    k: int
    table_x: np.ndarray = None
    table_v: np.ndarray = None

    @property
    def config(self):
        return TauConfig(n=self.n, k=self.k)

    @property
    def params(self):
        return BetaParams(lam=VARIABLE, depth=self.n)


def _f_line(xs, n, k):
    return F_grid(BetaParams(lam=VARIABLE, depth=n), TauConfig(n=n, k=k),
                  np.asarray(xs, np.complex128))


def _bracket(n, k):
    """Integer bracket of F(x) = 1 where F is real, evaluable and increasing."""
    xs = np.arange(float(_SCAN_LO), float(_SCAN_HI) + 0.5)
    Fv, st = _f_line(xs, n, k)
    for i in range(len(xs) - 1):
        if st[i] != OK or st[i + 1] != OK:
            continue
        if abs(Fv[i].imag) > 1e-9 or abs(Fv[i + 1].imag) > 1e-9:
            continue
        lo, hi = Fv[i].real, Fv[i + 1].real
        if (lo - 1.0) < 0 <= (hi - 1.0):
            return float(xs[i]), float(xs[i + 1])
    raise CalibrationFailed(
        f"no increasing real bracket of F(x)=1 on [{_SCAN_LO}, {_SCAN_HI}] "
        f"at depth profile n={n}, k={k}")


def _bisect(lo, hi, n, k):
    """Bisect F(x) = 1 on [lo, hi] until the midpoint is an endpoint.

    Each F call evaluates the whole tree of the next _BISECT_LEVELS
    midpoints, in heap order, each formed from its bracket as a one-point
    bisection would form it; only the path the bisection walks is checked.
    F bits do not depend on the batch size, so x0 is the one-point result.
    """
    for _ in range(80 // _BISECT_LEVELS):
        mids, brackets = [], [(lo, hi)]
        for _ in range(_BISECT_LEVELS):
            mids += [0.5 * (a + b) for a, b in brackets]
            brackets = [half for (a, b), m in zip(brackets, mids[-len(brackets):])
                        for half in ((a, m), (m, b))]
        fm, sm = _f_line(mids, n, k)
        node = 0
        for _ in range(_BISECT_LEVELS):
            mid = mids[node]
            if not lo < mid < hi:
                return mid          # adjacent doubles: the bracket is final
            if sm[node] != OK:
                raise CalibrationFailed(f"F not evaluable at bisection point {mid}")
            if fm[node].real - 1.0 < 0:
                lo, node = mid, 2 * node + 2
            else:
                hi, node = mid, 2 * node + 1
    return 0.5 * (lo + hi)


def _depths(profile, n, k):
    """(n, k) if both are given, else the named profile's pair; one alone is an error."""
    if (n is None) != (k is None) or (n is None and profile not in PROFILES):
        raise ValueError(f"give a profile of {sorted(PROFILES)} or both depths n and k; "
                         f"got profile={profile!r}, n={n}, k={k}")
    return PROFILES[profile] if n is None else (n, k)


def calibrate(profile="default", n=None, k=None):
    """Locate x0 with F(x0) = 1 and build a TetModel.

    The bracket is found by scanning integer steps on [-5, 10] for a sign
    change of F - 1 where F is real, evaluable, and increasing; bisection
    then runs to double-precision width.  The depths are (n, k) if both are
    given, else the profile's.  The slog table is tet_grid of the model on [-1, 1].
    """
    n, k = _depths(profile, n, k)
    model = TetModel(x0=_bisect(*_bracket(n, k), n, k), n=n, k=k)
    table_x = np.linspace(-1.0, 1.0, 257)
    tv, ts = tet_grid(model, table_x)
    if not np.all(ts == OK):
        raise CalibrationFailed("base-interval table not evaluable")
    table_v = tv.real
    if not np.all(np.diff(table_v) > 0):
        raise CalibrationFailed("tetration not increasing on the base interval")
    model = replace(model, table_x=table_x, table_v=table_v)
    anchor = abs(table_v[128] - 1.0)     # table_x[128] is 0.0
    if anchor > 1e-10:
        raise CalibrationFailed(f"|tet(0) - 1| = {anchor:.3g} after bisection")
    return model


def _distinct(z, steps):
    """(first, inverse): z[first] holds each distinct bit pattern of z once, and
    z[first][inverse] is z.

    Bits, not values, are compared, so +0.0 and -0.0 parts (which take
    different sides of sqrt and log) and NaN payloads are never merged.  The
    repeats that the strip reduction z = s - steps + x0 makes need different
    step counts, so a batch with one step count, one point included, is not
    sorted.  Both indices are the whole array there and where no bit
    pattern repeats.
    """
    if np.all(steps == steps[:1]):
        return slice(None), slice(None)
    re, im = z.view(np.int64).reshape(-1, 2).T
    order = np.lexsort((im, re))
    re, im = re[order], im[order]
    new = np.ones(z.size, bool)
    new[1:] = (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    if new.all():
        return slice(None), slice(None)
    inverse = np.empty(z.size, np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def tet_grid(model, Z):
    """Step-recursion tetration; returns (values, status) with the input shape.

    The cut test runs first, so -inf is branch_cut; any other non-finite s is
    nonfinite.  Step counts stay floats, so no |Re s| overflows them.

    F runs once per distinct bit pattern of the strip points s - steps + x0,
    and its values and statuses are scattered back.  F's bits do not depend
    on the batch, so this is exact.  A window with a whole number of pixels
    per unit period repeats each strip point across periods: the 144 x 92
    render over 3.6 units asks F for about half its pixels, and the
    800 x 800 render of [-1, 1]^2 for 392,000 of 640,000.  Any other window
    has no repeats and pays only the sort, about 0.5 ms for 20,000 points.

    One loop steps exp right of the strip and log left of it, and ends once no
    point is live: exp stops at the overflow guard, log at the cut or once a
    step leaves the value unchanged (log's fixed point).  The loop runs on
    the flattened input, whose masks take item assignment even for one point.
    """
    Z = np.asarray(Z, np.complex128)
    shape, Z = Z.shape, Z.ravel()
    status = np.zeros(Z.shape, np.int8)
    # distance to the cut (-inf, -2]
    on_tail = Z.real <= -2.0
    dist = np.where(on_tail, np.abs(Z.imag), np.abs(Z - (-2.0)))
    status[dist < _CUT_DIST] = BRANCH_CUT
    status[(status == OK) & ~(np.isfinite(Z.real) & np.isfinite(Z.imag))] = NONFINITE
    steps = np.where(status == OK, np.ceil(Z.real), 0.0)
    sf = Z - steps + model.x0
    first, inverse = _distinct(sf, steps)
    vals, fst = _f_line(sf[first], model.n, model.k)
    vals, fst = vals[inverse], fst[inverse]
    status = np.where(status == OK, fst, status)
    with np.errstate(all="ignore"):
        live = (steps != 0) & (status == OK)
        for step in itertools.count(1):
            live &= np.abs(steps) >= step
            if not live.any():
                break
            up = live & (steps > 0)
            stop = np.where(up, vals.real > OVERFLOW_GUARD, _on_cut(vals))
            status[live & stop] = SHORT_CIRCUIT
            live &= ~stop
            up &= live
            down = live & ~up
            vals[up] = np.exp(vals[up])
            old = vals[down]
            new = np.log(old)
            vals[down] = new
            live[down] = new != old
    return vals.reshape(shape), status.reshape(shape)


def tet_eval(model, s):
    """Scalar tetration: tet_grid of one, raising the signal of its status
    (BranchCut within 1e-9 of the cut (-inf, -2], ShortCircuit, ...)."""
    return scalar(tet_grid(model, complex(s)), f"tet({s})")


_NEWTON_H = 1e-6
_REDUCE_MAX = 64


def _in_interval(z):
    return (np.abs(z.imag) < 1e-12) & (0.0 <= z.real) & (z.real <= _E + 1e-12)


def slog_grid(model, Z):
    """Inverse of tet on the branch through the real base interval [0, e].

    Reductions run as masked steps over the whole input: slog(z) = slog(log z)
    + 1 for |z| > e and slog(z) = slog(e^z) - 1 for real z below the interval;
    a point not on the interval after 64 steps gets DOMAIN.  Inside, Newton
    iteration on tet is seeded from the calibration table and runs on all
    live targets at once, one tet_grid call on [s, s+h, s-h] per step.  A
    failure status at a Newton point is carried through; a flat or non-finite
    derivative, or a residual above half the previous one, gets
    NO_CONVERGENCE.  Returns (values, status) with the input shape.
    """
    Z = np.asarray(Z, np.complex128)
    z, shift = Z.ravel(), np.zeros(Z.size, np.int64)
    live = np.isfinite(z.real) & np.isfinite(z.imag)
    with np.errstate(all="ignore"):
        for _ in range(_REDUCE_MAX):
            live &= ~_in_interval(z)
            up = live & (np.abs(z) > _E)
            down = live & ~up & (np.abs(z.imag) < 1e-12) & (z.real < 0.0)
            live = up | down
            if not live.any():
                break
            z = np.where(up, np.log(z), np.where(down, np.exp(z), z))
            shift = shift + up - down
    idx = np.flatnonzero(_in_interval(z) & ~live)
    values = np.full(z.shape, np.nan, np.complex128)
    status = np.full(z.shape, DOMAIN, np.int8)
    target, shift, last = z.real[idx], shift[idx], np.full(idx.shape, np.inf)
    tol = 1e-12 * np.maximum(1.0, np.abs(target))
    sg = np.interp(target, model.table_v, model.table_x)
    with np.errstate(all="ignore"):
        # halving from |err| <= e reaches any tol >= 1e-12 within 42 steps: no budget
        while m := idx.size:
            v, st = tet_grid(model, np.concatenate([sg, sg + _NEWTON_H, sg - _NEWTON_H]))
            v = v.real
            err = v[:m] - target
            code = st[:m].copy()
            done = (code == OK) & (np.abs(err) < tol)
            values[idx[done]] = sg[done] + shift[done]
            live = (code == OK) & ~done
            for stencil in (st[m:2 * m], st[2 * m:]):
                bad = live & (stencil != OK)
                code[bad] = stencil[bad]
                live &= ~bad
            d = (v[m:2 * m] - v[2 * m:]) / (2 * _NEWTON_H)
            stuck = live & ((d == 0.0) | ~np.isfinite(d) | (np.abs(err) > 0.5 * last))
            code[stuck] = NO_CONVERGENCE
            live &= ~stuck
            status[idx[~live]] = code[~live]
            sg = sg[live] - err[live] / d[live]
            idx, target, shift, tol, last = (
                idx[live], target[live], shift[live], tol[live], np.abs(err[live]))
    return values.reshape(Z.shape), status.reshape(Z.shape)


def slog_eval(model, z):
    """Scalar slog: slog_grid of one, raising the signal of its status
    (DomainError, NoConvergence, or that of a failed tet evaluation)."""
    return scalar(slog_grid(model, complex(z)), f"slog({z})")


def exp_iter(model, s, z):
    """Fractional iteration exp o^s (z) = tet(s + slog(z))."""
    return tet_eval(model, complex(s) + slog_eval(model, z))


_MODEL_CACHE = {}


def get_model(profile="default", n=None, k=None):
    """Calibrate once per depth pair and cache the model; arguments as in calibrate."""
    n, k = _depths(profile, n, k)
    if (n, k) not in _MODEL_CACHE:
        _MODEL_CACHE[n, k] = calibrate(n=n, k=k)
    return _MODEL_CACHE[n, k]
