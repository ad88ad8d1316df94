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
implemented on the branch reaching the real base interval [0, e]: per-point
log/exp reductions onto the interval, then Newton iteration seeded from a
precomputed monotone table.  slog_grid runs Newton on every live target at
once, with one tet_grid call per step on the stencil [s, s+h, s-h]; points
that converge or fail leave the batch.  tet_eval, slog_eval and exp_iter
are grids of one.
"""

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    BranchCut,
    CalibrationFailed,
    raise_for_status,
)
from .tau import F_grid, TauConfig, _on_cut

PROFILES = {
    "default": (8, 5),
    "high": (100, 20),
}

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
        if hi <= lo:
            continue
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
    """(n, k) as given, or the named profile's when either is None."""
    if n is not None and k is not None:
        return n, k
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; use one of {sorted(PROFILES)}") from None


def calibrate(profile="default", n=None, k=None):
    """Locate x0 with F(x0) = 1 and build a TetModel.

    The bracket is found by scanning integer steps on [-5, 10] for a sign
    change of F - 1 where F is real, evaluable, and increasing; bisection
    then runs to double-precision width.
    """
    n, k = _depths(profile, n, k)
    x0 = _bisect(*_bracket(n, k), n, k)

    table_x = np.linspace(-1.0, 1.0, 257)
    tv, ts = _tet_arrays(table_x, x0, n, k)
    if not np.all(ts == OK):
        raise CalibrationFailed("base-interval table not evaluable")
    table_v = tv.real
    if not np.all(np.diff(table_v) > 0):
        raise CalibrationFailed("tetration not increasing on the base interval")
    model = TetModel(x0=x0, n=n, k=k, table_x=table_x, table_v=table_v)
    anchor = abs(complex(tet_eval(model, 0.0)) - 1.0)
    if anchor > 1e-10:
        raise CalibrationFailed(f"|tet(0) - 1| = {anchor:.3g} after bisection")
    return model


def _tet_arrays(Z, x0, n, k):
    """Step-recursion evaluation over an array; returns (values, status).

    The cut test runs first, so -inf is branch_cut; any other non-finite s is
    nonfinite.  Step counts stay floats, so no |Re s| overflows them.  One
    loop steps exp right of the strip and log left of it, and ends once no
    point is live: exp stops at the overflow guard, log at the cut or once a
    step leaves the value unchanged (log's fixed point).
    """
    Z = np.atleast_1d(np.asarray(Z, np.complex128))
    status = np.zeros(Z.shape, np.int8)
    # distance to the cut (-inf, -2]
    on_tail = Z.real <= -2.0
    dist = np.where(on_tail, np.abs(Z.imag), np.abs(Z - (-2.0)))
    status[dist < _CUT_DIST] = BRANCH_CUT
    status[(status == OK) & ~(np.isfinite(Z.real) & np.isfinite(Z.imag))] = NONFINITE
    steps = np.where(status == OK, np.ceil(Z.real), 0.0)
    base = Z - steps + x0
    vals, fst = _f_line(base.ravel(), n, k)
    vals = vals.reshape(Z.shape)
    status = np.where(status == OK, fst.reshape(Z.shape), status)
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
    return vals, status


def tet_grid(model, Z):
    """Vectorized tetration; returns (values, status) with the input shape."""
    Z = np.asarray(Z, np.complex128)
    shape = Z.shape if Z.shape else (1,)
    return _tet_arrays(Z.reshape(shape), model.x0, model.n, model.k)


def _raise_for_tet(code, s):
    if code == BRANCH_CUT:
        raise BranchCut(f"s={s} within {_CUT_DIST:g} of the cut (-inf, -2]")
    raise_for_status(code, f"tet({s})")


def tet_eval(model, s):
    """Scalar tetration: tet_grid of one; raises BranchCut / ShortCircuit on failure."""
    v, st = tet_grid(model, complex(s))
    _raise_for_tet(int(st[0]), s)
    return complex(v[0])


_NEWTON_STEPS = 100
_NEWTON_H = 1e-6
_REDUCE_MAX = 64


def _reduce(z):
    """exp/log steps onto the real base interval [0, e]: (target, shift) or None."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return None
    shift = 0
    for _ in range(_REDUCE_MAX):
        if abs(z.imag) < 1e-12 and 0.0 <= z.real <= _E + 1e-12:
            return z.real, shift
        if abs(z) > _E:
            z = cmath.log(z)
            shift += 1
        elif abs(z.imag) < 1e-12 and z.real < 0.0:
            z = cmath.exp(z)
            shift -= 1
        else:
            return None
    return None


def slog_grid(model, Z):
    """Inverse of tet on the branch through the real base interval [0, e].

    Reductions: slog(z) = slog(log z) + 1 for |z| > e and
    slog(z) = slog(e^z) - 1 for real z below the interval; a point that does
    not reach the interval gets DOMAIN.  Inside, Newton iteration on tet is
    seeded from the calibration table and runs on all live targets at once:
    each step makes one tet_grid call on [s, s+h, s-h].  A failure status at
    a Newton point is carried through; a flat or non-finite derivative, or
    an exhausted step budget, gets NO_CONVERGENCE.  Returns (values, status)
    with the input shape.
    """
    Z = np.asarray(Z, np.complex128)
    flat = Z.ravel()
    values = np.full(flat.shape, np.nan, np.complex128)
    status = np.full(flat.shape, DOMAIN, np.int8)
    idx, target, shift = [], [], []
    for i, z in enumerate(flat.tolist()):
        reduced = _reduce(z)
        if reduced is not None:
            idx.append(i)
            target.append(reduced[0])
            shift.append(reduced[1])
    idx = np.array(idx, np.intp)
    target = np.array(target, np.float64)
    shift = np.array(shift, np.int64)
    tol = 1e-12 * np.maximum(1.0, np.abs(target))
    sg = np.interp(target, model.table_v, model.table_x)
    status[idx] = NO_CONVERGENCE        # kept by targets still live when the budget ends
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            m = idx.size
            if not m:
                break
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
            flat_d = live & ((d == 0.0) | ~np.isfinite(d))
            code[flat_d] = NO_CONVERGENCE
            live &= ~flat_d
            status[idx[~live]] = code[~live]
            sg = sg[live] - err[live] / d[live]
            idx, target, shift, tol = idx[live], target[live], shift[live], tol[live]
    return values.reshape(Z.shape), status.reshape(Z.shape)


def slog_eval(model, z):
    """Scalar slog: slog_grid on one point; raises DomainError / NoConvergence
    or the signal of a failed tet evaluation."""
    v, st = slog_grid(model, complex(z))
    raise_for_status(int(st), f"slog({z})")
    return complex(v)


def exp_iter(model, s, z):
    """Fractional iteration exp o^s (z) = tet(s + slog(z))."""
    w = complex(s) + slog_eval(model, z)
    v, st = tet_grid(model, w)
    _raise_for_tet(int(st[0]), w)
    return complex(v[0])


class ScanResult(NamedTuple):
    all_positive: bool
    min_derivative: float
    truncated_at: float | None

    def __bool__(self):
        return self.all_positive


def derivative_positivity_scan(model, lo=-1.9, hi=3.0, step=0.05):
    """Central-difference derivative of tet > 0 at every real grid point.

    A ShortCircuit truncates the scan; the result records where.
    """
    h = 1e-4
    xs = np.arange(lo, hi + step * 0.5, step)
    vp, sp = tet_grid(model, xs + h)
    vm, sm = tet_grid(model, xs - h)
    good = (sp == OK) & (sm == OK)
    truncated_at = None
    if not good.all():
        first_bad = int(np.argmin(good))
        truncated_at = float(xs[first_bad])
        xs, vp, vm = xs[:first_bad], vp[:first_bad], vm[:first_bad]
    if xs.size == 0:
        return ScanResult(False, math.nan, truncated_at)
    deriv = (vp.real - vm.real) / (2 * h)
    return ScanResult(bool((deriv > 0).all()), float(deriv.min()), truncated_at)


_MODEL_CACHE = {}


def get_model(profile="default", n=None, k=None):
    """Calibrate once per resolved depth profile (n, k) and cache the model."""
    n, k = _depths(profile, n, k)
    if (n, k) not in _MODEL_CACHE:
        _MODEL_CACHE[n, k] = calibrate(n=n, k=k)
    return _MODEL_CACHE[n, k]
