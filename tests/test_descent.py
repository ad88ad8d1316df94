"""The pullback descent against a plain-Python per-point oracle of its rules.

The oracle reads the same beta rows as the descent (the stack is the beta
kernel's business, tested in test_kernels.py) and replays the top level and
the level step point by point with cmath, recording the regime each level
took.  Each probe set is confirmed by the oracle to reach every regime of
its mode.
"""

import cmath
import math

import numpy as np
import pytest

from betatet import BetaParams, F_grid, TauConfig, tau, tau_grid
from betatet.errors import NONFINITE, OK, SHORT_CIRCUIT, SINGULAR

LOG2 = math.log(2.0)


def _log(z):
    return complex(-math.inf, 0.0) if z == 0 else cmath.log(z)


def _on_cut(z):
    return (z.real <= 0 and abs(z.imag) <= 1e-12 * abs(z.real)) or abs(z) < 1e-300


def _defect(a, lam):
    rate = 1 / cmath.sqrt(1 + a) if lam is None else lam
    return -_log(1 + cmath.exp(-rate * a))


def oracle(s, j, mode, lam, B, SB):
    """(tau, tau_status, F, F_status, regimes) at one point from its beta rows."""
    def huge(m):
        return SB[m] != OK or abs(B[m]) > 1e8

    seen = set()
    G, status = False, OK
    d = _defect(s + j - 1, lam)
    if mode == "fixed":
        T = d
        seen.add("top defect")
    elif SB[j] == OK and not huge(j - 1):
        T = _log(B[j]) - B[j - 1]
        seen.add("top literal, argument on the cut" if _on_cut(B[j]) else "top literal")
    elif SB[j] == OK and not _on_cut(B[j]):
        T, G = _log(B[j]), True
        seen.add("top G")
    else:
        T = d
        seen.add("top defect")

    for m in range(j - 2, -1, -1):
        if G:
            if _on_cut(T):
                status = SHORT_CIRCUIT
                seen.add("G cut")
                break
            T = _log(T)
            seen.add("G carry")
            continue
        if SB[m + 1] == SHORT_CIRCUIT:
            T = _defect(s + m, lam)
            seen.add("defect")
            continue
        if SB[m + 1] != OK:
            status = SB[m + 1]
            seen.add("beta status")
            break
        w = T / B[m + 1] if B[m + 1] != 0 else math.inf
        if mode == "fixed" and abs(w) <= 0.5:
            T = _defect(s + m, lam) + _log(1 + w)
            seen.add("ratio")
            continue
        z = B[m + 1] + T
        if _on_cut(z):
            status = SHORT_CIRCUIT
            seen.add("cut")
            break
        if huge(m):
            T, G = _log(z), True
            seen.add("G switch")
        else:
            T = _log(z) - B[m]
            seen.add("literal")

    base = status == OK
    own = not base and SB[0] in (SINGULAR, NONFINITE)
    tst = SB[0] if (base and G) or own else status
    fst = SB[0] if base or own else status
    return (T - B[0] if G else T), tst, (T if G else B[0] + T), fst, seen


def _grid(window, shape):
    re = np.linspace(window[0], window[1], shape[0])
    im = np.linspace(window[2], window[3], shape[1])
    return (re[None, :] + 1j * im[:, None]).ravel()


# (params, config, probe points, regimes the oracle must see on them).  The
# real line left of 0 reaches the cut (for variable lambda, near -5.94 the
# carried G does); at s = -1 the variable rate, and so beta(s), is undefined.
_BELOW_TOP = {"literal", "G switch", "G carry", "defect", "cut"}
CASES = {
    "fixed": (BetaParams(lam=LOG2, depth=25), TauConfig(25, 5),
              np.concatenate([_grid((-1.5, 6.0, -5.0, 5.0), (40, 30)), np.linspace(-6, 6, 61),
                              [-8 + 1j * math.pi / LOG2]]),
              _BELOW_TOP | {"ratio", "top defect"}),
    "variable": (BetaParams(lam="variable", depth=25), TauConfig(25, 5, "variable_lambda"),
                 np.concatenate([_grid((-0.35, 3.25, -0.25, 2.05), (96, 62)),
                                 np.linspace(-5.95, -5.9, 11), [-1.0]]),
                 _BELOW_TOP | {"G cut", "top literal", "top literal, argument on the cut",
                               "top G", "top defect"}),
}


def _rows(values, status, i):
    return [complex(v) for v in values[:, i]], [int(c) for c in status[:, i]]


def _close(a, b):
    if not cmath.isfinite(b):
        return not (math.isfinite(a.real) and math.isfinite(a.imag))
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("name", list(CASES))
def test_descent_matches_per_point_oracle(name):
    params, config, pts, regimes = CASES[name]
    mode, lam, B, SB = tau._stacks(params, config, pts)
    tv, ts = tau_grid(params, config, pts)
    fv, fs = F_grid(params, config, pts)
    seen = set()
    for i, s in enumerate(pts):
        ot, ots, of, ofs, took = oracle(complex(s), config.k, mode, lam, *_rows(B, SB, i))
        seen |= took
        assert (ts[i], fs[i]) == (ots, ofs), s
        assert _close(tv[i], ot) and _close(fv[i], of), s
    assert seen >= regimes, regimes - seen
