import cmath
import functools
import math

import mpmath
import numpy as np
import pytest

from betatet import (
    BetaParams,
    DomainError,
    ShortCircuit,
    SingularPoint,
    beta_grid,
    f_eval,
    g_eval,
    taylor_coefficients,
)
from betatet._kernels import g_comp_grid
from betatet.acceptance import _taylor_oracle
from betatet.beta import _PUSH_COND_MAX, _g_points, f_grid, g_grid
from betatet.errors import _STATUS_EXC, DOMAIN, NONFINITE, OK, SHORT_CIRCUIT, SINGULAR
from betatet.render import _evaluate_fn

LOG2 = math.log(2.0)


def test_a0_zero():
    for lam in (LOG2, 1.0, 0.5 + 3j):
        assert taylor_coefficients(lam, 4).coefficients[0] == 0


def test_a1_closed_form():
    series = taylor_coefficients(LOG2, 1)
    assert abs(series.coefficients[1] - 0.5) < 1e-15
    series = taylor_coefficients(1.0, 1)
    assert abs(series.coefficients[1] - math.exp(-1.0)) < 1e-15


@pytest.mark.parametrize("lam", [LOG2, 1.0])
def test_recursion_matches_derivative_oracle(lam):
    series = taylor_coefficients(lam, 6)
    oracle = _taylor_oracle(lam, 6)
    rel = np.abs(series.monomial[1:7] - oracle[1:7]) / np.abs(oracle[1:7])
    assert rel.max() < 1e-6


def test_radius_exact():
    assert taylor_coefficients(LOG2, 2).radius == math.exp(LOG2)
    assert taylor_coefficients(0.5 + 3j, 2).radius == math.exp(0.5)


def test_large_k_overflow_signalled():
    with pytest.raises(ShortCircuit):
        taylor_coefficients(LOG2, 400)
    # 170! is a double, but at lambda = 0.01 a_k = g^(k)(0) leaves double range
    # before k = 170: the check after the recursion raises, not the K > 170 guard
    with pytest.raises(ShortCircuit, match="before K=170"):
        taylor_coefficients(0.01, 170)


def test_validation():
    with pytest.raises(ValueError):
        taylor_coefficients(-0.5, 4)
    with pytest.raises(ValueError):
        taylor_coefficients(LOG2, -1)
    # K is read like every other depth: a float, even an integral one, is refused
    for K in (5.0, 2.5, "5"):
        with pytest.raises(ValueError, match="K must be an integer"):
            taylor_coefficients(LOG2, K)
    # inf used to give zero coefficients, and nan a misleading overflow signal
    for lam in (math.inf, math.nan, complex(1, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            taylor_coefficients(lam, 3)
        with pytest.raises(ValueError, match="finite"):
            g_grid(lam, np.array([0.5]))
    # a string is no lambda, though complex() reads "0.69": every reader of a
    # fixed lambda refuses it, as BetaParams does
    for lam in ("0.69", "1+2j"):
        for call in (lambda: taylor_coefficients(lam, 2), lambda: g_grid(lam, 0.1),
                     lambda: f_grid(lam, 10.0), lambda: g_eval(lam, 0.1),
                     lambda: BetaParams(lam=lam)):
            with pytest.raises(ValueError, match="lam"):
                call()


def test_g_at_zero():
    assert g_eval(LOG2, 0.0) == 0
    assert g_eval(0.5 + 3j, 0.0) == 0


def test_g_matches_beta_change_of_variables():
    params = BetaParams(lam=LOG2, depth=100)
    w = 0.1
    s = cmath.log(w) / LOG2
    ref, st = beta_grid(params, np.array([s]))
    assert st[0] == OK
    assert abs(g_eval(LOG2, w) - ref[0]) < 1e-9


@pytest.mark.parametrize("w", [0.1, 0.1 + 0.05j, -0.2 + 0.1j])
def test_g_functional_equation(w):
    lhs = g_eval(LOG2, 2 * w) * (w + 1) / w
    rhs = cmath.exp(g_eval(LOG2, w))
    assert abs(lhs - rhs) < 1e-9


def test_g_continuation_consistency():
    # outside the Taylor disk the scaling-law continuation must agree with
    # the direct composition and with beta at the matching point
    params = BetaParams(lam=LOG2, depth=100)
    ref, _ = beta_grid(params, np.array([1.0]))
    assert abs(g_eval(LOG2, 2.0) - ref[0]) < 1e-10


def test_g_matches_depth_composition():
    lam = LOG2
    vals, st = g_comp_grid(np.array([0.1, 0.4 + 0.2j, -0.3]), lam, 100)
    assert np.all(st == OK)
    for w, v in zip([0.1, 0.4 + 0.2j, -0.3], vals):
        assert abs(g_eval(lam, w) - v) < 1e-9


def test_g_singular_point():
    with pytest.raises(SingularPoint):
        g_eval(LOG2, -2.0)  # the first excluded point -e^{lambda}


def test_g_short_circuit_keeps_last_value():
    # the grid keeps the push-out's last finite value; g_eval raises its status
    value, status = g_grid(LOG2, 50.0)
    assert status == SHORT_CIRCUIT and cmath.isfinite(value)
    with pytest.raises(ShortCircuit):
        g_eval(LOG2, 50.0)


def test_g_ill_conditioned_push_out_raises():
    # 159 push-out levels magnify rounding by ~7e14; the value used to
    # come back 0.26 relative from a 60-digit push-out of the same Taylor value
    _, status, cond = _g_points(0.05, 76.66 + 1035.67j)
    assert status == SHORT_CIRCUIT and cond > _PUSH_COND_MAX
    with pytest.raises(ShortCircuit):
        g_eval(0.05, 76.66 + 1035.67j)


def test_g_well_conditioned_bits_unchanged():
    assert g_eval(LOG2, 3.0) == complex(float.fromhex("0x1.15d3de6056e2ap+0"), 0.0)


def test_f_is_reciprocal_of_g():
    assert f_eval(LOG2, 10.0) == g_eval(LOG2, 0.1)


def test_f_functional_equation():
    w = 0.5
    lhs = f_eval(LOG2, math.exp(-LOG2) * w) * (1 + w)
    rhs = cmath.exp(f_eval(LOG2, w))
    assert abs(lhs - rhs) < 1e-8


def test_f_vanishes_at_infinity():
    val = f_eval(LOG2, 1e6)
    assert abs(val) < 1e-5
    assert abs(val - g_eval(LOG2, 1e-6)) == 0.0


def test_f_zero_rejected():
    with pytest.raises(DomainError):
        f_eval(LOG2, 0.0)


def test_g_variable_params_rejected():
    with pytest.raises(ValueError):
        g_eval("variable", 0.1)


SPECIAL_W = [0, 50, complex("nan"), complex("inf"), 76.66 + 1035.67j]


def seeded_w(rng, count):
    """|w| log-uniform on [1e-3, 3e3], argument uniform."""
    return (np.exp(rng.uniform(math.log(1e-3), math.log(3e3), count))
            * np.exp(1j * rng.uniform(-math.pi, math.pi, count)))


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def test_scalar_is_grid_of_one():
    # g_eval / f_eval return the grid's bits where it says ok and raise the
    # class of its status elsewhere, whatever the batch around the point
    rng = np.random.default_rng(2024)
    seen = set()
    for lam in (0.05, LOG2, 1.0, 0.5 + 3j, 0.3 + 0.1j):
        w = np.concatenate([seeded_w(rng, 410), SPECIAL_W, [-cmath.exp(lam)]])
        for grid, scalar in ((g_grid, g_eval), (f_grid, f_eval)):
            values, status = grid(lam, w)
            for z, v, st in zip(w, values, status):
                seen.add(int(st))
                if st == OK:
                    assert bits(scalar(lam, z)) == bits(v), (lam, z)
                else:
                    with pytest.raises(_STATUS_EXC[st]):
                        scalar(lam, z)
    assert seen == {OK, SINGULAR, SHORT_CIRCUIT, NONFINITE, DOMAIN}


def test_render_rejects_ill_conditioned_push_out():
    # the documented point was 0.43 relative from a 60-digit value at depth
    # 400, with status ok; g and f no longer take a depth
    w = np.array([76.66 + 1035.67j])
    for fn, z in (("g", w), ("f", 1.0 / w)):
        _, st = _evaluate_fn(fn, 0.05, 400, 5, z)
        assert st[0] == SHORT_CIRCUIT, fn
    z = seeded_w(np.random.default_rng(9), 200)
    for fn in ("g", "f"):
        a, sa = _evaluate_fn(fn, LOG2, 400, 5, z)
        b, sb = _evaluate_fn(fn, LOG2, 3, 5, z)
        assert np.array_equal(sa, sb) and a[sa == OK].tobytes() == b[sb == OK].tobytes()


@functools.lru_cache(maxsize=None)
def mp_monomials(lam, terms=80):
    """a_k / k! of g at 30 digits, from the recursion taylor_coefficients uses."""
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.mpc(lam))
        a = [mpmath.mpc(0)] * (terms + 1)
        b = [mpmath.mpc(1)] + [mpmath.mpc(0)] * terms
        for k in range(1, terms + 1):
            alt = mpmath.fsum((-1) ** c * b[c] for c in range(k))
            a[k] = q ** k * (-1) ** (k + 1) * alt
            b[k] = mpmath.fsum((k - d) * b[d] * a[k - d] for d in range(k)) / k
        return a


def mp_taylor_push_out(lam, w):
    """g(w) at 30 digits: 80 Taylor terms at the pulled-in point, pushed out
    through g(e^lambda w) = (w/(w+1)) e^{g(w)} one level per pull."""
    a = mp_monomials(lam)
    with mpmath.workdps(30):
        lam, w = mpmath.mpc(lam), mpmath.mpc(w)
        wi, pulls = w, 0
        while abs(wi) > mpmath.mpf("0.35") * mpmath.exp(lam.real):
            wi, pulls = wi / mpmath.exp(lam), pulls + 1
        f = mpmath.polyval(a[::-1], wi)
        for j in range(pulls, 0, -1):
            f = w * mpmath.exp(f) / (mpmath.exp(lam * j) + w)
        return complex(f)


@pytest.mark.parametrize("lam", [0.05, LOG2, 1.0, 0.5 + 3j], ids=["0.05", "log2", "1", "0.5+3i"])
def test_g_ok_points_match_mpmath_push_out(lam):
    rng = np.random.default_rng(31)
    w = np.append(seeded_w(rng, 40), 76.66 + 1035.67j)
    values, status = _evaluate_fn("g", lam, 400, 5, w)
    assert np.count_nonzero(status == OK) >= 20
    for z, v in zip(w[status == OK], values[status == OK]):
        ref = mp_taylor_push_out(lam, z)
        assert abs(v - ref) <= 1e-12 * abs(ref), (lam, z)


def test_coefficients_past_170_raise_before_the_recursion():
    # 171! is not a double, so a_K K! is never finite: K = 10**6 raises at
    # once instead of after hours of O(K^2) work
    with pytest.raises(ShortCircuit, match="before K=1000000"):
        taylor_coefficients(LOG2, 10 ** 6)
    assert np.all(np.isfinite(taylor_coefficients(LOG2, 170).coefficients))
