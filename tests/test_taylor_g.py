import cmath
import math

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
from betatet.errors import OK

LOG2 = math.log(2.0)


def circle_derivative_oracle(lam, kmax, radius=0.1, nodes=128, depth=100):
    """Monomial coefficients of g from beta through the change of variables."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    w = radius * np.exp(1j * theta)
    s = np.log(w) / lam
    vals, st = beta_grid(BetaParams(lam=lam, depth=depth), s)
    assert np.all(st == OK)
    return np.array([(vals * np.exp(-1j * k * theta)).mean() / radius ** k
                     for k in range(kmax + 1)])


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
    oracle = circle_derivative_oracle(lam, 6)
    rel = np.abs(series.monomial()[1:7] - oracle[1:7]) / np.abs(oracle[1:7])
    assert rel.max() < 1e-6


def test_radius_exact():
    assert taylor_coefficients(LOG2, 2).radius == math.exp(LOG2)
    assert taylor_coefficients(0.5 + 3j, 2).radius == math.exp(0.5)


def test_large_k_overflow_signalled():
    with pytest.raises(ShortCircuit):
        taylor_coefficients(LOG2, 400)


def test_validation():
    with pytest.raises(ValueError):
        taylor_coefficients(-0.5, 4)
    with pytest.raises(ValueError):
        taylor_coefficients(LOG2, -1)


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
    with pytest.raises(ShortCircuit) as exc:
        g_eval(LOG2, 50.0)
    last = exc.value.last_value
    assert last is not None and cmath.isfinite(last)


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
        g_eval(BetaParams(lam="variable", depth=10), 0.1)


def test_g_accepts_params_and_series():
    params = BetaParams(lam=LOG2, depth=50)
    series = taylor_coefficients(LOG2, 40)
    assert g_eval(params, 0.1) == g_eval(series, 0.1)
