"""The nested composition beta_n(s) = q_1(s, q_2(s, ... q_n(s, 0))), through the kernel.

q_j(s, z) = e^z / (1 + e^{lambda (j - s)}); shifting s by one shifts every
index, so q_j(s, .) = q_{j-1}(s - 1, .) and the finite-depth law

    beta_n(s) = e^{beta_{n-1}(s - 1)} / (1 + e^{lambda (1 - s)})

holds at every depth, not only in the limit.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatet import BetaParams, NonFinite, beta_eval
from betatet._kernels import beta_fixed_grid
from betatet.errors import OK, OVERFLOW_GUARD, SHORT_CIRCUIT

LOG2 = math.log(2.0)


def beta_n(s, lam, n):
    v, status = beta_fixed_grid(np.array([s]), lam, n)
    return complex(v[0]), int(status[0])


def law_sides(s, lam, n):
    """(beta_n(s), e^{beta_{n-1}(s-1)} / (1 + e^{lambda (1 - s)})) in the kernel's arithmetic."""
    whole, st_whole = beta_n(s, lam, n)
    inner, st_inner = beta_n(s - 1, lam, n - 1)
    assert st_whole == OK and st_inner == OK
    x = np.complex128(lam) * (1 - np.complex128(s))
    return whole, complex(np.exp(np.complex128(inner)) / (1.0 + np.exp(x)))


def test_single_term_value():
    # one term at s=0: e^0 / (e^{log2 * 1} + 1) = 1/3
    v, status = beta_n(0.0, LOG2, 1)
    assert status == OK
    assert abs(v - 1.0 / 3.0) < 1e-15


def test_deep_composition_vanishes_far_left():
    v, status = beta_n(-40.0, LOG2, 100)
    assert status == OK
    assert abs(v) < 1e-12


def test_nesting_order_exact():
    # s - 1 is exact at these points, so both sides round identically
    for s in (0.0, -2.0, 1.5 + 0.5j):
        whole, outer = law_sides(s, LOG2, 30)
        assert whole == outer


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.complex_numbers(min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_nesting_order_property(n, s):
    whole, outer = law_sides(s, 1.0, n)
    assert abs(whole - outer) <= 1e-12 * max(1.0, abs(whole))


def test_determinism():
    a = beta_n(0.3 - 0.7j, 0.5 + 3j, 100)
    b = beta_n(0.3 - 0.7j, 0.5 + 3j, 100)
    assert a == b


def test_overflow_short_circuit():
    # at s = 6 the iterate passes the guard at level 1; it is kept, not overflowed
    v, status = beta_n(6.0, LOG2, 100)
    assert status == SHORT_CIRCUIT
    assert v.real > OVERFLOW_GUARD and cmath.isfinite(v)
    # the kept iterate is exactly the depth-99 value at s - 1, the inner part of the law
    inner, st_inner = beta_n(5.0, LOG2, 99)
    assert st_inner == OK
    assert v == inner


def test_nan_term_raises():
    with pytest.raises(NonFinite):
        beta_eval(BetaParams(lam=LOG2, depth=10), complex("nan"))
