import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betatet.acceptance as acceptance
from betatet import (
    BetaParams,
    SingularPoint,
    beta_eval,
    beta_grid,
    singular_lattice,
)
from betatet.errors import OK, SINGULAR

LOG2 = math.log(2.0)


def loop_oracle(s, lam, n):
    """Independent re-implementation of the nested loop, plain Python."""
    f = 0j
    for i in range(n):
        f = cmath.exp(f) / (1.0 + cmath.exp(lam * (n - i - s)))
    return f


def loop_oracle_variable(s, n):
    f = 0j
    r = 1.0 / cmath.sqrt(1.0 + s)
    for i in range(n):
        f = cmath.exp(f) / (1.0 + cmath.exp((n - i - s) * r))
    return f


@pytest.fixture(scope="module")
def p_log2():
    return BetaParams(lam=LOG2, depth=100)


def test_vanishes_far_left(p_log2):
    assert abs(beta_eval(p_log2, -40.0)) < 1e-12


def test_functional_equation_matched_depth(p_log2):
    v0 = beta_eval(p_log2, 0.0)
    v1 = beta_eval(p_log2, 1.0)
    assert abs(v1 * (1 + math.exp(0.0)) - cmath.exp(v0)) < 1e-10


@pytest.mark.parametrize("s", [0.0, -3.0, 1.5, 0.5 + 0.5j, -7.0 - 0.9j])
def test_matches_direct_loop_oracle(p_log2, s):
    assert abs(beta_eval(p_log2, s) - loop_oracle(s, LOG2, 100)) < 1e-12


def test_variable_matches_direct_loop_oracle():
    params = BetaParams(lam="variable", depth=80)
    for s in (0.0, 2.0, 3.5 + 0.25j):
        assert abs(beta_eval(params, s) - loop_oracle_variable(s, 80)) < 1e-12


@pytest.mark.parametrize(
    "lam,s,depth,tol",
    [
        (LOG2, -3.0, 100, 1e-10),
        (1.0, -5.0, 100, 1e-10),
        (LOG2, -3.0, 1, 1e-8),  # one term: each map is itself periodic
    ],
)
def test_periodicity(lam, s, depth, tol):
    params = BetaParams(lam=lam, depth=depth)
    b, st = beta_grid(params, np.array([s, s + 2j * math.pi / lam]))
    assert np.all(st == OK)
    assert abs(b[1] - b[0]) < tol


def test_failed_point_fails_criterion_2(monkeypatch):
    # beta is singular at -3 + 0.5i + 2 pi i/log 2: criterion 2 fails with inf, not an exception
    def fake(params, s):
        b, st = beta_grid(params, s)
        return b, np.where(s.imag > 9.5, SINGULAR, st).astype(np.int8)

    monkeypatch.setattr(acceptance, "beta_grid", fake)
    assert acceptance.crit_periodicity() == (False, "max residual inf < 1e-10 at 10 points")


@pytest.mark.parametrize("lam", [0.2, 1.0, 2.0, 0.5 + 3j, 1.0 - 2j])
def test_functional_equation_residual_grid(lam):
    params = BetaParams(lam=lam, depth=100)
    re = np.linspace(-10, 2, 13)
    im = np.linspace(-1, 1, 3)
    pts = (re[None, :] + 1j * im[:, None]).ravel()
    b0, s0 = beta_grid(params, pts)
    b1, s1 = beta_grid(params, pts + 1)
    ok = (s0 == OK) & (s1 == OK)
    assert ok.sum() > 0.8 * pts.size
    with np.errstate(all="ignore"):
        resid = np.abs(b1 * (1 + np.exp(-lam * pts)) - np.exp(b0))[ok]
    assert resid.max() < 1e-8


def test_growth_onset(p_log2):
    xs = np.arange(0.0, 4.01, 0.25)
    vals, st = beta_grid(p_log2, xs)
    assert np.all(st == OK)
    assert np.all(np.diff(vals.real) > 0)
    b2 = beta_eval(p_log2, 2.0).real
    b4 = beta_eval(p_log2, 4.0).real
    assert b4 > math.exp(b2) - 1


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0, max_magnitude=6, allow_nan=False, allow_infinity=False))
def test_conjugation_symmetry(s):
    params = BetaParams(lam=LOG2, depth=60)
    try:
        a = beta_eval(params, s)
        b = beta_eval(params, np.conj(s))
    except Exception:
        return
    assert abs(b - np.conj(a)) < 1e-12


def test_singular_point_raises(p_log2):
    s_star = 1 + 1j * math.pi / LOG2
    with pytest.raises(SingularPoint):
        beta_eval(p_log2, s_star)


def test_singular_point_grid_status(p_log2):
    s_star = 2 + 1j * math.pi / LOG2  # j=2 lattice point
    vals, st = beta_grid(p_log2, np.array([s_star, 0.0 + 0j]))
    assert st[0] == SINGULAR
    assert st[1] == OK


def test_singular_lattice_helper():
    pts = singular_lattice(LOG2, (-3, 3, 0, 6))
    target = 1 + 1j * math.pi / LOG2
    assert any(abs(p - target) < 1e-12 for p in pts)
    # the [-3,3]x[-3,3] box holds no lattice points: |Im| >= pi/log2 > 4.5
    assert singular_lattice(LOG2, (-3, 3, -3, 3)).size == 0


def test_grid_matches_scalar(p_log2):
    pts = np.array([0.0, -2.0 + 0.5j, 1.0 - 0.25j])
    vals, st = beta_grid(p_log2, pts)
    assert np.all(st == OK)
    for p, v in zip(pts, vals):
        assert abs(v - beta_eval(p_log2, p)) < 1e-12


def test_tail_stability_and_depth_requirement():
    # |beta_m - beta_m'| <= 1e-10 once both depths pass N(s); N grows with Re s
    def depth_needed(s):
        ref, st = beta_grid(BetaParams(lam=LOG2, depth=220), np.array([s]))
        assert st[0] == OK
        for n in range(4, 200):
            v, stn = beta_grid(BetaParams(lam=LOG2, depth=n), np.array([s]))
            if stn[0] == OK and abs(v[0] - ref[0]) <= 1e-10:
                return n
        raise AssertionError("no stable depth found")

    n0, n1, n2 = depth_needed(0.0), depth_needed(1.0), depth_needed(2.0)
    assert n0 <= n1 <= n2
    deep_a, _ = beta_grid(BetaParams(lam=LOG2, depth=120), np.array([2.0]))
    deep_b, _ = beta_grid(BetaParams(lam=LOG2, depth=150), np.array([2.0]))
    assert abs(deep_a[0] - deep_b[0]) <= 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        BetaParams(lam=-1.0, depth=10)
    with pytest.raises(ValueError):
        BetaParams(lam=LOG2, depth=0)
    with pytest.raises(ValueError):
        BetaParams(lam="wiggly", depth=10)
    assert BetaParams(lam="variable", depth=10).is_variable
    # a non-finite lambda, or a depth 2.5 that used to run as depth 2
    for lam, depth in ((math.inf, 10), (math.nan, 10), (complex(1, math.inf), 10),
                       (LOG2, 2.5), ("variable", 2.5)):
        with pytest.raises(ValueError):
            BetaParams(lam=lam, depth=depth)
    assert BetaParams(lam=LOG2, depth=np.int64(7)) == BetaParams(lam=LOG2, depth=7)
