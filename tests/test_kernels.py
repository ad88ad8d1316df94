import cmath
import math
import os
import signal
import time
import warnings

import numpy as np
import pytest

from betatet import BetaParams, BetaTetError, _kernels, beta_eval, beta_grid
from betatet.errors import (
    NONFINITE,
    OK,
    OVERFLOW_GUARD,
    SHORT_CIRCUIT,
    SINGULAR,
    SINGULAR_RADIUS,
    raise_for_status,
)

LOG2 = math.log(2.0)

PROBE = np.array(
    [
        0.0 + 0.0j,
        -40.0 + 0.0j,
        2.0 + 0.0j,
        6.0 + 0.0j,                       # overflow short-circuit
        1.0 + 0.5j,
        1 + 1j * math.pi / LOG2,          # singular lattice point
        -0.5 - 0.85j,
        complex("inf"),
        complex("-inf"),
        -1.0 + 0.0j,                      # variable rate 1/sqrt(1+s) undefined
    ],
    np.complex128,
)

# (lam, depth) per kernel mode; lam=None is the variable rate.  lambda = 10
# drives Re x_j past the overflow guard, so the e^{f - x} branch runs.
MODES = [(LOG2, 100), (0.5 + 3j, 100), (None, 100), (10.0, 100)]
MODE_IDS = ["log2", "0.5+3i", "variable", "10"]


def oracle(s, lam, depth):
    """Plain-Python beta recursion for one point, with the kernel's guard order.

    Returns (value, status): a stopped point keeps its last finite iterate.
    """
    if lam is None:
        try:
            rate = 1.0 / cmath.sqrt(1.0 + s)
        except ZeroDivisionError:
            return 0j, NONFINITE
    else:
        rate = complex(lam)
    if not (cmath.isfinite(s) and cmath.isfinite(rate)):
        return 0j, NONFINITE
    f = 0j
    for j in range(depth, 0, -1):
        x = rate * (j - s)
        if x.real > OVERFLOW_GUARD:
            if f.real > OVERFLOW_GUARD:
                return f, SHORT_CIRCUIT
            fn = cmath.exp(f - x)
        else:
            den = 1.0 + cmath.exp(x)
            if abs(den) < SINGULAR_RADIUS:
                return f, SINGULAR
            if f.real > OVERFLOW_GUARD:
                return f, SHORT_CIRCUIT
            try:
                fn = cmath.exp(f) / den
            except OverflowError:
                return f, SHORT_CIRCUIT
        if not cmath.isfinite(fn):
            return f, SHORT_CIRCUIT
        f = fn
    return f, OK


def kernel(s, lam, depth):
    if lam is None:
        return _kernels.beta_variable_grid(s, depth)
    return _kernels.beta_fixed_grid(s, lam, depth)


@pytest.mark.parametrize("lam,depth", MODES, ids=MODE_IDS)
def test_kernel_matches_guard_order_oracle(lam, depth):
    values, status = kernel(PROBE, lam, depth)
    for s, v, st in zip(PROBE, values, status):
        ov, ost = oracle(complex(s), lam, depth)
        assert st == ost, s
        assert abs(v - ov) <= 1e-12 * max(1.0, abs(ov)), s


@pytest.mark.parametrize("lam", [LOG2, None], ids=["fixed", "variable"])
def test_nonfinite_input_status(lam):
    # +-inf in both modes; s = -1 only in variable mode, where the rate is 1/0
    pts = PROBE[7:] if lam is None else PROBE[7:9]
    _, status = kernel(pts, lam, 50)
    assert np.all(status == NONFINITE)


@pytest.mark.parametrize("lam", [LOG2, 0.5 + 3j, "variable"], ids=MODE_IDS[:3])
def test_scalar_is_grid_of_one(lam):
    params = BetaParams(lam=lam, depth=100)
    values, status = beta_grid(params, PROBE)
    for s, v, st in zip(PROBE, values, status):
        if st == OK:
            assert beta_eval(params, s) == v
        else:
            with pytest.raises(BetaTetError) as grid_exc:
                raise_for_status(st)
            with pytest.raises(BetaTetError) as scalar_exc:
                beta_eval(params, s)
            assert type(scalar_exc.value) is type(grid_exc.value)


def test_backend_facts():
    assert _kernels.BACKEND == "numpy"
    assert _kernels.available_backends() == ["numpy"]


def test_statuses():
    v, st = _kernels.beta_fixed_grid(PROBE, LOG2, 100)
    assert st[0] == OK
    assert st[3] == SHORT_CIRCUIT
    assert np.isfinite(v[3].real)          # last finite iterate retained
    assert st[5] == SINGULAR
    v2, st2 = _kernels.beta_fixed_grid(np.array([complex("nan")]), LOG2, 10)
    assert st2[0] == NONFINITE


def w_oracle(w, lam, depth):
    """Plain-Python w-coordinate recursion for one point, with the kernel's guard order."""
    if not cmath.isfinite(w):
        return 0j, NONFINITE
    f = 0j
    for j in range(depth, 0, -1):
        x = lam * j
        if x.real > OVERFLOW_GUARD:
            if f.real > OVERFLOW_GUARD:
                return f, SHORT_CIRCUIT
            fn = w * cmath.exp(f - x) / (1 + w * cmath.exp(-x))
        else:
            ej = cmath.exp(x)
            den = ej + w
            if abs(den) < SINGULAR_RADIUS * abs(ej):
                return f, SINGULAR
            if f.real > OVERFLOW_GUARD:
                return f, SHORT_CIRCUIT
            fn = w * cmath.exp(f) / den
        if not cmath.isfinite(fn):
            return f, SHORT_CIRCUIT
        f = fn
    return f, OK


# Re(lambda) = 800 puts Re(lambda j) past the overflow guard, so the
# w e^{f - lambda j} branch runs at every level; -e^{2 lambda} is not a double
# there.  With 800+1i, e^{lambda j} itself would be inf+inf*i.
W_MODES = [(LOG2, 100), (0.5 + 3j, 100), (800.0, 3), (800 + 1j, 3)]


@pytest.mark.parametrize("lam,depth", W_MODES, ids=["log2", "0.5+3i", "800", "800+1i"])
def test_w_kernel_matches_guard_order_oracle(lam, depth):
    lam = complex(lam)
    singular = -cmath.exp(2 * lam) if 2 * lam.real < OVERFLOW_GUARD else -1e300
    probe = np.array([0, 0.4 + 0.2j, singular, 1e300, complex("inf"), complex("nan")],
                     np.complex128)
    values, status = _kernels.g_comp_grid(probe, lam, depth)
    for w, v, st in zip(probe, values, status):
        ov, ost = w_oracle(complex(w), lam, depth)
        assert st == ost, w
        assert abs(v - ov) <= 1e-12 * max(1.0, abs(ov)), w
    if lam.real < OVERFLOW_GUARD:
        assert list(status) == [OK, OK, SINGULAR, SHORT_CIRCUIT, NONFINITE, NONFINITE]


# w/(e^{700.5} + w) at depth 1, from a 40-digit mpmath evaluation: e^{700.5}
# ~ 1.7e304 is not small against these w, so the denominator keeps its + w
@pytest.mark.parametrize("w,exact", [(1e308, 0.99983280936117717301),
                                     (1e300, 5.9798385125691619319e-5)])
def test_w_kernel_past_guard_keeps_w_in_denominator(w, exact):
    values, status = _kernels.g_comp_grid(np.array([w], np.complex128), 700.5, 1)
    assert status[0] == OK == w_oracle(w, 700.5, 1)[1]
    assert abs(values[0] - exact) <= 1e-14 * exact
    assert abs(values[0] - w_oracle(w, 700.5, 1)[0]) <= 1e-14 * exact


def test_bits_independent_of_batch_size(monkeypatch):
    # numpy computes a product with a temporary operand in place from 16384
    # elements on; the kernels must give one-point calls the same bits, in
    # one chunk of 20000 points or split by three CPUs into 6666 + 6667 + 6667
    # (SPLIT_MIN lowered so that this batch splits)
    monkeypatch.setattr(_kernels, "SPLIT_MIN", 4096)
    rng = np.random.default_rng(3)
    s = rng.uniform(-6, 6, 20000) + 1j * rng.uniform(-3, 3, 20000)
    w = np.exp(rng.uniform(-3, 8, 20000) + 1j * rng.uniform(-3.2, 3.2, 20000))
    f0 = rng.uniform(-1, 1, 20000) + 1j * rng.uniform(-1, 1, 20000)
    for run, pts in [(lambda i: _kernels.beta_variable_grid(s[i], 25), s),
                     (lambda i: _kernels.g_comp_grid(w[i], 0.5 + 3j, 25), w),
                     (lambda i: _kernels.beta_fixed_grid(s[i], 0.5 + 3j, 29, 5), s),
                     (lambda i: _kernels._w(w[i], 0.5 + 3j, 25, f0[i]), w)]:
        for cpus in (1, 3):
            monkeypatch.setattr(_kernels, "_CPUS", cpus)
            values, status = run(slice(None))
            for i in range(0, pts.size, 100):
                v, st = run(slice(i, i + 1))
                assert np.array_equal(st[..., 0], status[..., i]), (cpus, pts[i])
                assert v[..., 0].tobytes() == values[..., i].tobytes(), (cpus, pts[i])


def test_split_only_large_batches_without_warnings(monkeypatch):
    # a batch splits only when every chunk gets SPLIT_MIN points; the
    # workers set their own errstate, as numpy's is per thread
    monkeypatch.setattr(_kernels, "_CPUS", 2)
    big = np.resize(PROBE, 2 * _kernels.SPLIT_MIN)

    def no_workers():
        raise AssertionError("worker threads used")

    with monkeypatch.context() as m:
        m.setattr(_kernels, "_executor", no_workers)
        for pts in (PROBE[:1], PROBE, big[:-1]):
            _kernels.beta_variable_grid(pts, 25)
            _kernels.beta_fixed_grid(pts, LOG2, 29, 5)
            _kernels.g_comp_grid(np.exp(pts), LOG2, 25)
        with pytest.raises(AssertionError, match="worker threads used"):
            _kernels.beta_variable_grid(big, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, st = _kernels.beta_fixed_grid(big, LOG2, 100)
        assert {OK, SHORT_CIRCUIT, SINGULAR, NONFINITE} <= set(st.tolist())
        _, st = _kernels.beta_variable_grid(big, 100)
        assert {OK, SHORT_CIRCUIT, NONFINITE} <= set(st.tolist())
        singular = -math.exp(2 * LOG2)
        w = np.resize(np.array([0.4, singular, 1e300, np.inf, np.nan], np.complex128), big.size)
        _, st = _kernels.g_comp_grid(w, LOG2, 100)
        assert {OK, SHORT_CIRCUIT, SINGULAR, NONFINITE} <= set(st.tolist())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_in_forked_child(monkeypatch):
    # the kept worker threads do not survive a fork; a child that splits a
    # batch starts its own instead of queueing work for threads it lacks
    monkeypatch.setattr(_kernels, "_CPUS", 2)
    big = np.resize(PROBE, 2 * _kernels.SPLIT_MIN)
    want, _ = _kernels.beta_variable_grid(big, 25)
    pid = os.fork()
    if pid == 0:
        got, _ = _kernels.beta_variable_grid(big, 25)
        os._exit(0 if got.tobytes() == want.tobytes() else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("split batch in a forked child did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


def test_g_comp_singular_point():
    w = np.array([-math.exp(LOG2 * 2)], np.complex128)   # -e^{2 lambda}
    v, st = _kernels.g_comp_grid(w, LOG2, 10)
    assert st[0] == SINGULAR


def test_deterministic_repeat():
    a, sa = _kernels.beta_fixed_grid(PROBE, LOG2, 100)
    b, sb = _kernels.beta_fixed_grid(PROBE, LOG2, 100)
    assert np.array_equal(a, b) and np.array_equal(sa, sb)


def test_shape_preserved():
    grid = np.zeros((3, 5), np.complex128) + 0.2
    v, st = _kernels.beta_fixed_grid(grid, LOG2, 20)
    assert v.shape == (3, 5) and st.shape == (3, 5)
