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
    scalar,
)
from betatet.tetration import tet_grid

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


def oracle(s, lam, depth, rows=1):
    """Plain-Python beta recursion for one point, with the kernel's guard order.

    Returns (values, status), lists of the iterates after levels rows, ..., 1
    and their statuses.  A point that stops at level j keeps its last finite
    iterate, with the stop status, in row rows - j and every row after it; a
    non-finite input keeps its start value 0 in every row, nonfinite.
    """
    values, status = [0j] * rows, [OK] * rows

    def stop(f, code, row):
        first = max(row, 0)
        values[first:], status[first:] = [f] * (rows - first), [code] * (rows - first)
        return values, status

    if lam is None:
        try:
            rate = 1.0 / cmath.sqrt(1.0 + s)
        except ZeroDivisionError:
            return stop(0j, NONFINITE, 0)
    else:
        rate = complex(lam)
    if not (cmath.isfinite(s) and cmath.isfinite(rate)):
        return stop(0j, NONFINITE, 0)
    f = 0j
    for j in range(depth, 0, -1):
        x = rate * (j - s)
        if x.real > OVERFLOW_GUARD:
            if f.real > OVERFLOW_GUARD:
                return stop(f, SHORT_CIRCUIT, rows - j)
            fn = cmath.exp(f - x)
        else:
            den = 1.0 + cmath.exp(x)
            if abs(den) < SINGULAR_RADIUS:
                return stop(f, SINGULAR, rows - j)
            if f.real > OVERFLOW_GUARD:
                return stop(f, SHORT_CIRCUIT, rows - j)
            try:
                fn = cmath.exp(f) / den
            except OverflowError:
                return stop(f, SHORT_CIRCUIT, rows - j)
        if not cmath.isfinite(fn):
            return stop(f, SHORT_CIRCUIT, rows - j)
        f = fn
        if j <= rows:
            values[rows - j] = f
    return values, status


def kernel(s, lam, depth):
    if lam is None:
        return _kernels.beta_variable_grid(s, depth)
    return _kernels.beta_fixed_grid(s, lam, depth)


@pytest.mark.parametrize("lam,depth", MODES, ids=MODE_IDS)
def test_kernel_matches_guard_order_oracle(lam, depth):
    # the last row through the public grids, then every row of rows = 5 and
    # rows = depth, the rows after a stop included
    values, status = kernel(PROBE, lam, depth)
    runs = [(1, values[None], status[None])]
    runs += [(rows, *_kernels._beta(PROBE, lam, depth, rows)) for rows in (5, depth)]
    for rows, values, status in runs:
        for s, v, st in zip(PROBE, values.T, status.T):
            ov, ost = oracle(complex(s), lam, depth, rows)
            assert st.tolist() == ost, (s, rows)
            assert np.all(np.abs(v - ov) <= 1e-12 * np.maximum(1.0, np.abs(ov))), (s, rows)


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
                scalar((v, st), f"beta({s})")
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
                     (lambda i: _kernels.g_comp_grid(w[i], 0.5 + 3j, 25, f0[i]), w)]:
        for cpus in (1, 3):
            monkeypatch.setattr(_kernels, "_CPUS", cpus)
            values, status = run(slice(None))
            for i in range(0, pts.size, 100):
                v, st = run(slice(i, i + 1))
                assert np.array_equal(st[..., 0], status[..., i]), (cpus, pts[i])
                assert v[..., 0].tobytes() == values[..., i].tobytes(), (cpus, pts[i])


# real s on a fine grid of [-3, 40] and a coarser one of [41, 104] stop at the
# overflow guard, and the singular lattice points s = m - i pi/lambda at level
# m of the fixed kernel; a one-point depth-100 call runs its levels in one
# block, a batch of this size one level at a time, then longer blocks as its
# points stop
EDGE_S = np.concatenate([np.linspace(-3, 40, 2100), np.linspace(41, 104, 64),
                         np.arange(1, 101) - 1j * math.pi / LOG2, PROBE])
# one-point calls on every 7th point of the fine grid and on each of the rest
EDGE_PICK = np.concatenate([np.arange(0, 2100, 7), np.arange(2100, EDGE_S.size)])


def test_edge_points_stop_at_every_block_position():
    # the first non-OK row of a rows=depth run is the level a point stopped at;
    # a one-point depth-100 call is one block, so row m is its position m.  From
    # f = 0 the inputs of the first four levels are 0 and below 1, e and e^e, so
    # an overflow stop takes every position from 4 on, a singular stop all 100
    assert _kernels._block_length(1) >= 100 and _kernels._block_length(EDGE_S.size) == 1
    _, status = _kernels.beta_fixed_grid(EDGE_S[EDGE_PICK], LOG2, 100, 100)
    first = np.argmax(status != OK, axis=0)
    assert set(first[status[-1] == SHORT_CIRCUIT].tolist()) == set(range(4, 100))
    assert set(first[status[-1] == SINGULAR].tolist()) == set(range(100))


@pytest.mark.parametrize("depth", [1, 31, 32, 33, 100])
def test_one_point_calls_match_the_batch_at_block_edges(depth):
    # a point's value and status are the same whether it runs alone, in one
    # block, or one level at a time in a batch, stops included: rows filled by
    # a stop, and g_comp_grid from a per-point f0, whose points with |w| near
    # 1e300 overflow e^f w to a non-finite update.  Batches of 40, 41 and 42
    # points run blocks of 102, 99 and 97 levels, so at depth 100 (104 with
    # rows) a block edge falls inside the call, and a batch's blocks lengthen
    # as its points stop
    rng = np.random.default_rng(5)
    with np.errstate(all="ignore"):
        w = np.exp(LOG2 * EDGE_S)
    w[:40] = 10.0 ** rng.uniform(290, 308, 40)
    f0 = rng.uniform(-2, 2, w.size) + 1j * rng.uniform(-2, 2, w.size)
    assert [_kernels._block_length(n) for n in (40, 41, 42)] == [102, 99, 97]
    runs = [lambda i: _kernels.beta_variable_grid(EDGE_S[i], depth),
            lambda i: _kernels.beta_fixed_grid(EDGE_S[i], LOG2, depth),
            lambda i: _kernels.beta_fixed_grid(EDGE_S[i], 0.5 + 3j, depth + 4, 5),
            lambda i: _kernels.beta_fixed_grid(EDGE_S[i], LOG2, depth + 4, 5),
            lambda i: _kernels.g_comp_grid(w[i], 0.5 + 3j, depth, f0[i], 3),
            lambda i: _kernels.g_comp_grid(w[i], LOG2, depth, f0[i])]
    seen = set()
    for run in runs:
        values, status = run(slice(None))
        seen |= set(status.ravel().tolist())
        for size in (1, 40, 41, 42):
            for at in range(0, EDGE_PICK.size, size):
                i = EDGE_PICK[at:at + size]
                v, st = run(i)
                assert np.array_equal(st, status[..., i]), (size, EDGE_S[i])
                assert v.tobytes() == values[..., i].tobytes(), (size, EDGE_S[i])
    assert seen == {OK, SINGULAR, SHORT_CIRCUIT, NONFINITE} if depth > 1 else seen >= {OK, NONFINITE}


@pytest.mark.parametrize("s", [0.3 + 0.2j, 2.5], ids=["complex", "real"])
def test_level_terms_are_computed_per_block(monkeypatch, s):
    # a depth-100 call computes its level-only terms in one pass of _beta_level
    # per block of _block_length(points) levels, capped by the levels left, not
    # in one pass per level: a point alone or 21 points in one pass, 42 points
    # in two and 100 points in three
    level, sizes = _kernels._beta_level, []

    def spy(js, s, rate):
        sizes.append(js.size)
        return level(js, s, rate)

    monkeypatch.setattr(_kernels, "_beta_level", spy)
    for points, passes in [(1, [100]), (21, [100]), (42, [97, 3]), (100, [40, 40, 20])]:
        sizes.clear()
        _, status = _kernels.beta_variable_grid(np.full(points, s), 100)
        assert (status == OK).all()
        assert sizes == passes


def _complex_route(s, lam, depth, rows=None):
    # the beta kernel with every point in complex128, as before real points
    # had their float64 route
    s = np.asarray(s, np.complex128)
    with np.errstate(all="ignore"):
        rate = 1.0 / np.sqrt(1.0 + s) if lam is None else np.full(s.shape, complex(lam))
    return _kernels._compose(_kernels._beta_level, depth, np.zeros(s.shape, np.complex128),
                             s, rate, rows=rows)


def test_mixed_batches_keep_every_points_bits(monkeypatch):
    # each point picks float64 or complex128 by its own s and rate, so it gets
    # the same bits alone as in a batch where about half the points are real,
    # whole or split by three CPUs (SPLIT_MIN lowered so that this batch splits)
    monkeypatch.setattr(_kernels, "SPLIT_MIN", 4096)
    rng = np.random.default_rng(7)
    s = np.empty(20000, np.complex128)
    s.real = rng.uniform(-6, 6, s.size)
    s.imag = np.where(rng.random(s.size) < 0.5, rng.uniform(-3, 3, s.size), 0.0)
    s.imag[rng.random(s.size) < 0.1] = -0.0
    assert 0.4 < np.mean(s.imag == 0) < 0.6 and np.signbit(s.imag[s.imag == 0]).any()
    dtypes = set()

    def spy(js, s, rate):
        dtypes.add(js.dtype)        # the dtype of the iterate
        return level(js, s, rate)

    level = _kernels._beta_level
    monkeypatch.setattr(_kernels, "_beta_level", spy)
    for run in [lambda i: _kernels.beta_variable_grid(s[i], 25),
                lambda i: _kernels.beta_fixed_grid(s[i], LOG2, 29, 5),
                lambda i: _kernels.beta_fixed_grid(s[i], 0.5 + 3j, 25)]:
        for cpus in (1, 3):
            monkeypatch.setattr(_kernels, "_CPUS", cpus)
            values, status = run(slice(None))
            assert values.dtype == np.complex128
            for i in range(0, s.size, 100):
                v, st = run(slice(i, i + 1))
                assert np.array_equal(st[..., 0], status[..., i]), (cpus, s[i])
                assert v[..., 0].tobytes() == values[..., i].tobytes(), (cpus, s[i])
    assert dtypes == {np.dtype(np.float64), np.dtype(np.complex128)}


def test_one_route_chunks_reach_the_level_loop_as_views(monkeypatch):
    # a chunk whose points all take one route runs on views of the caller's
    # s (its real parts in float64), whole or split by three CPUs, with
    # nothing gathered; test_mixed_batches_keep_every_points_bits covers the
    # chunks that gather each route's points
    levels, seen = _kernels._levels, []

    def spy(*args):                 # level, depth, count, f, inputs
        seen.append((args[3].dtype, args[4][0]))
        return levels(*args)

    monkeypatch.setattr(_kernels, "_levels", spy)
    monkeypatch.setattr(_kernels, "SPLIT_MIN", 100)
    real = np.linspace(-0.5, 30, 501).astype(np.complex128)
    for s, dtype in [(real, np.float64), (real + 0.5j, np.complex128)]:
        for cpus in (1, 3):
            monkeypatch.setattr(_kernels, "_CPUS", cpus)
            seen.clear()
            for lam in (None, LOG2):
                _kernels._beta(s, lam, 25)
            assert [d for d, _ in seen] == [dtype] * 2 * cpus
            assert all(np.shares_memory(a, s) for _, a in seen)


def test_split_batch_raises_a_parts_error_and_keeps_its_pool(monkeypatch):
    # an exception in one part of a split batch reaches the caller, and the
    # next split call on the same workers gives the bits of an unsplit one
    monkeypatch.setattr(_kernels, "SPLIT_MIN", 4096)
    rng = np.random.default_rng(11)
    s = rng.uniform(-6, 6, 20000) + 1j * rng.uniform(-3, 3, 20000)
    s[10000] = 0.25 + 0.125j            # in the middle of three chunks
    monkeypatch.setattr(_kernels, "_CPUS", 1)
    want = _kernels.beta_fixed_grid(s, 0.5 + 3j, 29, 5)
    monkeypatch.setattr(_kernels, "_CPUS", 3)
    levels = _kernels._levels

    class PartFailed(Exception):
        pass

    def failing(*args):             # level, depth, count, f, inputs
        if np.any(args[4][0] == s[10000]):
            raise PartFailed
        return levels(*args)

    pool = _kernels._executor()
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_levels", failing)
        with pytest.raises(PartFailed):
            _kernels.beta_fixed_grid(s, 0.5 + 3j, 29, 5)
    got = _kernels.beta_fixed_grid(s, 0.5 + 3j, 29, 5)
    assert _kernels._executor() is pool
    assert np.array_equal(got[1], want[1]) and got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("lam,lo,hi,depth,rows", [
    (None, -0.99, 30, 25, None), (None, -0.99, 30, 100, None),
    (LOG2, -30, 30, 25, 1), (LOG2, -30, 30, 25, 5),
    (LOG2, -30, 30, 100, 1), (LOG2, -30, 30, 100, 5),
], ids=["variable-25", "variable-100", "log2-25-1", "log2-25-5", "log2-100-1", "log2-100-5"])
def test_float64_route_agrees_with_complex_route(lam, lo, hi, depth, rows):
    s = np.linspace(lo, hi, 4001).astype(np.complex128)
    values, status = _kernels._beta(s, lam, depth, rows)
    want, want_status = _complex_route(s, lam, depth, rows)
    assert np.array_equal(status, want_status)
    assert {OK, SHORT_CIRCUIT} <= set(status.ravel().tolist())
    size = np.abs(want)
    rel = np.abs(values - want) / np.maximum(1.0, size)
    assert np.all(rel[(status == OK) & (size <= 100)] <= 1e-14)
    # e^f turns an ulp of f into |f| ulps of the value, so the routes agree
    # to about 1e-14 ln|beta| relative, stopped points' kept iterates too:
    # measured at most 7.3e-12 at |beta| = 8.3e295, where ln|beta| is 681
    assert np.all(rel <= 1e-13 * np.maximum(1.0, np.log(np.maximum(size, 1.0))))


def test_float64_route_keeps_the_tet_line(monkeypatch, high_model):
    # on the real line tet keeps every status and agrees with the all-complex
    # kernel to 1e-14 relative (measured at most 2.6e-15 at high)
    x = np.linspace(-1.9, 2, 4001)
    values, status = tet_grid(high_model, x)
    compose = _kernels._compose
    monkeypatch.setattr(_kernels, "_compose", lambda *a, real=None, **kw: compose(*a, **kw))
    want, want_status = tet_grid(high_model, x)
    assert np.array_equal(status, want_status) and np.all(status == OK)
    assert np.all(np.abs(values - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("lam", [None, LOG2], ids=["variable", "log2"])
def test_float64_route_special_points(lam):
    # s = -1 (variable rate 1/0) and -1.5 (rate imaginary) take the complex
    # route; the others are real, nonfinite or huge, and keep their status
    s = np.array([-1.0, -1.5, np.nan, np.inf, -np.inf, 1e300, -1e300,
                  complex(0.0, -0.0), complex(2.5, -0.0)], np.complex128)
    assert np.signbit(s[-2:].imag).all()
    for depth in (25, 100):
        values, status = _kernels._beta(s, lam, depth)
        want, want_status = _complex_route(s, lam, depth)
        assert np.array_equal(status, want_status)
        assert np.all(np.abs(values - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        assert status[2] == status[3] == status[4] == NONFINITE
        assert status[-1] == OK


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
