"""Hot composition kernels, vectorized with numpy.

Both recursions of the map family run on one compacting loop, `_compose`,
which evaluates a depth-n truncation innermost term first, j = n, ..., 1.
The beta kernel steps

    f <- e^f / (1 + e^{x_j}),   x_j = rate (j - s),   from f = 0,

where the rate is lambda for the fixed family and 1/sqrt(1 + s) for the
variable one.  The w-coordinate kernel steps f <- w e^f / (e^{lambda j} + w),
the same map under w = e^{lambda s}; g_eval runs it from its Taylor value.
Both can return the iterates of the last few levels as rows: for fixed
lambda those are the pullback stack beta(s + m), one run for all rows.

`_compose` applies the same guards to each point, in this order: singular
denominator, then overflow guard, then non-finite update.  A point stops at
the first guard it trips and keeps its last finite iterate; a point with a
non-finite input gets the nonfinite status before the first level.

A batch with at least SPLIT_MIN points for each CPU this process may run on
(its affinity mask, read once at import) is cut into contiguous chunks, one
per CPU.  The calling thread runs the level loop on the last chunk and
worker threads, started at the first split and kept, run it on the others;
numpy's ufuncs release the interpreter lock.  Smaller batches never touch a
worker.  The split keeps every bit: each point's operations and their
operand order are the same in any batch, and no step reduces across points.
"""

import os
import threading

import numpy as np

from .errors import NONFINITE, OVERFLOW_GUARD, SHORT_CIRCUIT, SINGULAR, SINGULAR_RADIUS

BACKEND = "numpy"

# fewest points per chunk for which a batch is split across the CPUs: below
# this a split call's time depends too much on how the CPUs are scheduled
SPLIT_MIN = 16384
_CPUS = len(os.sched_getaffinity(0))
_pool = None
_pool_lock = threading.Lock()


def _as_c128(a):
    arr = np.asarray(a, dtype=np.complex128)
    return np.atleast_1d(arr)


def _compose(level, depth, f, *inputs, rows=None):
    """Run f <- level(j, f, *inputs) for j = depth, ..., 1; returns (values, status).

    With rows, values and status gain a leading axis of that length: row m
    holds the iterate after level rows - m, so the last row is the result.
    A batch of at least SPLIT_MIN points per CPU runs as contiguous chunks,
    one per CPU, through `_levels`; the chunks' results are joined along
    the point axis.
    """
    shape = f.shape if rows is None else (rows, *f.shape)
    count = 1 if rows is None else rows
    f = f.ravel()
    inputs = [a.ravel() for a in inputs]
    chunks = max(1, min(_CPUS, f.size // SPLIT_MIN))
    cuts = [f.size * c // chunks for c in range(chunks + 1)]
    parts = _in_threads(lambda c: _levels(
        level, depth, count, f[cuts[c]:cuts[c + 1]],
        [a[cuts[c]:cuts[c + 1]] for a in inputs]), chunks)
    values = np.concatenate([v for v, _ in parts], axis=-1)
    status = np.concatenate([st for _, st in parts], axis=-1)
    return values.reshape(shape), status.reshape(shape)


def _in_threads(task, count):
    """[task(0), ..., task(count - 1)], the last on the calling thread and
    the others on the kept worker threads.

    A worker's exception is raised here, after every worker has finished.
    """
    if count == 1:
        return [task(0)]
    futures = [_executor().submit(task, c) for c in range(count - 1)]
    try:
        last = task(count - 1)
    finally:
        for f in futures:
            f.exception()           # waits for the worker; result() raises
    return [f.result() for f in futures] + [last]


def _executor():
    """The worker threads of split batches, started at the first split and
    kept: a split wakes waiting threads, which the scheduler puts on idle
    CPUs, where a thread started for each call could share the caller's."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="betatet-kernel")
        return _pool


def _forget_pool():
    # a forked child has none of the parent's threads: it starts its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _levels(level, depth, count, f, inputs):
    """The level loop of `_compose` on flat arrays; values and status are (count, N).

    Each point runs alone: no step reduces across points, so a chunk gives
    the bits the whole batch would.  A point that stops fills the rows not
    yet written with its kept iterate and stop status.

    level returns the update and its singular mask.  Points that stop are
    compacted away each level together with their inputs, which stay named
    arrays: numpy may compute a product with a temporary operand in place,
    swapping the operands, and complex multiplication with FMA is not
    bitwise commutative, so gathering inside level would change last bits.
    For the same reason a level writes each product with its temporary
    operand on the left, so its bits do not depend on the batch size.
    numpy's errstate is per thread, so it is set here.
    """
    values = np.repeat(f.reshape(1, -1), count, axis=0)
    status = np.zeros(values.shape, np.int8)
    finite = np.logical_and.reduce([np.isfinite(a) for a in inputs])
    status[:, ~finite] = NONFINITE
    idx = np.flatnonzero(finite)
    inputs = [a[idx] for a in inputs]
    f = values[0, idx]
    with np.errstate(all="ignore"):
        for j in range(depth, 0, -1):
            if not idx.size:
                break
            fn, sing = level(j, f, *inputs)
            stop = sing | (f.real > OVERFLOW_GUARD) | ~np.isfinite(fn)
            if stop.any():
                at, first = idx[stop], max(count - j, 0)
                values[first:, at] = f[stop]
                status[first:, at] = np.where(sing[stop], SINGULAR, SHORT_CIRCUIT)
                keep = ~stop
                idx, f = idx[keep], fn[keep]
                inputs = [a[keep] for a in inputs]
            else:
                f = fn
            if j <= count:
                values[count - j, idx] = f
    return values, status


def _beta_level(j, f, s, rate):
    # past the overflow guard e^x itself would overflow: use e^{f - x}
    x = (j - s) * rate
    big = x.real > OVERFLOW_GUARD
    den = 1.0 + np.exp(x)
    fn = np.exp(f) / den
    if big.any():
        fn[big] = np.exp(f[big] - x[big])
    return fn, ~big & (np.abs(den) < SINGULAR_RADIUS)


def _beta(s, lam, depth, rows=None):
    """Beta recursion over an array of s; lam=None selects the variable rate
    (1/0 at s = -1, so that point is nonfinite)."""
    s = _as_c128(s)
    with np.errstate(all="ignore"):
        rate = 1.0 / np.sqrt(1.0 + s) if lam is None else np.full(s.shape, complex(lam))
    return _compose(_beta_level, depth, np.zeros(s.shape, np.complex128), s, rate, rows=rows)


def _w(w, lam, depth, f=None, rows=None):
    """w-coordinate recursion over an array of w, from f (default 0)."""
    w = _as_c128(w)
    lam = complex(lam)

    def level(j, f, w):
        x = lam * j
        if x.real > OVERFLOW_GUARD:
            # e^{lambda j} would overflow: w e^f/(e^x + w) = w e^{f-x}/(1 + w e^{-x})
            return np.exp(f - x) * w / (1.0 + w * np.exp(-x)), np.zeros(f.shape, bool)
        ej = np.exp(x)
        den = ej + w
        return np.exp(f) * w / den, np.abs(den) < SINGULAR_RADIUS * abs(ej)

    f = np.zeros(w.shape, np.complex128) if f is None else np.broadcast_to(f, w.shape)
    return _compose(level, depth, f, w, rows=rows)


def beta_fixed_grid(s, lam, depth, rows=None):
    """Depth-n fixed-lambda composition over an array of s values.

    Returns (values, status) with the input shape; status-2 elements hold the
    last finite iterate before the overflow guard tripped.  With rows, the
    iterates after levels rows, ..., 1 come as a leading axis: a level at s
    is the level one lower at s - 1, so row m is beta at depth
    n - rows + 1 + m and at s - rows + 1 + m, and each row is one level
    applied to the row before.
    """
    return _beta(s, lam, int(depth), rows)


def beta_variable_grid(s, depth):
    """Depth-n composition with the drifting exponent (j - s)/sqrt(1 + s)."""
    return _beta(s, None, int(depth))


def g_comp_grid(w, lam, depth):
    """Depth-n w-coordinate composition f <- w e^f/(e^{lambda j} + w)."""
    return _w(w, lam, int(depth))


def available_backends():
    """Kernel backends in this build; numpy is the only one."""
    return [BACKEND]
