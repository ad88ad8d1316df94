"""Hot composition kernels, vectorized with numpy.

Both recursions of the map family run on one compacting loop, `_compose`,
which evaluates a depth-n truncation innermost term first, j = n, ..., 1.
The beta kernel steps

    f <- e^f / (1 + e^{x_j}),   x_j = rate (j - s),   from f = 0,

where the rate is lambda for the fixed family and 1/sqrt(1 + s) for the
variable one.  The w-coordinate kernel, g_comp_grid, steps
f <- w e^f / (e^{lambda j} + w), the same map under w = e^{lambda s};
beta.g_grid runs it from each point's Taylor value.
Both can return the iterates of the last few levels as rows: for fixed
lambda those are the pullback stack beta(s + m), one run for all rows.
A beta point whose s and rate both have imaginary part exactly 0 (real
s > -1 in variable mode, real s with a real lambda in fixed mode) runs the
same level loop in float64, and every other point in complex128.  The route
is cut per chunk, by each point's own s and rate, so neither the route nor a
point's bits depend on the batch; float64 results come back as complex128.

The loop runs in blocks of levels.  A level splits into its level-only
terms (for beta x_j, the e^{f - x} switch past the overflow guard, the
denominator 1 + e^{x_j} and the singular mask; for w e^{lambda j}, the
denominator e^{lambda j} + w and the singular mask) and the update of f.
The terms of a whole block come from one pass over a (levels, points)
array; only the update runs level by level.  A block has
min(32, max(1, 4096 // live points)) levels, so a point alone runs 32
levels per block and a batch of more than 2048 live points one, with the
passes per level of a plain level loop.

`_compose` applies the same guards to each point, in this order: singular
denominator, then overflow guard, then non-finite update.  They are checked
once per block on all its levels, and the first level at which a point
trips one decides: the point stops there, keeps its last finite iterate,
and what it computed past that level is dropped; a non-finite input stops
before the first level, nonfinite.  A stopped point's later rows hold its
kept iterate and status, filled once per call after the last level.

`_compose` plans each batch in one place.  A batch with at least SPLIT_MIN
points for each CPU this process may run on (its affinity mask, read once at
import) is cut into contiguous chunks, one per CPU, and each chunk into its
float64 part and its complex128 part; each part is one run of the level
loop.  The pool's worker threads, started at the first split and kept, run
every part of a split batch while the calling thread waits; numpy's ufuncs
release the interpreter lock.  Smaller batches never touch a worker.
Neither the split, the routes nor the blocks change a bit: each point's
operations and their operand order are the same in any batch and block,
and no step reduces across points.
"""

import os
import threading

import numpy as np

from .errors import NONFINITE, OVERFLOW_GUARD, SHORT_CIRCUIT, SINGULAR, SINGULAR_RADIUS

BACKEND = "numpy"

# fewest points per chunk for which a batch is split across the CPUs: below
# this a split call's time depends too much on how the CPUs are scheduled
SPLIT_MIN = 16384

# a block of levels holds about this many point-levels, and at most _BLOCK_MAX levels
_BLOCK_POINTS = 4096
_BLOCK_MAX = 32

_CPUS = len(os.sched_getaffinity(0))
_pool = None
_pool_lock = threading.Lock()


def _compose(level, depth, f, *inputs, rows=None, real=None):
    """Run the levels j = depth, ..., 1 of level (see `_levels`) from f; returns
    (values, status).

    With rows, values and status gain a leading axis of that length: row m
    holds the iterate after level rows - m, so the last row is the result.
    The batch plan: a batch of at least SPLIT_MIN points per CPU is cut into
    contiguous chunks, one per CPU, and each chunk into the points that real
    marks, which run on the real parts in float64, and the others.  A part
    that covers its chunk is the chunk's slice, so `_levels` gets views;
    otherwise it is an index array.  The parts of a split batch run on the
    kept workers, and each part's results fill its columns of the result.
    """
    shape = f.shape if rows is None else (rows, *f.shape)
    count = 1 if rows is None else rows
    f = f.ravel()
    inputs = [a.ravel() for a in inputs]
    real = None if real is None else real.ravel()
    chunks = max(1, min(_CPUS, f.size // SPLIT_MIN))
    plan = []               # (points, whether they run in float64)
    for c in range(chunks):
        cut = slice(f.size * c // chunks, f.size * (c + 1) // chunks)
        if real is None or not real[cut].any():
            plan.append((cut, False))
        elif real[cut].all():
            plan.append((cut, True))
        else:
            plan += [(cut.start + np.flatnonzero(real[cut]), True),
                     (cut.start + np.flatnonzero(~real[cut]), False)]

    def run(part):
        at, in_float = part
        args = [a.real[at] if in_float else a[at] for a in (f, *inputs)]
        return _levels(level, depth, count, args[0], args[1:])

    results = list((_executor().map if chunks > 1 else map)(run, plan))
    if len(plan) == 1 and not plan[0][1]:
        values, status = results[0]
    else:
        values, status = np.empty((count, f.size), f.dtype), np.empty((count, f.size), np.int8)
        for (at, _), (v, st) in zip(plan, results):
            values[:, at], status[:, at] = v, st
    return values.reshape(shape), status.reshape(shape)


def _executor():
    """The worker threads of split batches, one per CPU, started at the first
    split and kept: a split wakes waiting threads, which the scheduler puts
    on idle CPUs, where a thread started for each call could share the
    caller's.  The calling thread waits for them."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_CPUS, thread_name_prefix="betatet-kernel")
        return _pool


def _forget_pool():
    # a forked child has none of the parent's threads: it starts its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _levels(level, depth, count, f, inputs):
    """The level loop of `_compose` on flat arrays; values and status are (count, N).

    Each point runs alone: no step reduces across points, so a chunk gives
    the bits the whole batch would.  A point that stops records the first
    row its fill covers, its kept iterate and its status (start, kept and
    code; a non-finite input stops at row 0), and one pass fills them last.

    level(js, *inputs) computes the level-only terms of the levels js, a
    descending column of f's dtype, for every live point in one pass and
    returns (step, sing): step(b, f) applies level js[b] to f, and sing is
    the (len(js), N) singular mask.  A block runs the steps, then checks the
    guards on all its levels at once; points that stop are compacted away
    at its end together with their inputs, which stay named arrays: numpy
    may compute a product with a temporary operand in place, swapping the
    operands, and complex multiplication with FMA is not bitwise
    commutative, so gathering inside level would change last bits.  For
    the same reason a level writes each product with its temporary operand
    on the left, and lays out a complex product's operands alike in blocks
    of any length, so its bits depend on neither the batch nor the block.
    numpy's errstate is per thread, so it is set here.
    """
    values = np.repeat(f.reshape(1, -1), count, axis=0)
    kept, code = f.copy(), np.full(f.size, NONFINITE, np.int8)
    finite = np.logical_and.reduce([np.isfinite(a) for a in inputs])
    start = np.where(finite, count, 0)      # the first row a stop fills; count: none
    idx = np.flatnonzero(finite)
    inputs = [a[idx] for a in inputs]
    f = kept[idx]
    levels = np.arange(depth, 0, -1, dtype=f.dtype)[:, None]
    j = depth
    with np.errstate(all="ignore"):
        while j > 0 and idx.size:
            size = min(_block_length(idx.size), j)
            step, sing = level(levels[depth - j:depth - j + size], *inputs)
            outs = [step(0, f)]
            for b in range(1, size):
                outs.append(step(b, outs[-1]))
            del step                # frees the terms before the next block's
            if size == 1:           # views: a large batch makes no extra pass
                ins, fs = f[None], outs[0][None]
            else:
                both = np.stack([f, *outs])
                ins, fs = both[:-1], both[1:]
            # row b of ins and fs: the input and update of level j - b
            stop = sing | (ins.real > OVERFLOW_GUARD) | ~np.isfinite(fs)
            # level j - b is row count - j + b; rows start at level count
            first = max(j - count, 0)
            if first < size:
                values[count - j + first:count - j + size, idx] = fs[first:]
            f = fs[-1]
            if stop.any():
                keep = ~stop.any(axis=0)
                at = np.flatnonzero(~keep)
                b = stop[:, at].argmax(axis=0)
                start[idx[at]], kept[idx[at]] = count - j + b, ins[b, at]
                code[idx[at]] = np.where(sing[b, at], SINGULAR, SHORT_CIRCUIT)
                idx, f, inputs = idx[keep], f[keep], [a[keep] for a in inputs]
            j -= size
    status = np.zeros(values.shape, np.int8)
    if idx.size < status.shape[1]:      # a point stopped: fill its rows
        fill = np.arange(count)[:, None] >= start
        np.copyto(values, kept, where=fill)
        np.copyto(status, code, where=fill)
    return values, status


def _block_length(points):
    """Levels per block for this many live points: at most _BLOCK_MAX, and
    about _BLOCK_POINTS point-levels, so a batch of more than half that runs
    one level per block, where numpy's per-call cost is already small."""
    return min(_BLOCK_MAX, max(1, _BLOCK_POINTS // points))


def _beta_level(js, s, rate):
    """Level-only terms of the beta levels js over the points: (step, sing)."""
    # rate unbroadcast, one row per level: numpy's complex multiply takes
    # another loop, which may round otherwise, for an operand of stride 0
    x = (js - s) * (rate[None] if js.size == 1 else np.repeat(rate[None], js.size, axis=0))
    # past the overflow guard e^x itself would overflow: use e^{f - x}
    big = x.real > OVERFLOW_GUARD
    den = 1.0 + np.exp(x)
    some = big.any(axis=1)

    def step(b, f):
        fn = np.exp(f) / den[b]
        if some[b]:
            row = big[b]
            fn[row] = np.exp(f[row] - x[b, row])
        return fn

    return step, ~big & (np.abs(den) < SINGULAR_RADIUS)


def _beta(s, lam, depth, rows=None):
    """Beta recursion over an array of s; lam=None selects the variable rate
    (1/0 at s = -1, so that point is nonfinite)."""
    s = np.asarray(s, np.complex128)
    with np.errstate(all="ignore"):
        rate = 1.0 / np.sqrt(1.0 + s) if lam is None else np.full(s.shape, complex(lam))
    return _compose(_beta_level, depth, np.zeros(s.shape, np.complex128), s, rate, rows=rows,
                    real=(s.imag == 0) & (rate.imag == 0))


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


def g_comp_grid(w, lam, depth, f=None, rows=None):
    """Depth-n w-coordinate composition f <- w e^f/(e^{lambda j} + w) over an
    array of w, from f (default 0); rows as in beta_fixed_grid."""
    w = np.asarray(w, np.complex128)
    lam = complex(lam)

    def level(js, w):
        x = lam * js
        ej = np.exp(x)
        den = ej + w
        sing = np.abs(den) < SINGULAR_RADIUS * np.abs(ej)
        big = (x.real > OVERFLOW_GUARD).ravel().tolist()
        for b, over in enumerate(big):
            if over:
                # e^{lambda j} would overflow: w e^f/(e^x + w) = w e^{f-x}/(1 + w e^{-x})
                den[b], sing[b] = 1.0 + w * np.exp(-x[b, 0]), False

        def step(b, f):
            return (np.exp(f - x[b, 0]) if big[b] else np.exp(f)) * w / den[b]

        return step, sing

    f = np.zeros(w.shape, np.complex128) if f is None else np.broadcast_to(f, w.shape)
    return _compose(level, int(depth), f, w, rows=rows)


def available_backends():
    """Kernel backends in this build; numpy is the only one."""
    return [BACKEND]
