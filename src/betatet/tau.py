"""Logarithmic pullback iteration: the correction tau and the tetration F.

tau^k(s) is the depth-k truncation of log o ... o log beta(s+k) - beta(s),
computed by the descending recursion

    tau^{j+1}(s) = log(beta(s+1) + tau^j(s+1)) - beta(s).

The top level, at a = s + j - 1, has one rule per family (lam is lambda, or
None for the variable family), and only a variable stack holds beta(a+1):

* fixed lambda: the closed-form defect tau^1(a) = -log(1 + e^{-lambda a});
* variable lambda: the literal log beta(a+1) - beta(a) with no cut test, or
  G = log beta(a+1) where beta(a) is huge (see below), or the defect (with
  the drifting lambda) where beta(a+1) is not OK.

Every level below the top takes one step with three numerical regimes:

* beta(s+m+1) beyond double range: the correction tau/beta is below 1e-300,
  so the level collapses to the defect -log(1 + e^{-lambda a}) alone.
* small correction (|tau/beta| <= 1/2, fixed lambda): the algebraically
  identical form  defect + log(1 + tau/beta)  keeps every log argument near
  1, which is immune to principal-branch wraps.
* otherwise the literal form is used; where beta(s+m) itself is too large
  for the subtraction to survive rounding (|beta| > 1e8), the recursion
  switches to carrying G = beta + tau and descends by G <- log(G), which is
  exact in that zone.  A literal or G log argument on the principal cut
  short-circuits the point.

What a level reads of the beta stack and of s alone (the defect at
a = s + m, and which beta rows are OK, short-circuited, poisoned or past
_G_SWITCH) does not depend on the carried value.  `_rows` computes it
before the descent, in one pass over the stack or, for the defect, over
blocks of levels as long as the kernels' (`_kernels._block_length`), and
each level reads its rows.

A depth-j descent reads the beta rows s + m for m = 0..j-1, and row j too for
variable lambda (its top level).  For fixed lambda the rows 0..max(k,1)-1 are
the diagonal of one beta run at s + k - 1 of depth n + k - 1: row m is
beta_{n+m}(s+m), and row m+1 is exactly one beta level applied to row m, so
the rows are linked by beta(s+1) = e^{beta(s)}/(e^{-lambda s} + 1) as the
pullback assumes.  Variable lambda has a different rate in each row, so its
rows 0..k are separate depth-n runs, and a real point's rows stop at its
first row that is not OK (`_variable_stack`): the rows above it would only
short-circuit, and a short-circuited row m + 1 reduces level m to the
defect whatever its value, so they are copies of that row.

So the descent does not start at the top when the top rows are
short-circuit at every point of the batch: it starts at the level m0 below
the lowest such row, from the defect D[m0] alone, and runs only levels
m0 - 1..0.  That is exact, not a cut-off: each level above m0 would return
its defect D[m] whatever it carried, leave the status OK and take no G
representation.  A real point at the high profile fails at row 4 or 5, so a
batch of them runs at most 4 levels instead of 19; a batch with any point
whose top row is not short-circuit (every render) runs them all.

F(s) = beta(s) + tau(s) satisfies F(s+1) = e^{F(s)} level-exactly.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .beta import _integer
from .errors import NONFINITE, OK, SHORT_CIRCUIT, SINGULAR, scalar

SCHEMES = ("fixed_n", "variable_lambda")

# ratio-form threshold: |tau/beta| above this falls back to the literal form
_RATIO_MAX = 0.5

# |beta| above this makes log(beta+tau) - beta lose the correction to rounding
_G_SWITCH = 1e8

_CUT_EPS = 1e-12

# variable stack rows run for every real point: its first row that is not OK
# is row 4 or 5 all over the tet base strip (x0 - 1, x0] (896 and 1,604 of
# 2,500 samples at the high profile), so a tet evaluation on real points
# never needs more; 6 is also the default profile's k + 1
_REAL_ROWS = 6


@dataclass(frozen=True)
class TauConfig:
    """Depth profile for the pullback: beta depth n, tau depth k, scheme.

    n must equal the BetaParams depth.  The scheme follows the family:
    fixed_n for a fixed lambda, and variable_lambda, which requires
    BetaParams(lam='variable').  Variable params select the variable descent
    under either scheme, so callers leave the default.
    """

    n: int = 100
    k: int = 10
    scheme: str = "fixed_n"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        object.__setattr__(self, "n", _integer(self.n, "beta depth n"))
        object.__setattr__(self, "k", _integer(self.k, "tau depth k"))
        if self.n < 1:
            raise ValueError("beta depth n must be >= 1")
        if self.k < 0:
            raise ValueError("tau depth k must be >= 0")


def _defect(a, lam):
    """-log(1 + u), u = e^{-lambda a}; lam None drifts lambda with a.

    Kahan's log1p: with w = 1 + u rounded, log(w) u / (w - 1) keeps the digits
    of u that the rounding drops, and where w is 1 the value is -u.  Runs under
    the caller's np.errstate, as its one caller, _rows, runs in _descend's.
    """
    u = np.exp(-a / np.sqrt(1.0 + a)) if lam is None else np.exp(-lam * a)
    w = 1.0 + u
    return np.negative(u, out=np.log(w) * (u / (1.0 - w)), where=w == 1.0)


def _on_cut(z):
    return ((z.real <= 0) & (np.abs(z.imag) <= _CUT_EPS * np.abs(z.real))) | (np.abs(z) < 1e-300)


def _stacks(params, config, sf):
    """(lam, B, SB): lambda, None for the variable family, and the beta rows
    a depth-k descent over sf reads, whose last is the top level's upper row.

    B/SB hold beta(sf + m) and its status in row m, except in a variable
    stack's rows above a real point's first row that is not OK: those are
    copies of that row (see `_variable_stack`).
    """
    if config.scheme == "variable_lambda" and not params.is_variable:
        raise ValueError("variable_lambda scheme requires BetaParams(lam='variable')")
    if params.depth != config.n:
        raise ValueError(f"BetaParams.depth={params.depth} differs from TauConfig.n={config.n}")
    if params.is_variable:
        return None, *_variable_stack(sf, config.n, config.k)
    rows = max(config.k, 1)
    return params.lam, *_kernels.beta_fixed_grid(sf + (rows - 1), params.lam,
                                                 config.n + rows - 1, rows)


def _variable_stack(sf, n, k):
    """(B, SB): rows 0..k of the variable beta stack over sf.

    A real point (Im s = 0, Re s > -1) runs its rows in float64, and beta
    rises with t along them: every level's exponent (j - t)/sqrt(1 + t)
    falls as t grows, so every iterate rises.  Once its row r trips the
    overflow guard, every row above r does too, and the descent reads none
    of their values (see `_step`).  So a real point's rows stop at r, and
    the rows above are copies of row r: its status and kept iterate, as the
    kernel fills the rows after a point stops.  (NaN rows would cost a
    one-point descent about 30 us: numpy takes a slower path after each
    operation that raises the invalid flag.)

    The first kernel call runs rows 0.._REAL_ROWS-1 of the real points and
    every row of the others; a second runs the rest only for the real
    points with no failure in those rows.  Both calls take their rows
    row-major, so a batch with no real point makes one call on the same
    stack as all k + 1 rows of sf.
    """
    real = (sf.imag == 0) & (sf.real > -1)
    low, other = min(k + 1, _REAL_ROWS), ~real
    s_other = sf[other]
    vals, st = _kernels.beta_variable_grid(np.concatenate(
        [sf + m for m in range(low)] + [s_other + m for m in range(low, k + 1)]), n)
    B = np.zeros((k + 1, sf.size), np.complex128)
    SB = np.zeros((k + 1, sf.size), np.int8)
    cut = low * sf.size
    B[:low], SB[:low] = vals[:cut].reshape(low, -1), st[:cut].reshape(low, -1)
    if low <= k:
        B[low:, other] = vals[cut:].reshape(k + 1 - low, s_other.size)
        SB[low:, other] = st[cut:].reshape(k + 1 - low, s_other.size)
        more = real & (SB[:low] == OK).all(axis=0)
        if more.any():
            vals, st = _kernels.beta_variable_grid(
                np.concatenate([sf[more] + m for m in range(low, k + 1)]), n)
            B[low:, more] = vals.reshape(k + 1 - low, -1)
            SB[low:, more] = st.reshape(k + 1 - low, -1)
    # copy a real point's first row that is not OK into every row above it,
    # which for a point that failed below low include the unset rows low..k
    bad = SB != OK
    first = np.where(real & bad.any(axis=0), bad.argmax(axis=0), k)
    src = np.minimum(np.arange(k + 1)[:, None], first)
    return np.take_along_axis(B, src, 0), np.take_along_axis(SB, src, 0)


class _Rows(NamedTuple):
    """The beta stack of a descent with its level-only terms, one row per
    level: D[m] is the defect at s + m and the masks read SB or |B|."""

    B: np.ndarray
    SB: np.ndarray
    D: list                 # of rows
    ok: np.ndarray          # SB == OK
    over: np.ndarray        # SB == SHORT_CIRCUIT
    poison: np.ndarray      # SB is SINGULAR or NONFINITE
    huge: np.ndarray        # beta not OK or beyond _G_SWITCH


def _rows(sf, j, lam, B, SB):
    """_Rows of the levels 0..j-1 of a descent over sf, on the stack rows they
    read: the terms that do not depend on the carried value.  The masks come
    from one pass over the stack, the defect from one per block of levels: on
    a large batch, one level per pass keeps each call's arrays as small as a
    plain level loop's."""
    size = _kernels._block_length(sf.size)
    D = [d for m in range(0, j, size)
         for d in _defect(sf + np.arange(m, min(m + size, j), dtype=sf.dtype)[:, None], lam)]
    ok = SB == OK
    return _Rows(B, SB, D, ok, SB == SHORT_CIRCUIT, (SB == SINGULAR) | (SB == NONFINITE),
                 ~ok | (np.abs(B) > _G_SWITCH))


def _step(T, grep, status, rows, m, ratio):
    """One pullback level below the top: (T, grep) at a = s + m from level m + 1.

    T is tau, or G = beta + tau where grep is set; rows holds beta(a+1) and
    beta(a) in rows m + 1 and m, and the defect at a in D[m].  status is
    updated in place, and failed points keep their T.
    """
    bn, b, d = rows.B[m + 1], rows.B[m], rows.D[m]
    live = status == OK
    taus = live & ~grep
    over = taus & rows.over[m + 1]
    poison = taus & rows.poison[m + 1]
    status[poison] = rows.SB[m + 1][poison]
    fin = taus & rows.ok[m + 1]
    w = T / bn
    rat = fin & (np.abs(w) <= _RATIO_MAX) & ratio
    lit = fin & ~rat
    # one log for every form; a ratio argument 1 + w has Re >= 1/2, never on the cut
    z = np.where(grep, T, np.where(rat, 1.0 + w, bn + T))
    cut = ((live & grep) | lit) & _on_cut(z)
    status[cut] = SHORT_CIRCUIT
    switch = lit & ~cut & rows.huge[m]
    L = np.log(z)
    Tn = np.where(grep | switch, L, np.where(rat, d + L, np.where(over, d, L - b)))
    return np.where(status == OK, Tn, T), grep | switch


def _descend(sf, j, lam, B, SB):
    """One descent for tau^j; returns (tau, tau_status, F, F_status) over sf.

    The descent starts at the lowest level m0 whose upper stack rows
    m0 + 1 .. top are SHORT_CIRCUIT at every point (the top row is the
    stack's last: j for variable lambda, j - 1 for fixed, so the variable
    top rule runs only where row j is not one of them), from T = D[m0]
    with no G representation.  That is exact: the top rule gives D[j - 1]
    where its row is not OK, and `_step` on a live, non-G point whose upper
    row is short-circuited gives D[m] whatever T is, with status and G flag
    unchanged, so every point enters level m0 - 1 as the full descent would.
    lam, None for variable lambda, selects `_step`'s ratio form.

    F is beta(s) + tau(s) assembled without re-subtracting when the G
    representation is active.
    """
    npts = sf.size
    status = np.zeros(npts, np.int8)
    if j == 0:
        return np.zeros(npts, np.complex128), status, B[0], SB[0]
    grep = np.zeros(npts, bool)
    # rows q.. are short-circuit at every point; a fixed stack has j rows
    q = len(SB)
    while q > 0 and (SB[q - 1] == SHORT_CIRCUIT).all():
        q -= 1
    top = q > j
    m0 = j - 1 if top else max(q - 1, 0)
    read = j + 1 if top else m0 + 1
    with np.errstate(all="ignore"):
        rows = _rows(sf, m0 + 1, lam, B[:read], SB[:read])
        T = rows.D[m0]
        if top:
            # not _step from tau = 0: its cut test would short-circuit a beta(s+j)
            # that underflowed to a denormal (finite log, taken by the literal) or
            # to zero beside a huge beta(s+j-1) (defect here): 864 of the 52,992
            # render_tet-window points at n=25, k=5
            ok, huge = rows.ok[j], rows.huge[j - 1]
            L = np.log(np.where(ok, B[j], 1.0))
            grep = ok & huge & ~_on_cut(B[j])
            T = np.where(ok & ~huge, L - B[j - 1], np.where(grep, L, T))

        for m in range(m0 - 1, -1, -1):
            T, grep = _step(T, grep, status, rows, m, lam is not None)

        # assemble tau and F; in G representation F is the carried value itself,
        # and tau needs beta(s) only to convert out of it.  A singular or
        # non-finite beta(s) names the failure of a point that already failed
        bad = (status == OK) & ~rows.ok[0]
        own = (status != OK) & rows.poison[0]
        tstat = np.where((bad & grep) | own, SB[0], status)
        fstat = np.where(bad | own, SB[0], status)
    return np.where(grep, T - B[0], T), tstat, np.where(grep, T, B[0] + T), fstat


def _tau_f_grid(params, config, s):
    """(tau, tau_status, F, F_status) arrays; one descent at the configured k."""
    arr = np.asarray(s, np.complex128)
    sf = arr.ravel()
    out = _descend(sf, config.k, *_stacks(params, config, sf))
    return tuple(x.reshape(arr.shape) for x in out)


def tau_grid(params, config, s):
    """Vectorized tau; returns (values, status) with the input shape."""
    tau, tst, _, _ = _tau_f_grid(params, config, s)
    return tau, tst


def F_grid(params, config, s):
    """Vectorized F = beta + tau; returns (values, status) with the input shape."""
    _, _, F, fst = _tau_f_grid(params, config, s)
    return F, fst


def F_eval(params, config, s):
    """F(s) = beta(s) + tau(s): F_grid of one, raising on a failure status."""
    return scalar(F_grid(params, config, complex(s)), "F evaluation")
