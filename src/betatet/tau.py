"""Logarithmic pullback iteration: the correction tau and the tetration F.

tau^k(s) is the depth-k truncation of log o ... o log beta(s+k) - beta(s),
computed by the descending recursion

    tau^{j+1}(s) = log(beta(s+1) + tau^j(s+1)) - beta(s).

The top level, at a = s + j - 1, has one rule per mode:

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

A depth-j descent reads the beta rows s + m for m = 0..j-1, and row j too in
variable mode (its top level).  For fixed lambda the rows 0..max(k,1)-1 are
the diagonal of one beta run at s + k - 1 of depth n + k - 1: row m is
beta_{n+m}(s+m), and row m+1 is exactly one beta level applied to row m, so
the rows are linked by beta(s+1) = e^{beta(s)}/(e^{-lambda s} + 1) as the
pullback assumes.  Variable lambda has a different rate in each row, so its
rows 0..k are separate depth-n runs.

F(s) = beta(s) + tau(s) satisfies F(s+1) = e^{F(s)} level-exactly.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NONFINITE, OK, SHORT_CIRCUIT, SINGULAR, raise_for_status

SCHEMES = ("fixed_n", "variable_lambda")

# ratio-form threshold: |tau/beta| above this falls back to the literal form
_RATIO_MAX = 0.5

# |beta| above this makes log(beta+tau) - beta lose the correction to rounding
_G_SWITCH = 1e8

_CUT_EPS = 1e-12


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
        if self.n < 1:
            raise ValueError("beta depth n must be >= 1")
        if self.k < 0:
            raise ValueError("tau depth k must be >= 0")


def _mode(params, config):
    if config.scheme == "variable_lambda" or params.is_variable:
        if not params.is_variable:
            raise ValueError("variable_lambda scheme requires BetaParams(lam='variable')")
        return "variable"
    return "fixed"


def _defect(a, lam):
    """-log(1 + e^{-lambda a}); the variable mode drifts lambda with a."""
    with np.errstate(all="ignore"):
        if lam is None:
            return -np.log(1.0 + np.exp(-a / np.sqrt(1.0 + a)))
        return -np.log(1.0 + np.exp(-lam * a))


def _on_cut(z):
    return ((z.real <= 0) & (np.abs(z.imag) <= _CUT_EPS * np.abs(z.real))) | (np.abs(z) < 1e-300)


def _stacks(params, config, sf):
    """(mode, lam, B, SB): the beta rows a depth-k descent over sf reads.

    B/SB hold beta(sf + m) and its status in row m.
    """
    mode = _mode(params, config)
    if params.depth != config.n:
        raise ValueError(f"BetaParams.depth={params.depth} differs from TauConfig.n={config.n}")
    k = config.k
    if mode == "fixed":
        lam, rows = complex(params.lam), max(k, 1)
        B, SB = _kernels.beta_fixed_grid(sf + (rows - 1), lam, config.n + rows - 1, rows)
        return mode, lam, B, SB
    stack = np.concatenate([sf + m for m in range(k + 1)])
    vals, st = _kernels.beta_variable_grid(stack, config.n)
    return mode, None, vals.reshape(k + 1, sf.size), st.reshape(k + 1, sf.size)


def _step(T, grep, status, nxt, cur, d, ratio):
    """One pullback level below the top: (T, grep) at a = s + m from level m + 1.

    T is tau, or G = beta + tau where grep is set; nxt and cur are the
    (values, status) of beta(a+1) and beta(a), d the defect at a.  status is
    updated in place, and failed points keep their T.
    """
    bn, sn = nxt
    b, sb = cur
    live = status == OK
    taus = live & ~grep
    over = taus & (sn == SHORT_CIRCUIT)
    poison = taus & ((sn == SINGULAR) | (sn == NONFINITE))
    status[poison] = sn[poison]
    fin = taus & (sn == OK)
    w = T / bn
    rat = fin & (np.abs(w) <= _RATIO_MAX) & ratio
    lit = fin & ~rat
    # one log for every form; a ratio argument 1 + w has Re >= 1/2, never on the cut
    z = np.where(grep, T, np.where(rat, 1.0 + w, bn + T))
    cut = ((live & grep) | lit) & _on_cut(z)
    status[cut] = SHORT_CIRCUIT
    switch = lit & ~cut & ((sb != OK) | (np.abs(b) > _G_SWITCH))
    L = np.log(z)
    Tn = np.where(grep | switch, L, np.where(rat, d + L, np.where(over, d, L - b)))
    return np.where(status == OK, Tn, T), grep | switch


def _descend(sf, j, mode, lam, B, SB):
    """One full descent for tau^j; returns (tau, tau_status, F, F_status) over sf.

    F is beta(s) + tau(s) assembled without re-subtracting when the G
    representation is active.
    """
    npts = sf.size
    status = np.zeros(npts, np.int8)
    if j == 0:
        return np.zeros(npts, np.complex128), status, B[0], SB[0]
    grep = np.zeros(npts, bool)
    with np.errstate(all="ignore"):
        d = _defect(sf + (j - 1), lam)
        if mode == "fixed":
            T = d
        else:
            # not _step from tau = 0: its cut test would short-circuit a beta(s+j)
            # that underflowed to a denormal (finite log, taken by the literal) or
            # to zero beside a huge beta(s+j-1) (defect here): 864 of the 52,992
            # render_tet-window points at n=25, k=5
            ok = SB[j] == OK
            huge = (SB[j - 1] != OK) | (np.abs(B[j - 1]) > _G_SWITCH)
            L = np.log(np.where(ok, B[j], 1.0))
            grep = ok & huge & ~_on_cut(B[j])
            T = np.where(ok & ~huge, L - B[j - 1], np.where(grep, L, d))

        for m in range(j - 2, -1, -1):
            T, grep = _step(T, grep, status, (B[m + 1], SB[m + 1]), (B[m], SB[m]),
                            _defect(sf + m, lam), mode == "fixed")

        # assemble tau and F; in G representation F is the carried value itself,
        # and tau needs beta(s) only to convert out of it.  A singular or
        # non-finite beta(s) names the failure of a point that already failed
        bad = (status == OK) & (SB[0] != OK)
        own = (status != OK) & ((SB[0] == SINGULAR) | (SB[0] == NONFINITE))
        tstat = np.where((bad & grep) | own, SB[0], status)
        fstat = np.where(bad | own, SB[0], status)
    return np.where(grep, T - B[0], T), tstat, np.where(grep, T, B[0] + T), fstat


def _tau_f_grid(params, config, s):
    """(tau, tau_status, F, F_status) arrays; one descent at the configured k."""
    arr = np.atleast_1d(np.asarray(s, np.complex128))
    sf = arr.ravel()
    out = _descend(sf, config.k, *_stacks(params, config, sf))
    return tuple(x.reshape(arr.shape) for x in out)


def tau_grid(params, config, s):
    """Vectorized tau; returns (values, status)."""
    tau, tst, _, _ = _tau_f_grid(params, config, s)
    return tau, tst


def F_grid(params, config, s):
    """Vectorized F = beta + tau; returns (values, status)."""
    _, _, F, fst = _tau_f_grid(params, config, s)
    return F, fst


def F_eval(params, config, s):
    """F(s) = beta(s) + tau(s) (scalar); raises on any failure status."""
    _, _, F, fst = _tau_f_grid(params, config, np.array([complex(s)]))
    raise_for_status(fst[0], "F evaluation")
    return complex(F[0])
