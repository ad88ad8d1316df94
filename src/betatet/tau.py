"""Logarithmic pullback iteration: the correction tau and the tetration F.

tau^k(s) is the depth-k truncation of log o ... o log beta(s+k) - beta(s),
computed by the descending recursion

    tau^{j+1}(s) = log(beta(s+1) + tau^j(s+1)) - beta(s).

The top level, at a = s + j - 1, has one rule per mode:

* fixed lambda: the closed-form defect tau^1(a) = -log(1 + e^{-lambda a});
* variable lambda: the literal log beta(a+1) - beta(a) with no cut test, or
  G = log beta(a+1) where beta(a) is huge (see below), or the defect (with
  the drifting lambda) where beta(a+1) is not OK;
* matched: the literal on the depth-2 betas, or the defect where it fails.

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
variable mode (its top level).  So the stack holds rows 0..max(k,1)-1 for
fixed lambda and matched, and rows 0..k for variable lambda.

F(s) = beta(s) + tau(s) satisfies F(s+1) = e^{F(s)} level-exactly.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .beta import BetaParams, beta_grid
from .errors import NONFINITE, OK, SHORT_CIRCUIT, SINGULAR, ShortCircuit, raise_for_status

SCHEMES = ("fixed_n", "matched", "variable_lambda")

# residual level below which further pullback levels cannot move the result
EXIT_TOL = 1e-12

# ratio-form threshold: |tau/beta| above this falls back to the literal form
_RATIO_MAX = 0.5

# |beta| above this makes log(beta+tau) - beta lose the correction to rounding
_G_SWITCH = 1e8

_CUT_EPS = 1e-12


@dataclass(frozen=True)
class TauConfig:
    """Depth profile for the pullback: beta depth n, tau depth k, scheme.

    The matched scheme ties the beta depth to the tau depth (n is ignored,
    every level evaluates beta at depth k, and the base level uses depth 2).
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


@dataclass(frozen=True)
class ConvergenceReport:
    residual_history: tuple
    contraction_estimate: float | None
    majorant: float
    terminated_by: str          # "tolerance" | "budget" | "short_circuit"

    def __post_init__(self):
        if len(self.residual_history) == 0:
            raise ValueError("residual_history must be non-empty")
        if self.contraction_estimate is not None and len(self.residual_history) < 2:
            raise ValueError("contraction_estimate requires >= 2 residuals")


def _mode(params, config):
    if config.scheme == "matched" and params.is_variable:
        raise ValueError("matched scheme requires a fixed lambda")
    if config.scheme == "variable_lambda" or params.is_variable:
        if not params.is_variable:
            raise ValueError("variable_lambda scheme requires BetaParams(lam='variable')")
        return "variable"
    return "matched" if config.scheme == "matched" else "fixed"


def _defect(a, lam):
    """-log(1 + e^{-lambda a}); the variable mode drifts lambda with a."""
    with np.errstate(all="ignore"):
        if lam is None:
            return -np.log(1.0 + np.exp(-a / np.sqrt(1.0 + a)))
        return -np.log(1.0 + np.exp(-lam * a))


def _on_cut(z):
    return ((z.real <= 0) & (np.abs(z.imag) <= _CUT_EPS * np.abs(z.real))) | (np.abs(z) < 1e-300)


def _stacks(params, config, sf):
    """(mode, lam, B, SB, B2): the beta rows a depth-k descent over sf reads.

    B/SB hold beta(sf + m) and its status in row m; B2 holds the matched
    scheme's depth-2 rows 0..k (None in the other modes).
    """
    mode = _mode(params, config)
    k = config.k

    def rows(depth, count):
        stack = np.concatenate([sf + m for m in range(count)])
        vals, st = beta_grid(BetaParams(lam=params.lam, depth=depth), stack)
        return vals.reshape(count, sf.size), st.reshape(count, sf.size)

    depth = max(1, k) if mode == "matched" else config.n
    B, SB = rows(depth, k + 1 if mode == "variable" else max(k, 1))
    B2 = rows(2, k + 1) if mode == "matched" else None
    lam = None if mode == "variable" else complex(params.lam)
    return mode, lam, B, SB, B2


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


def _descend(sf, j, mode, lam, B, SB, B2):
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
        elif mode == "matched":
            V2, S2 = B2
            okb = (S2[j] == OK) & (S2[j - 1] == OK) & ~_on_cut(V2[j])
            T = np.where(okb, np.log(np.where(okb, V2[j], 1.0)) - V2[j - 1], d)
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
        # and tau needs beta(s) only to convert out of it
        bad = (status == OK) & (SB[0] != OK)
        tstat = np.where(bad & grep, SB[0], status)
        fstat = np.where(bad, SB[0], status)
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


def tau_iterate(params, config, s, exit_tol=EXIT_TOL):
    """tau at depth k with per-level residual diagnostics (scalar).

    Returns (value, ConvergenceReport).  Residual_history[i] is
    |tau^{i+1} - tau^i| (tau^0 = 0); iteration stops early once a residual
    drops below exit_tol.  A short-circuit mid-descent is recorded in the
    report rather than raised; singular/NaN stack entries raise.
    """
    sc = complex(s)
    sf = np.array([sc], np.complex128)
    stacks = _stacks(params, config, sf)
    if config.k == 0:
        return 0j, ConvergenceReport((0.0,), None, 0.0, "tolerance")

    taus = []
    residuals = []
    terminated = "budget"
    for j in range(1, config.k + 1):
        T, st, _, _ = _descend(sf, j, *stacks)
        code = int(st[0])
        if code in (SINGULAR, NONFINITE):
            raise_for_status(code, f"beta stack at level {j}")
        if code == SHORT_CIRCUIT:
            terminated = "short_circuit"
            if not taus:
                taus.append(complex(T[0]))
                residuals.append(abs(taus[0]))
            break
        taus.append(complex(T[0]))
        prev = taus[-2] if len(taus) > 1 else 0j
        residuals.append(abs(taus[-1] - prev))
        if residuals[-1] < exit_tol:
            terminated = "tolerance"
            break

    value = taus[-1] if taus else 0j
    contraction = None
    if len(residuals) >= 2:
        pairs = [(residuals[i], residuals[i + 1]) for i in range(len(residuals) - 1)
                 if residuals[i] > 0]
        contraction = pairs[-1][1] / pairs[-1][0] if pairs else 0.0
    majorant = _majorant_diagnostic(params, config, sc)
    report = ConvergenceReport(tuple(residuals), contraction, majorant, terminated)
    return value, report


def _effective_lambda(params, s):
    if params.is_variable:
        return 1.0 / cmath.sqrt(1.0 + complex(s))
    return complex(params.lam)


def _majorant_diagnostic(params, config, s):
    lam_eff = _effective_lambda(params, s)
    base = math.exp(-lam_eff.real)
    q = min(0.99, base + 0.01)
    if not (base < q < 1.0):
        return 0.0
    try:
        p = majorant_p(params, s, q, max(1, config.k))
    except (ShortCircuit, ValueError):
        return 0.0
    return abs(cmath.exp(-lam_eff * complex(s))) * p


def F_eval(params, config, s):
    """F(s) = beta(s) + tau(s) (scalar); raises on any failure status."""
    _, _, F, fst = _tau_f_grid(params, config, complex(s))
    code = int(np.atleast_1d(fst).ravel()[0])
    raise_for_status(code, "F evaluation")
    return complex(np.atleast_1d(F).ravel()[0])


def majorant_p(params, s, q, terms):
    """Partial sum of sum_j q^j / |beta(s+1) ... beta(s+j)| (diagnostic bound).

    Terms whose running product has left double range are saturated at zero:
    overflow of the product implies underflow of the term.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    lam_eff = _effective_lambda(params, s)
    lo = math.exp(-lam_eff.real)
    if not (lo < q < 1.0):
        raise ValueError(f"q must lie in (e^(-Re lambda), 1) = ({lo:.6g}, 1)")
    sc = complex(s)
    stack = np.array([sc + j for j in range(1, terms + 1)], np.complex128)
    vals, st = beta_grid(params, stack)
    total = 0.0
    logprod = 0.0
    lnq = math.log(q)
    for j in range(1, terms + 1):
        code = int(st[j - 1])
        if code == SHORT_CIRCUIT:
            break  # product beyond double range: this and later terms underflow
        raise_for_status(code, f"beta(s+{j})")
        mag = abs(vals[j - 1])
        if mag == 0.0:
            raise ShortCircuit("majorant product hit a zero factor")
        logprod += math.log(mag)
        expo = j * lnq - logprod
        total += math.exp(expo) if expo < 700.0 else math.inf
    return total
