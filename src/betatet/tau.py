"""Logarithmic pullback iteration: the correction tau and the tetration F.

tau^k(s) is the depth-k truncation of log o ... o log beta(s+k) - beta(s),
computed by the descending recursion

    tau^{j+1}(s) = log(beta(s+1) + tau^j(s+1)) - beta(s)

with base tau^1(s) = -log(1 + e^{-lambda s}) for fixed lambda.  Three
numerical regimes are handled per level:

* beta(s+m+1) beyond double range: the correction tau/beta is below 1e-300,
  so the level collapses to the defect -log(1 + e^{-lambda a}) alone.
* small correction (|tau/beta| <= 1/2, fixed lambda): the algebraically
  identical form  defect + log(1 + tau/beta)  keeps every log argument near
  1, which is immune to principal-branch wraps.
* otherwise the literal form is used; where beta(s+m) itself is too large
  for the subtraction to survive rounding (|beta| > 1e8), the recursion
  switches to carrying G = beta + tau and descends by G <- log(G), which is
  exact in that zone.

F(s) = beta(s) + tau(s) satisfies F(s+1) = e^{F(s)} level-exactly.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .beta import BetaParams, beta_grid
from .errors import (
    NONFINITE,
    OK,
    SHORT_CIRCUIT,
    SINGULAR,
    ShortCircuit,
    raise_for_status,
)

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


def _beta_stacks(params, config, sf, count):
    """beta at sf + m for m = 0..count-1 in one kernel call."""
    mode = _mode(params, config)
    depth = config.k if mode == "matched" else config.n
    stack = np.concatenate([sf + m for m in range(count)])
    if mode == "variable":
        vals, st = beta_grid(BetaParams(lam="variable", depth=depth), stack)
    else:
        vals, st = beta_grid(BetaParams(lam=params.lam, depth=depth), stack)
    B = vals.reshape(count, sf.size)
    SB = st.reshape(count, sf.size)
    extra = None
    if mode == "matched":
        v2, s2 = beta_grid(BetaParams(lam=params.lam, depth=2), stack)
        extra = (v2.reshape(count, sf.size), s2.reshape(count, sf.size))
    return B, SB, extra


def _descend(sf, B, SB, B2, j, mode, lam):
    """One full descent for tau^j; returns (tau, F, status) arrays over sf.

    Uses stack rows 0..j (beta at sf..sf+j).  F is beta(s) + tau(s) assembled
    without re-subtracting when the G representation is active.
    """
    npts = sf.size
    status = np.zeros(npts, np.int8)
    grep = np.zeros(npts, bool)
    with np.errstate(all="ignore"):
        a = sf + (j - 1)
        d = _defect(a, lam)
        if mode == "fixed" or mode == "matched":
            if mode == "matched":
                bn2, sn2 = B2[0][j], B2[1][j]
                bp2, sp2 = B2[0][j - 1], B2[1][j - 1]
                okb = (sn2 == 0) & (sp2 == 0) & ~_on_cut(bn2)
                T = np.where(okb, np.log(np.where(okb, bn2, 1.0)) - bp2, d)
            else:
                T = d.copy() if isinstance(d, np.ndarray) else np.full(npts, d)
        else:
            bn, sn = B[j], SB[j]
            huge = (SB[j - 1] != 0) | (np.abs(B[j - 1]) > _G_SWITCH)
            lit = (sn == 0) & ~huge
            T = np.where(lit, np.log(np.where(sn == 0, bn, 1.0)) - B[j - 1], d)
            gsel = (sn == 0) & huge & ~_on_cut(bn)
            T = np.where(gsel, np.log(np.where(sn == 0, bn, 1.0)), T)
            grep |= gsel
            # both top levels out of range: keep the defect in tau form;
            # the correction is suppressed on the way down

        for m in range(j - 2, -1, -1):
            a = sf + m
            d = _defect(a, lam)
            live = status == 0
            bnext, snext = B[m + 1], SB[m + 1]

            # G representation: G_m = log(G_{m+1})
            gcur = live & grep
            cutg = gcur & _on_cut(T)
            status[cutg] = SHORT_CIRCUIT
            gcur &= ~cutg
            Tg = np.log(np.where(gcur, T, 1.0))

            # tau representation
            tcur = live & ~grep
            over = tcur & (snext == SHORT_CIRCUIT)
            fin = tcur & (snext == OK)
            poison = tcur & ((snext == SINGULAR) | (snext == NONFINITE))
            status[poison] = snext[poison]

            w = np.where(fin & (bnext != 0), T / np.where(bnext == 0, 1.0, bnext), np.inf)
            if mode == "fixed":
                use_ratio = fin & (np.abs(w) <= _RATIO_MAX)
            else:
                use_ratio = np.zeros(npts, bool)
            use_lit = fin & ~use_ratio
            arg = bnext + T
            cut = use_lit & _on_cut(arg)
            status[cut] = SHORT_CIRCUIT
            use_lit &= ~cut
            switch = use_lit & ((SB[m] != 0) | (np.abs(B[m]) > _G_SWITCH))
            use_lit &= ~switch

            Tt = np.where(over, d, T)
            Tt = np.where(use_ratio, d + np.log(1.0 + np.where(use_ratio, w, 0.0)), Tt)
            Tt = np.where(use_lit, np.log(np.where(use_lit | switch, arg, 1.0)) - B[m], Tt)
            Tt = np.where(switch, np.log(np.where(use_lit | switch, arg, 1.0)), Tt)
            grep = grep | switch
            T = np.where(status == 0, np.where(gcur, Tg, np.where(tcur, Tt, T)), T)

        # assemble tau and F; in G representation F is the carried value itself
        live = status == 0
        F = np.where(grep, T, B[0] + T)
        tau = np.where(grep, T - B[0], T)
        fstat = status.copy()
        badf = live & (SB[0] != 0)
        fstat[badf] = SB[0][badf]
        # tau itself only needs beta(s) when converting out of G representation
        tstat = status.copy()
        badt = live & grep & (SB[0] != 0)
        tstat[badt] = SB[0][badt]
    return tau, tstat, F, fstat


def _tau_f_grid(params, config, s):
    """(tau, tau_status, F, F_status) arrays; one descent at the configured k."""
    arr = np.atleast_1d(np.asarray(s, np.complex128))
    sf = arr.ravel()
    k = config.k
    if k == 0:
        b, sb = beta_grid(_beta_params_for(params, config), sf)
        z = np.zeros(sf.size, np.complex128)
        z0 = np.zeros(sf.size, np.int8)
        return (z.reshape(arr.shape), z0.reshape(arr.shape),
                b.reshape(arr.shape), sb.reshape(arr.shape))
    mode = _mode(params, config)
    lam = None if mode == "variable" else complex(params.lam)
    B, SB, B2 = _beta_stacks(params, config, sf, k + 1)
    tau, tst, F, fst = _descend(sf, B, SB, B2, k, mode, lam)
    return (tau.reshape(arr.shape), tst.reshape(arr.shape),
            F.reshape(arr.shape), fst.reshape(arr.shape))


def _beta_params_for(params, config):
    mode = _mode(params, config)
    depth = config.k if mode == "matched" else config.n
    return BetaParams(lam=params.lam, depth=max(1, depth))


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
    k = config.k
    if k == 0:
        report = ConvergenceReport((0.0,), None, 0.0, "tolerance")
        return 0j, report
    mode = _mode(params, config)
    lam = None if mode == "variable" else complex(params.lam)
    B, SB, B2 = _beta_stacks(params, config, sf, k + 1)

    taus = []
    residuals = []
    terminated = "budget"
    for j in range(1, k + 1):
        T, st, _, _ = _descend(sf, B, SB, B2, j, mode, lam)
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
