"""Acceptance suite: twelve quantitative checks with pinned tolerances.

Each criterion prints one pass/fail line.  run_all() is hermetic: it needs
no network and writes only into the given (or a temporary) directory.
"""

import math
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .beta import BetaParams, beta_grid, beta_periodicity_check, taylor_coefficients
from .errors import OK
from .render import RenderSpec, render_hue
from .tau import F_grid, TauConfig, tau_grid
from .tetration import calibrate, derivative_positivity_scan, exp_iter, slog_eval, tet_eval, tet_grid

LOG2 = math.log(2.0)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _grid(re_lo, re_hi, re_n, im_lo, im_hi, im_n):
    re = np.linspace(re_lo, re_hi, re_n)
    im = np.linspace(im_lo, im_hi, im_n)
    return (re[None, :] + 1j * im[:, None]).ravel()


def crit_functional_equation():
    """beta functional equation on a 21x5 grid for three lambdas, depth 100."""
    t0 = time.time()
    pts = _grid(-10, 2, 21, -1, 1, 5)
    worst = 0.0
    excluded = 0
    total = 0
    for lam in (LOG2, 1.0, 0.5 + 3j):
        params = BetaParams(lam=lam, depth=100)
        b0, s0 = beta_grid(params, pts)
        b1, s1 = beta_grid(params, pts + 1)
        ok = (s0 == OK) & (s1 == OK)
        total += pts.size
        excluded += int(np.sum(~ok))
        with np.errstate(all="ignore"):
            resid = np.abs(b1 * (1 + np.exp(-lam * pts)) - np.exp(b0))[ok]
        worst = max(worst, float(resid.max()))
    elapsed = time.time() - t0
    passed = worst < 1e-8 and elapsed < 5.0 and excluded <= 0.1 * total
    detail = (f"max residual {worst:.3e} < 1e-8 over {total - excluded}/{total} "
              f"evaluable points, {elapsed:.2f}s < 5s")
    return passed, detail


def crit_periodicity():
    """|beta(s + 2 pi i/lambda) - beta(s)| < 1e-10 at 10 sample points."""
    samples = [-5.0, -4.0, -3.0 + 0.5j, -2.0 - 0.5j, -1.0]
    worst = 0.0
    for lam in (LOG2, 1.0):
        params = BetaParams(lam=lam, depth=100)
        for s in samples:
            worst = max(worst, beta_periodicity_check(params, s))
    return worst < 1e-10, f"max residual {worst:.3e} < 1e-10 at 10 points"


def _taylor_oracle(lam, kmax, depth=100, radius=0.1, nodes=128):
    """Monomial coefficients of g by a discrete circle integral of beta."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    w = radius * np.exp(1j * theta)
    s = np.log(w) / lam
    vals, st = beta_grid(BetaParams(lam=lam, depth=depth), s)
    assert np.all(st == OK)
    return np.array([(vals * np.exp(-1j * k * theta)).mean() / radius ** k
                     for k in range(kmax + 1)])


def crit_taylor():
    """recursion coefficients a_1..a_6 vs circle-integral derivatives of g."""
    worst = 0.0
    for lam in (LOG2, 1.0):
        series = taylor_coefficients(lam, 6)
        oracle = _taylor_oracle(lam, 6)
        mono = series.monomial
        rel = np.abs(mono[1:7] - oracle[1:7]) / np.abs(oracle[1:7])
        worst = max(worst, float(rel.max()))
    return worst < 1e-6, f"max relative error {worst:.3e} < 1e-6 for k=1..6"


def crit_tau_convergence():
    """F^20 and F^40 agree to 1e-10 relative on [0.5,1.5]x[-0.5,0.5] and at s=1, 2, 1+0.5i."""
    params = BetaParams(lam=LOG2, depth=100)
    pts = np.append(_grid(0.5, 1.5, 101, -0.5, 0.5, 41), [1.0, 2.0, 1 + 0.5j])
    F20, s20 = F_grid(params, TauConfig(n=100, k=20), pts)
    F40, s40 = F_grid(params, TauConfig(n=100, k=40), pts)
    ok = (s20 == OK) & (s40 == OK)
    rel = np.abs(F20 - F40) / np.maximum(1.0, np.abs(F20))
    worst = float(rel[ok].max(initial=0.0))
    passed = bool(ok.all()) and worst <= 1e-10
    return passed, (f"max |F^20 - F^40|/max(1,|F^20|) = {worst:.1e} <= 1e-10 "
                    f"over {ok.sum()}/{pts.size} evaluable points")


def crit_tau_decay():
    """|tau10(3) + log(1 + e^{-3 lambda})| / e^{-3 lambda} < 0.1.

    At s = 3 the beta rows 0-2 are finite, so three levels run the descent;
    from s = 6 on every row short-circuits and tau is the defect itself.
    """
    params = BetaParams(lam=LOG2, depth=100)
    config = TauConfig(n=100, k=10)
    val, st = tau_grid(params, config, np.array([3.0]))
    ratio = abs(val[0] + math.log(1 + math.exp(-LOG2 * 3))) / math.exp(-LOG2 * 3)
    return st[0] == OK and ratio < 0.1, f"normalized defect residual {ratio:.3e} < 0.1 at s=3"


def crit_anchors(model, calib_seconds):
    """tet anchors at 0, 1, -1, 2; calibration plus anchors under 30 s."""
    t0 = time.time()
    a0 = abs(tet_eval(model, 0.0) - 1.0)
    a1 = abs(tet_eval(model, 1.0) - math.e)
    am = abs(tet_eval(model, -1.0))
    a2 = abs(tet_eval(model, 2.0) - math.e ** math.e)
    elapsed = calib_seconds + (time.time() - t0)
    passed = (a0 < 1e-10 and a1 < 1e-8 and am < 1e-8 and a2 < 1e-6
              and elapsed < 30.0)
    detail = (f"|tet(0)-1|={a0:.1e}, |tet(1)-e|={a1:.1e}, |tet(-1)|={am:.1e}, "
              f"|tet(2)-e^e|={a2:.1e}, {elapsed:.1f}s < 30s")
    return passed, detail, elapsed


def _tet_box(model):
    pts = _grid(-1.5, 2, 10, -1, 1, 5)
    v0, s0 = tet_grid(model, pts)
    return pts, v0, s0


def crit_tet_functional_equation(model):
    pts, v0, s0 = _tet_box(model)
    v1, s1 = tet_grid(model, pts + 1)
    ok = (s0 == OK) & (s1 == OK)
    with np.errstate(all="ignore"):
        resid = np.abs(v1 - np.exp(v0))[ok]
    worst = float(resid.max())
    return worst < 1e-6, f"max |tet(s+1) - e^tet(s)| = {worst:.3e} < 1e-6 ({ok.sum()}/{pts.size} pts)"


def crit_conjugate_symmetry(model):
    pts, v0, s0 = _tet_box(model)
    vc, sc = tet_grid(model, np.conj(pts))
    ok = (s0 == OK) & (sc == OK)
    worst = float(np.abs(vc - np.conj(v0))[ok].max())
    return worst < 1e-8, f"max |tet(conj s) - conj tet(s)| = {worst:.3e} < 1e-8"


def crit_nonvanishing(model):
    pts = _grid(-1.5, 2, 100, 0.1, 2, 100)
    v, st = tet_grid(model, pts)
    ok = st == OK
    low = float(np.abs(v[ok]).min())
    coverage = int(ok.sum())
    passed = low > 1e-3 and coverage >= 0.9 * pts.size
    return passed, f"min |tet| = {low:.4g} > 1e-3 over {coverage}/{pts.size} evaluable points"


def crit_bijection(model):
    scan = derivative_positivity_scan(model, -1.9, 3.0, 0.05)
    worst = 0.0
    for x in np.linspace(-1.5, 2.5, 17):
        tx = tet_eval(model, x).real
        worst = max(worst, abs(slog_eval(model, tx).real - x))
    passed = scan.all_positive and worst < 1e-6
    return passed, (f"derivative positive on [-1.9,3] (min {scan.min_derivative:.3g}); "
                    f"round-trip worst {worst:.1e} < 1e-6")


def crit_semigroup(model):
    half = abs(exp_iter(model, 0.5, exp_iter(model, 0.5, 0.5)) - math.exp(0.5))
    ident = abs(exp_iter(model, 0.0, 0.7) - 0.7)
    whole = abs(exp_iter(model, 1.0, 0.7) - math.exp(0.7))
    passed = half < 1e-6 and ident < 1e-8 and whole < 1e-8
    return passed, (f"half-step composition {half:.1e} < 1e-6, identity {ident:.1e}, "
                    f"whole step {whole:.1e} < 1e-8")


def crit_render(out_dir):
    t0 = time.time()
    spec = RenderSpec(window=(-1, 1, -1, 1), resolution=(800, 800), fn="f", lam=LOG2, depth=25)
    buf1 = render_hue(spec)
    buf2 = render_hue(spec)
    elapsed = time.time() - t0
    b1, b2 = buf1.to_ppm(), buf2.to_ppm()
    import os

    p1 = os.path.join(out_dir, "f_log2_a.ppm")
    p2 = os.path.join(out_dir, "f_log2_b.ppm")
    buf1.save(p1)
    buf2.save(p2)
    with open(p1, "rb") as fh:
        d1 = fh.read()
    with open(p2, "rb") as fh:
        d2 = fh.read()
    passed = (b1 == b2) and (d1 == d2) and elapsed < 60.0
    return passed, f"two 800x800 renders byte-identical ({len(b1)} bytes), {elapsed:.1f}s < 60s"


def run_all(profile="high", out_dir=None, printer=print):
    """Run every criterion; returns a list of CriterionResult."""
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="betatet-accept-")

    t0 = time.time()
    model = calibrate(profile=profile)
    calib_seconds = time.time() - t0

    results = []

    def run(number, name, fn, *args):
        t = time.time()
        out = fn(*args)
        if len(out) == 3:
            passed, detail, seconds = out
        else:
            passed, detail = out
            seconds = time.time() - t
        res = CriterionResult(number, name, bool(passed), detail, seconds)
        results.append(res)
        if printer:
            tag = "PASS" if res.passed else "FAIL"
            printer(f"[{tag}] {number:2d}. {name}: {detail} ({seconds:.2f}s)")
        return res

    run(1, "beta functional equation", crit_functional_equation)
    run(2, "beta periodicity", crit_periodicity)
    run(3, "Taylor coefficients vs derivative oracle", crit_taylor)
    run(4, "pullback convergence in k", crit_tau_convergence)
    run(5, "pullback defect decay", crit_tau_decay)
    run(6, "tetration anchors", crit_anchors, model, calib_seconds)
    run(7, "tetration functional equation", crit_tet_functional_equation, model)
    run(8, "conjugate symmetry", crit_conjugate_symmetry, model)
    run(9, "non-vanishing in the upper half-plane", crit_nonvanishing, model)
    run(10, "real bijection and inverse round trip", crit_bijection, model)
    run(11, "fractional-iteration semigroup", crit_semigroup, model)
    run(12, "render determinism and speed", crit_render, out_dir)

    if printer:
        bad = [r for r in results if not r.passed]
        printer(f"{len(results) - len(bad)}/{len(results)} criteria passed")
    return results
