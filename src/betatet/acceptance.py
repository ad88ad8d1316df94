"""Acceptance suite: twelve quantitative checks with pinned tolerances.

Each criterion prints one pass/fail line.  run_all() is hermetic: it needs
no network and writes only into the given (or a temporary) directory.
"""

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .beta import BetaParams, beta_grid, taylor_coefficients
from .errors import OK
from .render import RenderSpec, render_hue
from .tau import F_grid, TauConfig, tau_grid
from .tetration import calibrate, exp_iter, slog_grid, tet_grid

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
        (b0, b1), (s0, s1) = beta_grid(BetaParams(lam=lam, depth=100), np.stack([pts, pts + 1]))
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
    """|beta(s + 2 pi i/lambda) - beta(s)| < 1e-10 at 10 sample points; a point
    without an OK status at both ends counts as inf."""
    samples = np.array([-5.0, -4.0, -3.0 + 0.5j, -2.0 - 0.5j, -1.0])
    worst = 0.0
    for lam in (LOG2, 1.0):
        params = BetaParams(lam=lam, depth=100)
        shifted = samples + 2j * math.pi / params.lam
        (b0, b1), (s0, s1) = beta_grid(params, np.stack([samples, shifted]))
        resid = np.where((s0 == OK) & (s1 == OK), np.abs(b1 - b0), np.inf)
        worst = max(worst, float(resid.max()))
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
    """tet anchors at 0, 1, -1, 2 (inf where the status is not OK); calibration
    plus anchors under 30 s."""
    t0 = time.time()
    v, st = tet_grid(model, np.array([0.0, 1.0, -1.0, 2.0]))
    a0, a1, am, a2 = np.where(st == OK, np.abs(v - [1.0, math.e, 0.0, math.e ** math.e]), np.inf)
    elapsed = calib_seconds + (time.time() - t0)
    passed = (a0 < 1e-10 and a1 < 1e-8 and am < 1e-8 and a2 < 1e-6
              and elapsed < 30.0)
    detail = (f"|tet(0)-1|={a0:.1e}, |tet(1)-e|={a1:.1e}, |tet(-1)|={am:.1e}, "
              f"|tet(2)-e^e|={a2:.1e}, {elapsed:.1f}s < 30s")
    return passed, detail


def cauchy_riemann_ok(evaluate):
    """Per point of the 36 x 20 grid over [-1.5,2] x [0.1,2]: an OK stencil and
    |f_y - i f_x| <= 1e-3 max(1, |f_x|), with central differences of step 1e-5.
    evaluate maps an array to (values, status) of its shape."""
    Z, h = _grid(-1.5, 2, 36, 0.1, 2, 20), 1e-5
    v, st = evaluate(Z + np.array([h, -h, 1j * h, -1j * h])[:, None])
    with np.errstate(all="ignore"):
        fx, fy = (v[0] - v[1]) / (2 * h), (v[2] - v[3]) / (2 * h)
        cr = np.abs(fy - 1j * fx) <= 1e-3 * np.maximum(1.0, np.abs(fx))
    return (st == OK).all(axis=0) & cr


def circle_mean_ok(evaluate, centres, r, nodes):
    """Per centre c: every status OK, and the mean of evaluate over `nodes` equally
    spaced points of |s - c| = r within 1e-8 max(1, |f(c)|) of f(c).

    The mean is the trapezoid rule for Cauchy's integral, so it equals f(c) for
    an f holomorphic on the disk; unlike Cauchy-Riemann it sees a cut that
    crosses the circle.  evaluate maps an array to (values, status) of its shape.
    """
    ring = np.append(r * np.exp(2j * np.pi * np.arange(nodes) / nodes), 0.0)
    v, st = evaluate(np.asarray(centres, np.complex128).ravel()[:, None] + ring)
    f = v[:, -1]
    with np.errstate(all="ignore"):
        close = np.abs(v[:, :-1].mean(axis=1) - f) <= 1e-8 * np.maximum(1.0, np.abs(f))
    return close & (st == OK).all(axis=1)


def analytic_radius(evaluate, xs, radii, nodes):
    """R(x) per real x: the largest of the radii such that at it and every smaller
    radius r, all statuses are OK and the trapezoid Cauchy coefficient
    c1(r) = mean of f(x + r e^{i theta}) e^{-i theta} / r over `nodes` equally
    spaced theta is within 1e-5 max(1, |f'(x)|) of the central difference
    f'(x) = (f(x + h) - f(x - h)) / 2h, h = 1e-5; 0 where the smallest fails.

    c1(r) is f'(x) for an f holomorphic on |s - x| <= r, so R(x) is a radius
    about x on which f behaves as holomorphic.  evaluate maps an array to
    (values, status) of its shape.
    """
    r = np.sort(np.asarray(radii, np.float64))
    unit = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    h = 1e-5
    xs = np.asarray(xs, np.float64).ravel()
    v, st = evaluate(xs[:, None] + np.append((r[:, None] * unit).ravel(), [h, -h]))
    circles = (xs.size, r.size, nodes)
    with np.errstate(all="ignore"):
        d = ((v[:, -2] - v[:, -1]) / (2 * h))[:, None]
        c1 = (v[:, :-2].reshape(circles) * unit.conj()).mean(axis=2) / r
        good = np.abs(c1 - d) <= 1e-5 * np.maximum(1.0, np.abs(d))
    good &= (st[:, :-2].reshape(circles) == OK).all(axis=2)
    good &= (st[:, -2:] == OK).all(axis=1)[:, None]
    return np.append(0.0, r)[np.logical_and.accumulate(good, axis=1).sum(axis=1)]


def crit_strip_boundary(model):
    """Strip-boundary defect |F(s+1) - e^{F(s)}| / max(1, |F(s+1)|) <= 1e-10 of
    the model's F at s = x0 - 1 + iy, y in [0.1, 2], at 35 or more of 39 points.

    Where it is not 0, tet jumps across Re s = 0 off the real axis.
    """
    s = model.x0 - 1 + 1j * np.linspace(0.1, 2.0, 39)
    (F0, F1), (s0, s1) = F_grid(model.params, model.config, np.stack([s, s + 1]))
    ok = (s0 == OK) & (s1 == OK)
    with np.errstate(all="ignore"):
        defect = np.abs(F1 - np.exp(F0)) / np.maximum(1.0, np.abs(F1))
    worst = float(defect[ok].max(initial=0.0))
    passed = worst <= 1e-10 and ok.sum() >= 35
    return passed, (f"max |F(s+1) - e^F(s)|/max(1,|F(s+1)|) = {worst:.3g} <= 1e-10 "
                    f"at s = x0-1+iy over {ok.sum()}/39 >= 35 OK points")


def crit_cauchy_riemann(model):
    """Cauchy-Riemann holds at 670 or more of the 720 criterion-9 grid points
    (0.9306, the share measured at the high profile)."""
    good = int(cauchy_riemann_ok(lambda z: tet_grid(model, z)).sum())
    return good >= 670, f"Cauchy-Riemann holds at {good}/720 >= 670 grid points"


def crit_nonvanishing(model):
    pts = _grid(-1.5, 2, 100, 0.1, 2, 100)
    v, st = tet_grid(model, pts)
    ok = st == OK
    low = float(np.abs(v[ok]).min())
    coverage = int(ok.sum())
    passed = low > 1e-3 and coverage >= 0.9 * pts.size
    return passed, f"min |tet| = {low:.4g} > 1e-3 over {coverage}/{pts.size} evaluable points"


def crit_bijection(model):
    """tet' > 0 by central differences (h = 1e-4) at the points of [-1.9, 3] in
    steps of 0.05, up to the first whose stencil is not OK, and slog(tet(x)) = x
    at 17 points of [-1.5, 2.5], a failed round trip counting as inf."""
    h = 1e-4
    xs = np.arange(-1.9, 3.025, 0.05)
    v, st = tet_grid(model, np.stack([xs + h, xs - h]))
    good = (st == OK).all(axis=0)
    stop = xs.size if good.all() else int(np.argmin(good))
    deriv = (v.real[0, :stop] - v.real[1, :stop]) / (2 * h)
    low = float(deriv.min()) if stop else math.nan
    x = np.linspace(-1.5, 2.5, 17)
    tv, ts = tet_grid(model, x)
    sv, ss = slog_grid(model, tv.real)
    worst = float(np.where((ts == OK) & (ss == OK), np.abs(sv.real - x), np.inf).max())
    passed = stop == xs.size and bool((deriv > 0).all()) and worst < 1e-6
    where = "[-1.9,3]" if stop == xs.size else f"[-1.9,{xs[stop]:g}), where the scan stopped"
    return passed, (f"derivative positive on {where} (min {low:.3g}); "
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
    bufs = [render_hue(spec), render_hue(spec)]
    elapsed = time.time() - t0
    ppm = [buf.to_ppm() for buf in bufs]
    copies = set(ppm)
    for tag, buf in zip("ab", bufs):
        path = os.path.join(out_dir, f"f_log2_{tag}.ppm")
        buf.save(path)
        with open(path, "rb") as fh:
            copies.add(fh.read())
    passed = len(copies) == 1 and elapsed < 60.0
    return passed, f"two 800x800 renders byte-identical ({len(ppm[0])} bytes), {elapsed:.1f}s < 60s"


def run_all(profile="high", out_dir=None, printer=print):
    """Run every criterion; returns a list of CriterionResult.

    A missing out_dir is created before the first criterion runs.
    """
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="betatet-accept-")
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.time()
    model = calibrate(profile=profile)
    calib_seconds = time.time() - t0

    criteria = [
        ("beta functional equation", crit_functional_equation),
        ("beta periodicity", crit_periodicity),
        ("Taylor coefficients vs derivative oracle", crit_taylor),
        ("pullback convergence in k", crit_tau_convergence),
        ("pullback defect decay", crit_tau_decay),
        ("tetration anchors", lambda: crit_anchors(model, calib_seconds)),
        ("strip boundary of F", lambda: crit_strip_boundary(model)),
        ("Cauchy-Riemann share of tet", lambda: crit_cauchy_riemann(model)),
        ("non-vanishing in the upper half-plane", lambda: crit_nonvanishing(model)),
        ("real bijection and inverse round trip", lambda: crit_bijection(model)),
        ("fractional-iteration semigroup", lambda: crit_semigroup(model)),
        ("render determinism and speed", lambda: crit_render(out_dir)),
    ]
    results = []
    for number, (name, check) in enumerate(criteria, 1):
        t = time.time()
        passed, detail = check()
        res = CriterionResult(number, name, bool(passed), detail, time.time() - t)
        results.append(res)
        if printer:
            tag = "PASS" if res.passed else "FAIL"
            printer(f"[{tag}] {number:2d}. {name}: {detail} ({res.seconds:.2f}s)")

    if printer:
        bad = [r for r in results if not r.passed]
        printer(f"{len(results) - len(bad)}/{len(results)} criteria passed")
    return results
