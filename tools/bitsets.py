"""Bit-for-bit check of betatet's values and statuses between two checkouts.

    python tools/bitsets.py dump SRC OUT.npz [--quick]
    python tools/bitsets.py compare A.npz B.npz
    python tools/bitsets.py against REV [--quick]

`dump` imports the betatet package of the checkout SRC (its src/ directory)
and saves each evaluation below to OUT.npz, values and statuses as separate
arrays.  Run it once per checkout, each in its own process, then `compare`,
which lists the arrays whose dtype, shape or bytes differ and exits 1 if any
do.  `against` does all three for the tree of git revision REV (a `git
archive` in a temporary directory) and this checkout, as it is on disk; it
exits as `compare` does, or 2 when REV is not a revision or a dump fails.
`--quick` keeps 12 evenly spaced points of each set but the repeats, the
stop points and the w edge points, which it keeps whole.

The evaluations:
* x0, the calibration table's values and tet_grid at both profiles on the
  render_tet pixel grid (144 x 92 over (-1.55, 2.05, -0.25, 2.05)), that
  grid moved by four seeded sub-pixel offsets, 5,000 seeded points of
  [-6, 6]x[-3, 3], the 4,001-point line [-1.9, 2], a shuffled set of
  repeats (the same point several periods apart and twice over, x+0j beside
  x-0j, two NaN payloads, +-inf and points on the cut) and one-point calls;
  slog_grid on linspace(0, 2.7, 271);
* variable tau_grid and F_grid at (n, k) = (25, 5), (100, 20), (8, 5),
  (25, 0), (25, 1) on a real set (3,501 points of [-5, 30] and edge points),
  500 seeded complex points of [-3, 6]x[-2, 2], a shuffled mix of both and
  2,500 points of the tet base strip;
* fixed-lambda tau_grid and F_grid at lambda = log 2, 0.5+3i and 0.25 and
  (n, k) = (25, 5), (25, 1), (100, 20) on the real, complex and mixed sets
  and the render_fixed pixel grid (142 x 82 over (0.475, 4.025, -1.025,
  1.025));
* beta_grid, variable at n = 25 and 100 and at lambda = log 2 and 0.5+3i
  with n = 25, on the real, complex and mixed sets and in one-point calls;
* g_grid and f_grid at lambda = log 2, 0.5+3i and 0.25 on w = e^{lambda s}
  over the complex set and the render_fixed pixel grid, and on the points
  0, -4 (singular at j = 2 for log 2), 1e300, nan and inf;
* every row the kernels return, past a stop too, which the pullback never
  reads: beta_fixed_grid at lambda = log 2 and 0.5+3i and variable _beta,
  each at n = 25 and 100 with rows = 5 (and rows = n for fixed lambda), on
  the real, complex and mixed sets and on the stop points (+-inf, NaN, -1,
  the lattice points m - i pi/lambda, overflow stops) as a batch and in
  one-point calls; g_comp_grid at lambda = log 2, 0.5+3i and 0.25, n = 25,
  rows = 5 and 25, from seeded start values, on w = e^{lambda s} over the
  complex set and on the w edge points, |w| near 1e300 among them;
* g_grid's values, statuses and push-out condition estimates at lambda =
  log 2, 0.5+3i, 0.25, 0.05 and 10 on 300 seeded w with |w| from 10 to 1e300;
* the six scalar evaluators, one call per point, as `scalar.<fn>.<family>.<set>`:
  the returned value (NaN where the call raised) and the status that the
  raised class stands for (0 where it returned).  beta_eval (variable and
  log 2, n = 25), F_eval ((n, k) = (25, 5)) and tet_eval (both profiles) run
  on the stop points, slog_eval on a few targets, g_eval and f_eval at
  lambda = log 2, 0.5+3i, 0.25 and 0.05 on the w edge points, the first
  singular points of g and f, 50, 1/50 and an ill-conditioned push-out and
  its reciprocal.  Together they raise every failure status.
"""

import argparse
import cmath
import io
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

VARIABLE_DEPTHS = [(25, 5), (100, 20), (8, 5), (25, 0), (25, 1)]
FIXED_DEPTHS = [(25, 5), (25, 1), (100, 20)]
FIXED_LAMBDAS = {"log2": math.log(2.0), "0.5+3i": 0.5 + 3j, "0.25": 0.25}
BETA_FAMILIES = [("variable", 25), ("variable", 100), ("log2", 25), ("0.5+3i", 25)]
W_EDGES = np.array([0.0, -4.0, 1e300, np.nan, np.inf], np.complex128)
KERNEL_DEPTHS = (25, 100)
COND_LAMBDAS = {**FIXED_LAMBDAS, "0.05": 0.05, "10": 10.0}
ONE_POINT = [0.3, 0.3 + 0.4j, -0.5 + 0.5j, 1.5, -1.5 + 0.2j, 2.5 + 1j, -2.5, 1.9 - 0.1j]
TET_WINDOW, TET_RES = (-1.55, 2.05, -0.25, 2.05), (144, 92)
FIXED_WINDOW, FIXED_RES = (0.475, 4.025, -1.025, 1.025), (142, 82)
QUICK_POINTS = 12
SHIFT_SEED = 22
SLOG_TARGETS = [0.0, 0.5, 1.0, math.e, 20.0, -0.5, -5.0, 1 + 1j, math.nan, math.inf, 1.88]
SCALAR_LAMBDAS = {**FIXED_LAMBDAS, "0.05": 0.05}


def _repeats(rng):
    """Points whose strip points s - ceil(Re s) + x0 repeat, shuffled.

    Dyadic real parts keep s + j - ceil(Re s + j) exact, so each point comes
    back shifted by j = -1, 1 and 3 periods; every fifth comes twice, and
    each real one with -0.0 in place of its zero imaginary part.  Two NaN
    payloads, +-inf and points on the cut (-inf, -2] ride along.
    """
    re = np.arange(-32, 32) / 32.0
    base = np.concatenate([re + 0.0j, re[::4] + 0.25j, re[::8] - 0.5j])
    pts = np.concatenate([base + j for j in (-1, 0, 1, 3)])
    twins = pts[pts.imag == 0].copy()
    twins.imag = -0.0
    nan = np.array([0x7FF8000000000001, 0x7FF8000000000002], np.int64).view(np.float64)
    odd = [complex(nan[0], 0.0), complex(nan[1], 0.0), complex(0.5, nan[0]),
           np.inf, -np.inf, complex(np.inf, 1.0), -2.0, -3.5, complex(-2.5, -0.0)]
    pts = np.concatenate([pts, pts[::5], twins, odd])
    rng.shuffle(pts)
    return pts


def _stops():
    """Points at which the beta kernel stops: +-inf, NaN, -1 (the variable
    rate's pole), the singular lattice points m - i pi/lambda for log 2 and
    0.5+3i, and overflow stops at large Re s, beside a few that run through."""
    lattice = [m - 1j * math.pi / FIXED_LAMBDAS[name] for name in ("log2", "0.5+3i")
               for m in range(1, 6)]
    odd = [np.inf, -np.inf, complex(0.5, np.inf), np.nan, complex(0.5, np.nan), -1.0,
           6.0, 8.5, 30.0, 700.0, 1e300, 6 + 0.3j, 12 - 2j, 40 + 1j, 0.0, -0.5 + 0.5j, 2 + 1j]
    return np.array(lattice + odd, np.complex128)


def _w_stops(lam):
    """The w edge points, more with |w| near 1e300, and -e^{3 lambda}, singular at j = 3."""
    more = [-1e300, 1e300j, 7e299 - 7e299j, -np.exp(3 * lam), complex(np.nan, 1.0)]
    return np.concatenate([W_EDGES, np.array(more, np.complex128)])


def _scalar_w(lam):
    """The w edge points, -e^lambda and -e^{-lambda} (singular for g and f),
    50 and 1/50 (short circuits at log 2) and 76.66+1035.67i (ill-conditioned
    at 0.05) with its reciprocal."""
    far = 76.66 + 1035.67j
    more = [-cmath.exp(lam), -cmath.exp(-lam), 50, 1 / 50, far, 1 / far]
    return np.concatenate([W_EDGES, np.array(more, np.complex128)])


def _point_sets(pixel_grid, RenderSpec, quick):
    rng = np.random.default_rng(2020)

    def box(count, re, im):
        return rng.uniform(*re, count) + 1j * rng.uniform(*im, count)

    reals = np.concatenate([np.linspace(-5, 30, 3501),
                            [-1, -1.5, -0.999999, np.inf, -np.inf, np.nan, 1e300, 700]])
    mixed = np.concatenate([reals[::7], box(300, (-3, 6), (-2, 2))])
    rng.shuffle(mixed)
    sets = {
        "render": pixel_grid(RenderSpec(window=TET_WINDOW, resolution=TET_RES, fn="tet")),
        "box": box(5000, (-6, 6), (-3, 3)),
        "line": np.linspace(-1.9, 2.0, 4001),
        "slog": np.linspace(0.0, 2.7, 271),
        "real": reals,
        "complex": box(500, (-3, 6), (-2, 2)),
        "mixed": mixed,
        # the tet base strip (x0 - 1, x0], x0 = 1.9696377404205747 at both profiles
        "strip": np.linspace(0.9696377404205747, 1.9696377404205747, 2501)[1:],
        "window": pixel_grid(RenderSpec(window=FIXED_WINDOW, resolution=FIXED_RES, fn="F",
                                        lam=FIXED_LAMBDAS["log2"])),
    }
    far = np.random.default_rng(2021)
    sets["far"] = 10.0 ** far.uniform(1, 300, 300) * np.exp(2j * math.pi * far.random(300))
    # sub-pixel shifts drawn as the benchmark's render_tet workload draws them
    re0, re1, im0, im1 = TET_WINDOW
    dre, dim = (re1 - re0) / TET_RES[0], (im1 - im0) / TET_RES[1]
    for i, (u, v) in enumerate(np.random.default_rng(SHIFT_SEED).random((4, 2))):
        window = (re0 + u * dre, re1 + u * dre, im0 + v * dim, im1 + v * dim)
        sets[f"render.shift{i}"] = pixel_grid(RenderSpec(window=window, resolution=TET_RES,
                                                         fn="tet"))
    if quick:
        sets = {name: pts.ravel()[np.linspace(0, pts.size - 1, QUICK_POINTS).astype(int)]
                for name, pts in sets.items()}
    sets["repeats"] = _repeats(rng)
    sets["stops"] = _stops()
    return sets


def dump(src, out, quick=False):
    root = Path(src).resolve()
    sys.path.insert(0, str(root / "src"))
    import betatet
    from betatet import (VARIABLE, BetaParams, BetaTetError, F_eval, F_grid, TauConfig, _kernels,
                         beta_eval, beta_grid, f_eval, g_eval, tau_grid)
    from betatet.beta import _g_points, f_grid, g_grid
    from betatet.errors import _STATUS_EXC
    from betatet.render import RenderSpec, pixel_grid
    from betatet.tetration import get_model, slog_eval, slog_grid, tet_eval, tet_grid

    if root not in Path(betatet.__file__).resolve().parents:
        raise SystemExit(f"betatet was imported from {betatet.__file__}, not from {root}")
    sets = _point_sets(pixel_grid, RenderSpec, quick)
    arrays = {}

    def put(name, result):
        arrays[f"{name}.v"], arrays[f"{name}.st"] = (np.asarray(a) for a in result)

    code_of = {exc: code for code, exc in _STATUS_EXC.items()}

    def put_scalar(name, scalar, points):
        values = np.full(len(points), np.nan, np.complex128)
        status = np.zeros(len(points), np.int8)
        for i, z in enumerate(np.asarray(points, np.complex128).tolist()):
            try:
                values[i] = scalar(z)
            except BetaTetError as exc:
                status[i] = code_of[type(exc)]
        put(f"scalar.{name}", (values, status))

    for profile in ("default", "high"):
        model = get_model(profile)
        arrays[f"x0.{profile}"] = np.array(model.x0)
        arrays[f"table_v.{profile}"] = model.table_v
        for name in ("render", *(f"render.shift{i}" for i in range(4)), "box", "line",
                     "repeats"):
            put(f"tet.{profile}.{name}", tet_grid(model, sets[name]))
        put(f"tet.{profile}.one_point",
            map(np.array, zip(*(tet_grid(model, complex(s)) for s in ONE_POINT))))
        put(f"slog.{profile}", slog_grid(model, sets["slog"]))
        put_scalar(f"tet.{profile}.stops", lambda s: tet_eval(model, s), sets["stops"])
        put_scalar(f"slog.{profile}.targets", lambda z: slog_eval(model, z), SLOG_TARGETS)
    for family, lam in (("variable", VARIABLE), ("log2", FIXED_LAMBDAS["log2"])):
        params, config = BetaParams(lam=lam, depth=25), TauConfig(n=25, k=5)
        put_scalar(f"beta.{family}.25.stops", lambda s: beta_eval(params, s), sets["stops"])
        put_scalar(f"F.{family}.25-5.stops", lambda s: F_eval(params, config, s), sets["stops"])
    for family, lam in SCALAR_LAMBDAS.items():
        put_scalar(f"g.{family}.w", lambda w: g_eval(lam, w), _scalar_w(lam))
        put_scalar(f"f.{family}.w", lambda w: f_eval(lam, w), _scalar_w(lam))
    families = [("variable", VARIABLE, VARIABLE_DEPTHS, ("real", "complex", "mixed", "strip"))]
    families += [(name, lam, FIXED_DEPTHS, ("real", "complex", "mixed", "window"))
                 for name, lam in FIXED_LAMBDAS.items()]
    for family, lam, depths, names in families:
        for n, k in depths:
            params, config = BetaParams(lam=lam, depth=n), TauConfig(n=n, k=k)
            for name in names:
                put(f"tau.{family}.{n}-{k}.{name}", tau_grid(params, config, sets[name]))
                put(f"F.{family}.{n}-{k}.{name}", F_grid(params, config, sets[name]))
    for family, n in BETA_FAMILIES:
        params = BetaParams(lam=FIXED_LAMBDAS.get(family, VARIABLE), depth=n)
        for name in ("real", "complex", "mixed"):
            put(f"beta.{family}.{n}.{name}", beta_grid(params, sets[name]))
        put(f"beta.{family}.{n}.one_point",
            map(np.array, zip(*(beta_grid(params, complex(s)) for s in ONE_POINT))))
    for family, lam in FIXED_LAMBDAS.items():
        ws = {"complex": np.exp(lam * sets["complex"]), "window": np.exp(lam * sets["window"]),
              "edges": W_EDGES}
        for name, w in ws.items():
            put(f"g.{family}.{name}", g_grid(lam, w))
            put(f"f.{family}.{name}", f_grid(lam, w))
    for family, lam in [("variable", None), ("log2", FIXED_LAMBDAS["log2"]),
                        ("0.5+3i", FIXED_LAMBDAS["0.5+3i"])]:
        for n in KERNEL_DEPTHS:
            for rows in (5,) if lam is None else (5, n):
                kernel = (lambda s: _kernels._beta(s, None, n, rows)) if lam is None else (
                    lambda s: _kernels.beta_fixed_grid(s, lam, n, rows))
                for name in ("real", "complex", "mixed", "stops"):
                    put(f"kernel.{family}.{n}.rows{rows}.{name}", kernel(sets[name]))
                put(f"kernel.{family}.{n}.rows{rows}.stops.one_point",
                    map(np.hstack, zip(*(kernel(s[None]) for s in sets["stops"]))))
    for family, lam in FIXED_LAMBDAS.items():
        ws = {"complex": np.exp(lam * sets["complex"]), "stops": _w_stops(lam)}
        for name, w in ws.items():
            start = np.random.default_rng(7)
            f0 = start.uniform(-1, 1, w.size) + 1j * start.uniform(-1, 1, w.size)
            for rows in (5, 25):
                put(f"kernel.w.{family}.rows{rows}.{name}",
                    _kernels.g_comp_grid(w, lam, 25, f0, rows))
    for family, lam in COND_LAMBDAS.items():
        values, status, cond = _g_points(lam, sets["far"])
        put(f"g.{family}.far", (values, status))
        arrays[f"cond.{family}.far"] = cond
    np.savez(out, **arrays)
    print(f"{len(arrays)} arrays from {root} to {out}")


def compare(a, b):
    """Names of the arrays that differ between dumps a and b (or are in one only)."""
    with np.load(a) as A, np.load(b) as B:
        names = sorted(set(A.files) | set(B.files))
        differ = [name for name in names
                  if name not in A.files or name not in B.files
                  or A[name].dtype != B[name].dtype or A[name].shape != B[name].shape
                  or A[name].tobytes() != B[name].tobytes()]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(names)} arrays differ")
    return differ


def against(rev, quick=False):
    """Dump the tree of git revision rev and this checkout, each in its own
    process, and compare them; None where rev is not a revision or a dump fails."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", rev], capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return None
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        for src, out in [(tmp / "rev", tmp / "rev.npz"), (root, tmp / "here.npz")]:
            dumped = subprocess.run([sys.executable, __file__, "dump", str(src), str(out)]
                                    + ["--quick"] * quick)
            if dumped.returncode:
                return None
        return compare(tmp / "rev.npz", tmp / "here.npz")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="evaluate the sets with the package of checkout SRC")
    p.add_argument("src")
    p.add_argument("out")
    p.add_argument("--quick", action="store_true",
                   help=f"keep {QUICK_POINTS} points of each set")
    p = sub.add_parser("compare", help="list the arrays whose bytes differ")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("against", help="dump git revision REV and this checkout and compare")
    p.add_argument("rev")
    p.add_argument("--quick", action="store_true",
                   help=f"keep {QUICK_POINTS} points of each set")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out, args.quick)
        return 0
    differ = compare(args.a, args.b) if args.command == "compare" else against(args.rev, args.quick)
    return 2 if differ is None else 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
