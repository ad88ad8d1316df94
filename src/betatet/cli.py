"""Command-line interface: eval, taylor, plot, line, calibrate, selftest.

Complex numbers are written as "a+bi" with optional parts ("2", "-3i",
"0.5+3i", "1e-2-0.7i"); lambda also accepts the literal "variable" for the
drifting-exponent family.  Exit codes: 0 success, 1 evaluation failure
(signal name on stderr), 2 flag errors.
"""

import argparse
import re
import sys

import numpy as np

from .beta import VARIABLE, f_eval, g_eval, taylor_coefficients
from .errors import BetaTetError, raise_for_status
from .render import (FUNCTIONS, Overlay, RenderSpec, _evaluate_fn, check_lam, export_real_line,
                     render_hue, write_csv)
from .tetration import PROFILES, get_model


def parse_complex(text):
    """Parse 'a+bi' with optional real/imaginary parts ('j' works too)."""
    t = text.strip().replace(" ", "")
    return complex(t[:-1] + "j" if t.endswith("i") else t)


def parse_lambda(text):
    if text.strip().lower() == VARIABLE:
        return VARIABLE
    return parse_complex(text)


def format_complex(z):
    """Round-trippable rendering fed back through parse_complex."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _window(text):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be re_min,re_max,im_min,im_max")
    return tuple(parts)


def _resolution(text):
    m = re.match(r"^(\d+)x(\d+)$", text.strip())
    if not m:
        raise argparse.ArgumentTypeError("resolution must look like 800x600")
    return (int(m.group(1)), int(m.group(2)))


# let option values like "-1,1,-1,1" or "-40" or "-1+2i" pass as values
_NEGATIVE_VALUE = re.compile(r"^-\d[\d.,+\-eEij]*$")


def _permissive(parser):
    parser._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def build_parser():
    p = _permissive(argparse.ArgumentParser(
        prog="betatet", description="tetration via asymptotic exponential families"))
    sub = p.add_subparsers(dest="command", required=True)

    pe = _permissive(sub.add_parser("eval", help="evaluate one function at one point"))
    pe.add_argument("fn", choices=FUNCTIONS)
    pe.add_argument("--lambda", dest="lam", type=parse_lambda, default=None,
                    help="complex 'a+bi' or the literal 'variable'")
    pe.add_argument("--s", dest="point", type=parse_complex, required=True,
                    help="evaluation point (w-coordinate for g and f)")
    pe.add_argument("--depth", type=int, default=100)
    pe.add_argument("--tau-depth", type=int, default=10)
    pe.add_argument("--profile", choices=PROFILES, default="default",
                    help="tet calibration profile")

    pt = _permissive(sub.add_parser("taylor", help="print Taylor derivatives a_k of g"))
    pt.add_argument("--lambda", dest="lam", type=parse_complex, required=True)
    pt.add_argument("--terms", type=int, required=True)

    pp = _permissive(sub.add_parser("plot", help="domain-coloring render to PPM (P6)"))
    pp.add_argument("--fn", choices=FUNCTIONS, required=True)
    pp.add_argument("--lambda", dest="lam", type=parse_lambda, default=None)
    pp.add_argument("--window", type=_window, required=True,
                    help="re_min,re_max,im_min,im_max")
    pp.add_argument("--res", type=_resolution, required=True, help="WIDTHxHEIGHT")
    pp.add_argument("--out", required=True)
    pp.add_argument("--depth", type=int, default=25)
    pp.add_argument("--tau-depth", type=int, default=5)
    pp.add_argument("--grid-lines", action="store_true")
    pp.add_argument("--unit-disk", action="store_true")
    pp.add_argument("--origin-marker", action="store_true")

    pl = _permissive(sub.add_parser("line", help="sample a function on a real interval to CSV"))
    pl.add_argument("--fn", choices=[*FUNCTIONS, "slog"], required=True)
    pl.add_argument("--lambda", dest="lam", type=parse_lambda, default=None)
    pl.add_argument("--from", dest="start", type=float, required=True)
    pl.add_argument("--to", dest="stop", type=float, required=True)
    pl.add_argument("--samples", type=int, required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--depth", type=int, default=100)
    pl.add_argument("--tau-depth", type=int, default=10)

    pc = _permissive(sub.add_parser("calibrate", help="print the normalization shift x0"))
    pc.add_argument("--profile", choices=PROFILES, default="default")

    ps = _permissive(sub.add_parser("selftest", help="run the acceptance suite"))
    ps.add_argument("--profile", choices=PROFILES, default="high")
    ps.add_argument("--out-dir", default=None,
                    help="directory for render artifacts (default: temp dir)")
    return p


def _cmd_eval(args):
    fn, z = args.fn, args.point
    if fn in ("g", "f"):
        check_lam(fn, args.lam)
        value = (g_eval if fn == "g" else f_eval)(args.lam, z)
    else:
        depth, tau_depth = PROFILES[args.profile] if fn == "tet" else (args.depth, args.tau_depth)
        values, status = _evaluate_fn(fn, args.lam, depth, tau_depth, None, np.array([z]))
        raise_for_status(status[0], f"{fn} at s={z}")
        value = values[0]
    print(format_complex(value))
    return 0


def _cmd_taylor(args):
    series = taylor_coefficients(args.lam, args.terms)
    for k, a in enumerate(series.coefficients):
        print(f"a_{k} = {format_complex(a)}")
    return 0


def _cmd_plot(args):
    spec = RenderSpec(window=args.window, resolution=args.res, fn=args.fn,
                      lam=args.lam, depth=args.depth, tau_depth=args.tau_depth,
                      overlay=Overlay(grid_lines=args.grid_lines,
                                      unit_disk=args.unit_disk,
                                      origin_marker=args.origin_marker))
    buf = render_hue(spec)
    buf.save(args.out)
    print(f"wrote {args.out} ({buf.width}x{buf.height})")
    return 0


def _cmd_line(args):
    rows = export_real_line(args.fn, lam=args.lam, lo=args.start, hi=args.stop,
                            samples=args.samples, depth=args.depth,
                            tau_depth=args.tau_depth)
    write_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_calibrate(args):
    model = get_model(profile=args.profile)
    print(f"x0 = {model.x0!r}  (profile {args.profile}: n={model.n}, k={model.k})")
    return 0


def _cmd_selftest(args):
    from .acceptance import run_all

    results = run_all(profile=args.profile, out_dir=args.out_dir)
    failed = [r for r in results if not r.passed]
    return 1 if failed else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "taylor": _cmd_taylor,
        "plot": _cmd_plot,
        "line": _cmd_line,
        "calibrate": _cmd_calibrate,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except BetaTetError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
