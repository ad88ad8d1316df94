"""Domain-coloring renders and real-line exports.

Color convention (fixed so output is byte-reproducible):

    hue       arg(v) / 2pi, wrapped to [0, 1); arg = 0 maps to red
    lightness L = 1 - 2^(-log(1 + |v|))   (natural log), clamped to [0, 1]
    saturation 1

HSL -> RGB uses the standard sextant formula: C = (1 - |2L - 1|) S,
X = C (1 - |(6H mod 2) - 1|), m = L - C/2, channel = round(255 (c + m)).
Failed pixels (singular point, short-circuit, NaN, branch cut) render as
mid-gray (128, 128, 128); |v| = 0 renders black.  Pixels are sampled at
cell centers, row-major, top row at the maximum imaginary part.

Renders, real-line exports and the CLI's eval (a grid of one) all evaluate
through _evaluate_fn, and check_lam holds its lambda rule.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .beta import VARIABLE, BetaParams, beta_grid
from .errors import OK, STATUS_NAMES, DOMAIN
from .tau import F_grid, TauConfig
from .tetration import get_model, slog_grid, tet_grid

FUNCTIONS = ("beta", "g", "f", "F", "tet")

GRAY = (128, 128, 128)


@dataclass(frozen=True)
class Overlay:
    grid_lines: bool = False
    unit_disk: bool = False
    origin_marker: bool = False


@dataclass(frozen=True)
class RenderSpec:
    """Window, resolution, and function selection for one render."""

    window: tuple                      # (re_min, re_max, im_min, im_max)
    resolution: tuple                  # (width, height)
    fn: str
    lam: complex | str | None = None
    depth: int = 25
    tau_depth: int = 5
    scheme: str | None = None
    overlay: Overlay = field(default_factory=Overlay)

    def __post_init__(self):
        re_min, re_max, im_min, im_max = self.window
        if not (re_min < re_max and im_min < im_max):
            raise ValueError("window must satisfy re_min < re_max and im_min < im_max")
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValueError("resolution must be >= 1x1")
        if self.fn not in FUNCTIONS:
            raise ValueError(f"fn must be one of {FUNCTIONS}")
        check_lam(self.fn, self.lam)
        if self.depth < 1 or self.tau_depth < 0:
            raise ValueError("invalid depth profile")


@dataclass(frozen=True, eq=False)
class PixelBuffer:
    width: int
    height: int
    data: np.ndarray      # (height, width, 3) uint8, top row = max Im

    def to_ppm(self):
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.data.tobytes()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_ppm())


def pixel_grid(spec):
    """Complex coordinates of pixel centers, row-major from the top."""
    re_min, re_max, im_min, im_max = spec.window
    w, h = spec.resolution
    dre = (re_max - re_min) / w
    dim = (im_max - im_min) / h
    re = re_min + (np.arange(w) + 0.5) * dre
    im = im_max - (np.arange(h) + 0.5) * dim
    return re[None, :] + 1j * im[:, None]


def check_lam(fn, lam):
    """The fn/lambda rule: beta and F need a lambda, g and f a fixed one."""
    if fn in ("beta", "F") and lam is None:
        raise ValueError(f"{fn} requires a lambda (a complex number or {VARIABLE!r})")
    if fn in ("g", "f") and (lam is None or lam == VARIABLE):
        raise ValueError(f"{fn} requires a fixed lambda")


def _evaluate_fn(fn, lam, depth, tau_depth, scheme, Z):
    """(values, status) of fn over Z."""
    check_lam(fn, lam)
    if fn == "beta":
        params = BetaParams(lam=lam, depth=depth)
        return beta_grid(params, Z)
    if fn == "g":
        return _kernels.g_comp_grid(Z, lam, depth)
    if fn == "f":
        zero = Z == 0
        with np.errstate(all="ignore"):
            vals, st = _kernels.g_comp_grid(np.where(zero, 1.0, 1.0 / Z), lam, depth)
        st[zero] = DOMAIN
        return vals, st
    if fn == "F":
        config = TauConfig(n=depth, k=tau_depth, scheme=scheme or "fixed_n")
        return F_grid(BetaParams(lam=lam, depth=depth), config, Z)
    if fn == "tet":
        return tet_grid(get_model(n=depth, k=tau_depth), Z)
    if fn == "slog":
        return slog_grid(get_model(n=depth, k=tau_depth), Z)
    raise ValueError(f"fn must be one of {FUNCTIONS} or 'slog' (real-line exports only)")


def _evaluate(spec, Z):
    return _evaluate_fn(spec.fn, spec.lam, spec.depth, spec.tau_depth, spec.scheme, Z)


def _hsl_to_rgb(h, lightness):
    """Vectorized HSL -> RGB with saturation 1; returns float arrays in [0,1]."""
    c = 1.0 - np.abs(2.0 * lightness - 1.0)
    hp = (h % 1.0) * 6.0
    x = c * (1.0 - np.abs(hp % 2.0 - 1.0))
    zeros = np.zeros_like(c)
    sextant = np.floor(hp).astype(int) % 6
    r = np.choose(sextant, [c, x, zeros, zeros, x, c])
    g = np.choose(sextant, [x, c, c, x, zeros, zeros])
    b = np.choose(sextant, [zeros, zeros, x, c, c, x])
    m = lightness - c / 2.0
    return r + m, g + m, b + m


def colorize(values, status):
    """Map complex values + status plane to (h, w, 3) uint8 pixels."""
    with np.errstate(all="ignore"):
        hue = np.angle(values) / (2.0 * np.pi)
        lightness = 1.0 - np.exp2(-np.log1p(np.abs(values)))
    lightness = np.clip(lightness, 0.0, 1.0)
    bad = (status != OK) | ~np.isfinite(lightness) | ~np.isfinite(hue)
    hue = np.where(bad, 0.0, hue)
    lightness = np.where(bad, 0.5, lightness)
    r, g, b = _hsl_to_rgb(hue, lightness)
    rgb = np.stack([r, g, b], axis=-1)
    out = np.rint(np.clip(rgb, 0.0, 1.0) * 255.0).astype(np.uint8)
    out[bad] = GRAY
    return out


def _apply_overlay(spec, Z, img):
    re_min, re_max, im_min, im_max = spec.window
    w, h = spec.resolution
    px = max((re_max - re_min) / w, (im_max - im_min) / h)
    ov = spec.overlay
    if ov.grid_lines:
        near_re = np.abs(Z.real - np.round(Z.real)) < 0.5 * px
        near_im = np.abs(Z.imag - np.round(Z.imag)) < 0.5 * px
        img[near_re | near_im] = (img[near_re | near_im] * 0.55).astype(np.uint8)
    if ov.unit_disk:
        ring = np.abs(np.abs(Z) - 1.0) < 0.75 * px
        img[ring] = (255, 255, 255)
    if ov.origin_marker:
        near0 = (np.abs(Z.real) < 4 * px) & (np.abs(Z.imag) < 4 * px)
        checker = ((np.floor(Z.real / px) + np.floor(Z.imag / px)) % 2).astype(bool)
        img[near0 & checker] = (0, 0, 0)
        img[near0 & ~checker] = (255, 255, 255)
    return img


def render_hue(spec):
    """Render a RenderSpec to a PixelBuffer (deterministic byte-for-byte)."""
    Z = pixel_grid(spec)
    values, status = _evaluate(spec, Z)
    img = colorize(values, status)
    img = _apply_overlay(spec, Z, img)
    w, h = spec.resolution
    return PixelBuffer(width=w, height=h, data=np.ascontiguousarray(img))


def export_real_line(fn, lam=None, lo=0.0, hi=1.0, samples=100, depth=100,
                     tau_depth=10):
    """Uniformly sample a function on [lo, hi]; failures become marker rows.

    Returns a list of (x, value-or-None, status-name) tuples.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    xs = np.linspace(lo, hi, samples)
    values, status = _evaluate_fn(fn, lam, depth, tau_depth, None,
                                  xs.astype(np.complex128))
    rows = []
    for x, v, st in zip(xs, np.atleast_1d(values), np.atleast_1d(status)):
        code = int(st)
        rows.append((float(x), complex(v) if code == OK else None, STATUS_NAMES[code]))
    return rows


def write_csv(rows, path):
    """Write export_real_line rows as CSV with header x,re,im,status."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im", "status"])
        for x, v, st in rows:
            if v is None:
                writer.writerow([repr(x), "nan", "nan", st])
            else:
                writer.writerow([repr(x), repr(v.real), repr(v.imag), st])
