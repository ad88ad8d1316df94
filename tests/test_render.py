import math

import numpy as np
import pytest

from betatet import Overlay, RenderSpec, export_real_line, render_hue, singular_lattice, tetration
from betatet.errors import OK, STATUS_NAMES
from betatet.render import GRAY, _apply_overlay, _evaluate_fn, colorize, pixel_grid, write_csv

LOG2 = math.log(2.0)


def test_colorize_zero_is_black():
    vals = np.zeros((4, 4), np.complex128)
    st = np.zeros((4, 4), np.int8)
    img = colorize(vals, st)
    assert np.all(img == 0)


def test_colorize_one_is_uniform_red():
    vals = np.ones((4, 4), np.complex128)
    st = np.zeros((4, 4), np.int8)
    img = colorize(vals, st)
    assert np.all(img == img[0, 0])
    r, g, b = img[0, 0]
    assert r > 150 and g == 0 and b == 0


def test_colorize_failures_gray():
    vals = np.full((2, 2), 3.0 + 4.0j, np.complex128)
    st = np.array([[0, 2], [1, 3]], np.int8)
    img = colorize(vals, st)
    assert tuple(img[0, 1]) == GRAY
    assert tuple(img[1, 0]) == GRAY
    assert tuple(img[1, 1]) == GRAY
    assert tuple(img[0, 0]) != GRAY


def test_colorize_nan_never_leaks():
    vals = np.array([[complex("nan"), 1.0]], np.complex128)
    st = np.zeros((1, 2), np.int8)
    img = colorize(vals, st)
    assert tuple(img[0, 0]) == GRAY


def test_render_deep_negative_window_black():
    spec = RenderSpec(window=(-50, -40, -1, 1), resolution=(16, 8), fn="beta",
                      lam=LOG2, depth=100)
    buf = render_hue(spec)
    assert np.all(buf.data <= 1)


def test_render_determinism_bytes():
    spec = RenderSpec(window=(-1, 1, -1, 1), resolution=(64, 64), fn="f",
                      lam=LOG2, depth=25)
    a = render_hue(spec).to_ppm()
    b = render_hue(spec).to_ppm()
    assert a == b


def test_ppm_format():
    spec = RenderSpec(window=(-1, 1, -1, 1), resolution=(10, 6), fn="g",
                      lam=LOG2, depth=10)
    raw = render_hue(spec).to_ppm()
    header, rest = raw.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"10 6"
    maxval, payload = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(payload) == 10 * 6 * 3


def test_singular_lattice_point_renders_gray():
    s_star = 1 + 1j * math.pi / LOG2
    assert singular_lattice(LOG2, (0, 2, 3, 6)).size > 0
    half = 0.5
    spec = RenderSpec(
        window=(s_star.real - half, s_star.real + half,
                s_star.imag - half, s_star.imag + half),
        resolution=(5, 5), fn="beta", lam=LOG2, depth=10)
    buf = render_hue(spec)
    assert tuple(buf.data[2, 2]) == GRAY       # center pixel hits the lattice
    assert tuple(buf.data[0, 0]) != GRAY


def test_pixel_grid_orientation():
    spec = RenderSpec(window=(0, 1, 0, 1), resolution=(2, 2), fn="g", lam=LOG2)
    Z = pixel_grid(spec)
    assert Z[0, 0].imag > Z[1, 0].imag     # top row carries the larger Im
    assert Z[0, 0].real < Z[0, 1].real


def test_f_render_mixes_colored_and_gray():
    # odd resolution puts one pixel exactly on w = 0 (domain failure -> gray);
    # near-center pixels overflow through the reciprocal blowup
    spec = RenderSpec(window=(-1, 1, -1, 1), resolution=(129, 129), fn="f",
                      lam=LOG2, depth=25)
    buf = render_hue(spec)
    flat = buf.data.reshape(-1, 3)
    grayish = np.all(flat == np.array(GRAY, np.uint8), axis=1)
    assert tuple(buf.data[64, 64]) == GRAY
    assert grayish.sum() >= 2
    assert (~grayish).any()


def test_overlays_change_pixels():
    base = RenderSpec(window=(-2, 2, -2, 2), resolution=(64, 64), fn="g",
                      lam=LOG2, depth=10)
    with_disk = RenderSpec(window=(-2, 2, -2, 2), resolution=(64, 64), fn="g",
                           lam=LOG2, depth=10, overlay=Overlay(unit_disk=True))
    a = render_hue(base).data
    b = render_hue(with_disk).data
    assert (a != b).any()
    white = np.all(b == 255, axis=-1)
    assert white.any()


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(window=(1, -1, 0, 1), resolution=(8, 8), fn="g", lam=LOG2)
    with pytest.raises(ValueError):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(0, 8), fn="g", lam=LOG2)
    with pytest.raises(ValueError):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(8, 8), fn="zeta", lam=LOG2)
    with pytest.raises(ValueError):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(8, 8), fn="beta")
    with pytest.raises(ValueError):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(8, 8), fn="g", lam="variable")
    # sizes must be integers: 2.5 used to reach the PPM header, "25" raised
    # TypeError, and depth 25.5 failed only at render time
    for resolution in ((2.5, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            RenderSpec(window=(-1, 1, -1, 1), resolution=resolution, fn="g", lam=LOG2)
    for depths in (("25", 5), (25.5, 5), (25, 5.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            RenderSpec(window=(-1, 1, -1, 1), resolution=(2, 2), fn="beta", lam=LOG2,
                       depth=depths[0], tau_depth=depths[1])
    spec = RenderSpec(window=(-1, 1, -1, 1), resolution=(True, np.int64(2)), fn="beta",
                      lam=LOG2, depth=np.int32(25))
    assert spec.resolution == (1, 2) and spec.depth == 25
    assert {type(spec.resolution[0]), type(spec.resolution[1]), type(spec.depth)} == {int}
    assert render_hue(spec).to_ppm().startswith(b"P6\n1 2\n255\n")
    # a non-finite window edge used to render all gray, and a scheme was checked
    # only in render_hue (fn F) or ignored (any other fn)
    for window in ((-np.inf, 1, -1, 1), (-1, 1, -1, np.nan)):
        with pytest.raises(ValueError, match="window must be finite"):
            RenderSpec(window=window, resolution=(2, 2), fn="g", lam=LOG2)
    for fn, lam, scheme in (("F", LOG2, "bogus"), ("beta", LOG2, "fixed_n"),
                            ("tet", None, "variable_lambda"), ("F", LOG2, "variable_lambda")):
        with pytest.raises(ValueError, match="scheme"):
            RenderSpec(window=(-1, 1, -1, 1), resolution=(2, 2), fn=fn, lam=lam, scheme=scheme)
    for lam, scheme in ((LOG2, "fixed_n"), ("variable", "fixed_n"), ("variable", "variable_lambda")):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(2, 2), fn="F", lam=lam, scheme=scheme)
    # an invalid fixed lambda used to construct and fail only in render_hue
    for fn, lam in (("beta", -1.0), ("F", np.inf), ("g", -2.0), ("beta", "bogus"), ("f", 1j)):
        with pytest.raises(ValueError, match="lambda"):
            RenderSpec(window=(-1, 1, -1, 1), resolution=(2, 2), fn=fn, lam=lam)
    # a numeric string constructed, because complex() reads it, and failed in render_hue
    for fn in ("beta", "F", "g", "f"):
        with pytest.raises(ValueError, match="lambda"):
            RenderSpec(window=(-1, 1, -1, 1), resolution=(2, 2), fn=fn, lam="0.69")


def test_render_spec_rejects_a_fixed_lambda_for_tet():
    for lam in (LOG2, 0.5 + 3j):
        with pytest.raises(ValueError, match="lambda"):
            RenderSpec(window=(-1, 1, -1, 1), resolution=(8, 8), fn="tet", lam=lam)
    for lam in (None, "variable"):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(8, 8), fn="tet", lam=lam)


def test_export_beta_real_line():
    rows = export_real_line("beta", lam=LOG2, lo=-10, hi=4, samples=141, depth=100)
    assert len(rows) == 141
    assert all(st == "ok" for _, _, st in rows)
    vals = [v.real for _, v, _ in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs(rows[0][1]) < 1e-2


def test_export_tet_real_line(high_model):
    rows = export_real_line("tet", lo=-1.9, hi=2.0, samples=100, depth=100,
                            tau_depth=20)
    vals = [v.real for _, v, _ in rows if v is not None]
    assert len(vals) == 100
    assert all(b > a for a, b in zip(vals, vals[1:]))
    xs = [x for x, _, _ in rows]
    i = int(np.argmin(np.abs(xs)))
    assert abs(rows[i][1].real - 1.0) < 0.1


def test_export_two_samples():
    rows = export_real_line("g", lam=LOG2, lo=0.0, hi=0.5, samples=2, depth=10)
    assert len(rows) == 2


def test_export_failures_are_marker_rows(tmp_path, high_model):
    rows = export_real_line("tet", lo=-2.6, hi=-1.5, samples=12, depth=8, tau_depth=5)
    assert len(rows) == 12
    markers = [st for _, v, st in rows if v is None]
    assert markers and all(st != "ok" for st in markers)
    out = tmp_path / "line.csv"
    write_csv(rows, out)
    text = out.read_text().splitlines()
    assert text[0] == "x,re,im,status"
    assert len(text) == 13
    assert any("branch_cut" in line for line in text[1:])


def test_write_csv_matches_csv_writer(tmp_path):
    # one string written once gives csv.writer's bytes: every status name, failed
    # rows, and the floats whose repr is unusual
    import csv

    odd = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 0.1, -2.6]
    rows = [(x, complex(y, x), st) for x, y, st in zip(odd, reversed(odd), STATUS_NAMES.values())]
    rows += [(x, None, st) for x, st in zip(odd, STATUS_NAMES.values())]
    out, ref = tmp_path / "line.csv", tmp_path / "ref.csv"
    write_csv(rows, out)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im", "status"])
        for x, v, st in rows:
            writer.writerow([repr(x), "nan", "nan", st] if v is None
                            else [repr(x), repr(v.real), repr(v.imag), st])
    assert out.read_bytes() == ref.read_bytes()


def test_export_rows_are_python_scalars():
    # rows built from .tolist() equal a per-element conversion, element types included
    rows = export_real_line("tet", lo=-2.6, hi=3.0, samples=57, depth=25, tau_depth=5)
    xs = np.linspace(-2.6, 3.0, 57)
    values, status = _evaluate_fn("tet", None, 25, 5, xs.astype(np.complex128))
    want = [(float(x), complex(v) if int(st) == OK else None, STATUS_NAMES[int(st)])
            for x, v, st in zip(xs, values, status)]
    assert {st for _, _, st in rows} > {"ok"}
    assert rows == want
    assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, r)) for r in want]


def test_export_validates_samples():
    with pytest.raises(ValueError):
        export_real_line("g", lam=LOG2, lo=0, hi=1, samples=1)
    for samples in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="samples must be an integer"):
            export_real_line("g", lam=LOG2, lo=0, hi=1, samples=samples)
    assert len(export_real_line("g", lam=LOG2, lo=0, hi=1, samples=np.int64(3))) == 3


def test_export_tet_and_slog_default_to_the_default_profile(monkeypatch, default_model):
    # without depths the real line of tet and slog comes from get_model()'s
    # model; it used to calibrate a (100, 10) model that no profile names
    def calibrate(*args, **kwargs):
        raise AssertionError("export_real_line calibrated a new model")

    cache = {(default_model.n, default_model.k): default_model}
    monkeypatch.setattr(tetration, "_MODEL_CACHE", cache)
    monkeypatch.setattr(tetration, "calibrate", calibrate)
    for fn, lo, hi in (("tet", -1.9, 2.0), ("slog", 0.5, 20.0)):
        rows = export_real_line(fn, lo=lo, hi=hi, samples=9)
        assert len(rows) == 9 and {st for _, _, st in rows} == {"ok"}


def _overlaid(resolution, window, **overlay):
    spec = RenderSpec(window=window, resolution=resolution, fn="f", lam=LOG2,
                      overlay=Overlay(**overlay))
    w, h = resolution
    plain = np.full((h, w, 3), 200, np.uint8)
    return spec, (_apply_overlay(spec, pixel_grid(spec), plain.copy()) != plain).any(-1)


@pytest.mark.parametrize("resolution,window,cells", [
    ((64, 64), (-2, 2, -2, 2), [16, 32, 48]),
    ((65, 65), (-2, 2, -2, 2), [16, 32, 48]),
    ((800, 800), (-1, 1, -1, 1), [400]),
])
def test_grid_lines_are_one_pixel_per_integer(resolution, window, cells):
    # the column (row) whose cell holds each integer inside the window; a pixel
    # centre half a pixel from an integer used to mark no line or two
    _, changed = _overlaid(resolution, window, grid_lines=True)
    expected = np.zeros_like(changed)
    expected[:, cells] = expected[cells, :] = True
    assert np.array_equal(changed, expected)


def test_grid_line_just_inside_the_right_edge():
    # (1 + 5.1) * 64 / (nextafter(1) + 5.1) rounds to 64: the line takes the last column
    _, changed = _overlaid((64, 64), (-5.1, np.nextafter(1.0, 2.0), -1, 1), grid_lines=True)
    assert changed[:, 63].all()


def test_origin_marker_changes_pixels_near_zero_only():
    spec, changed = _overlaid((64, 48), (-2, 2, -1.5, 1.5), origin_marker=True)
    Z = pixel_grid(spec)
    px = 4 / 64
    assert changed.any()
    assert np.all((np.abs(Z.real) < 4 * px) & (np.abs(Z.imag) < 4 * px) | ~changed)


@pytest.mark.parametrize("depth,tau_depth", [(0, 5), (25, -1)])
def test_render_spec_rejects_invalid_depths(depth, tau_depth):
    with pytest.raises(ValueError, match="invalid depth profile"):
        RenderSpec(window=(-1, 1, -1, 1), resolution=(4, 4), fn="beta", lam=LOG2,
                   depth=depth, tau_depth=tau_depth)


def test_export_unknown_function():
    with pytest.raises(ValueError, match="fn must be one of"):
        export_real_line("zeta")
