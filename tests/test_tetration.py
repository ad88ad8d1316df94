import cmath
import math

import numpy as np
import pytest

import betatet.acceptance as acceptance
import betatet.tetration as tetration
from betatet import (
    BetaTetError,
    BranchCut,
    DomainError,
    exp_iter,
    get_model,
    slog_eval,
    slog_grid,
    tet_eval,
    tet_grid,
)
from betatet.acceptance import (_grid, analytic_radius, cauchy_riemann_ok, circle_mean_ok,
                                crit_anchors, crit_bijection, crit_strip_boundary)
from betatet.beta import beta_grid, f_grid, g_grid
from betatet.errors import (_STATUS_EXC, OK, BRANCH_CUT, DOMAIN, NO_CONVERGENCE, NONFINITE,
                            SHORT_CIRCUIT)
from betatet.render import RenderSpec, pixel_grid
from betatet.tau import F_grid, tau_grid


def test_too_shallow_profile_fails_calibration():
    from betatet import CalibrationFailed, calibrate

    with pytest.raises(CalibrationFailed):
        calibrate(n=1, k=1)


def _fake_f(monkeypatch, F):
    """Point tetration._f_line at F(xs) -> (values, status) and record its batches."""
    calls = []

    def fake(xs, n, k):
        xs = np.asarray(xs, np.float64)
        calls.append(xs)
        return F(xs)

    monkeypatch.setattr(tetration, "_f_line", fake)
    return calls


def test_bracket_skips_a_pair_whose_f_is_not_real(monkeypatch):
    # F crosses 1 between 1 and 2 with a nonzero imaginary part: that pair is
    # skipped, and the real crossing between 4 and 5 is the bracket
    _fake_f(monkeypatch, lambda xs: (np.where(xs < 3, xs - 0.5 + 1j, xs - 3.5 + 0j),
                                     np.zeros(xs.size, np.int8)))
    assert tetration._bracket(25, 5) == (4.0, 5.0)


def test_bracket_skips_a_pair_where_f_decreases_through_1(monkeypatch):
    # F falls through 1 between 1 and 2 (1.5 -> 0.5): not a bracket; it rises
    # through 1 between 4 and 5
    _fake_f(monkeypatch, lambda xs: (np.where(xs < 3, 2.5 - xs, xs - 3.5) + 0j,
                                     np.zeros(xs.size, np.int8)))
    assert tetration._bracket(25, 5) == (4.0, 5.0)


def test_bisection_fails_at_a_midpoint_that_is_not_ok(monkeypatch):
    # root 0.7: the midpoints 0.5 then 0.75, where F short-circuits
    _fake_f(monkeypatch, lambda xs: (xs + 0.3 + 0j,
                                     np.where(xs > 0.6, SHORT_CIRCUIT, OK).astype(np.int8)))
    with pytest.raises(tetration.CalibrationFailed, match="bisection point 0.75"):
        tetration._bisect(0.0, 1.0, 25, 5)


def test_bisection_stops_after_80_halvings(monkeypatch):
    # a root at 1e-300 needs about 1000 halvings of [0, 1] to reach adjacent
    # doubles: 16 batches of 5 levels halve it 80 times and return the midpoint
    calls = _fake_f(monkeypatch, lambda xs: (np.where(xs >= 1e-300, 2.0, 0.0) + 0j,
                                             np.zeros(xs.size, np.int8)))
    assert tetration._bisect(0.0, 1.0, 25, 5) == 2.0 ** -81
    assert len(calls) == 16


@pytest.mark.parametrize("table,message", [
    (lambda Z: (Z, np.where(Z.real > 0.5, SHORT_CIRCUIT, OK)), "table not evaluable"),
    (lambda Z: (-Z, np.zeros(Z.shape)), "not increasing"),
    (lambda Z: (Z + 2.0, np.zeros(Z.shape)), r"tet\(0\) - 1"),
], ids=["table-not-ok", "not-increasing", "anchor-missed"])
def test_calibration_checks_its_table_and_anchor(monkeypatch, table, message):
    # a fake F(x) = x brackets (0, 1) and bisects to 1; tet_grid fakes the table
    _fake_f(monkeypatch, lambda xs: (xs + 0j, np.zeros(xs.size, np.int8)))

    def fake_tet_grid(model, Z):
        v, st = table(np.asarray(Z, np.complex128))
        return v, np.asarray(st, np.int8)

    monkeypatch.setattr(tetration, "tet_grid", fake_tet_grid)
    with pytest.raises(tetration.CalibrationFailed, match=message):
        tetration.calibrate(n=25, k=5)


def test_bisection_early_exit_matches_full_loop(default_model, high_model):
    # one-point bisection for 80 full steps gives the x0 that the batched,
    # early-exit bisection found
    for model in (default_model, high_model):
        n, k = model.n, model.k
        lo, hi = tetration._bracket(n, k)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm, sm = tetration._f_line([mid], n, k)
            assert sm[0] == OK
            if fm[0].real - 1.0 < 0:
                lo = mid
            else:
                hi = mid
        assert model.x0 == 0.5 * (lo + hi)


def test_model_metadata(high_model):
    assert high_model.n == 100 and high_model.k == 20
    assert -5 <= high_model.x0 <= 10


def test_one_calibration_per_depth_profile(high_model, default_model):
    assert get_model("high") is get_model(n=100, k=20) is high_model
    assert get_model() is get_model(n=25, k=5) is default_model


def test_anchor_values_high(high_model):
    assert abs(tet_eval(high_model, 0.0) - 1.0) < 1e-10
    assert abs(tet_eval(high_model, 1.0) - math.e) < 1e-8
    assert abs(tet_eval(high_model, -1.0)) < 1e-8
    assert abs(tet_eval(high_model, 2.0) - math.e ** math.e) < 1e-6


def test_anchor_values_default(default_model):
    assert abs(tet_eval(default_model, 0.0) - 1.0) < 1e-10
    assert abs(tet_eval(default_model, 1.0) - math.e) < 1e-8
    assert abs(tet_eval(default_model, -1.0)) < 1e-8


def test_profiles_calibrate_nearby(high_model, default_model):
    assert abs(high_model.x0 - default_model.x0) < 0.1


def test_anchor_ordering(high_model):
    t_m1 = tet_eval(high_model, -1.0).real
    t_0 = tet_eval(high_model, 0.0).real
    t_1 = tet_eval(high_model, 1.0).real
    assert t_m1 < t_0 < t_1


def test_conjugate_point(high_model):
    s = 0.3 + 0.4j
    assert abs(tet_eval(high_model, np.conj(s)) - np.conj(tet_eval(high_model, s))) < 1e-8


def test_functional_equation_complex(high_model):
    for s in (0.25 + 0.6j, -0.8 + 0.9j, 1.4 - 0.3j):
        assert abs(tet_eval(high_model, s + 1) - np.exp(tet_eval(high_model, s))) < 1e-6


def test_branch_cut_raises(high_model):
    with pytest.raises(BranchCut):
        tet_eval(high_model, -2.5)
    with pytest.raises(BranchCut):
        tet_eval(high_model, -2.0)
    with pytest.raises(BranchCut):
        tet_eval(high_model, complex(-3.0, 1e-12))
    # off the cut is fine
    tet_eval(high_model, -2.5 + 0.1j)


def test_grid_statuses(high_model):
    vals, st = tet_grid(high_model, np.array([0.0, -2.5, 0.5 + 0.5j]))
    assert st[0] == OK and st[2] == OK
    assert st[1] == BRANCH_CUT


def test_slog_base_values(high_model):
    assert abs(slog_eval(high_model, 1.0)) < 1e-8
    assert abs(slog_eval(high_model, math.e) - 1.0) < 1e-8


def test_slog_abel_equation(high_model):
    lhs = slog_eval(high_model, math.exp(0.5))
    rhs = slog_eval(high_model, 0.5) + 1.0
    assert abs(lhs - rhs) < 1e-8


def test_slog_round_trip(high_model):
    for x in np.linspace(-1.5, 2.5, 17):
        tx = tet_eval(high_model, float(x)).real
        assert abs(slog_eval(high_model, tx).real - x) < 1e-6


def test_slog_reductions(high_model):
    # large argument: two log steps; negative argument: one exp step
    assert abs(slog_eval(high_model, 1e6).real - slog_eval(high_model, math.log(1e6)).real - 1) < 1e-8
    assert abs(slog_eval(high_model, -0.5).real - (slog_eval(high_model, math.exp(-0.5)).real - 1)) < 1e-8


def test_slog_zero_is_minus_one(high_model):
    assert abs(slog_eval(high_model, 0.0) + 1.0) < 1e-6


def test_slog_complex_rejected(high_model):
    with pytest.raises(DomainError):
        slog_eval(high_model, 1.0 + 1.0j)


def test_exp_iter_identity_and_whole_step(high_model):
    assert abs(exp_iter(high_model, 0.0, 0.7) - 0.7) < 1e-8
    assert abs(exp_iter(high_model, 1.0, 0.7) - math.exp(0.7)) < 1e-8


def test_exp_iter_semigroup(high_model):
    half = exp_iter(high_model, 0.5, exp_iter(high_model, 0.5, 0.5))
    assert abs(half - math.exp(0.5)) < 1e-6


def test_exp_iter_real_positive(high_model):
    val = exp_iter(high_model, 0.25, 1.5)
    assert abs(val.imag) < 1e-9
    assert val.real > 0


def _failing_tet_grid(monkeypatch, failed):
    """Point acceptance.tet_grid at tet_grid with SHORT_CIRCUIT where failed(Z)."""
    def fake(model, Z):
        v, st = tet_grid(model, Z)
        return v, np.where(failed(np.asarray(Z)), SHORT_CIRCUIT, st).astype(np.int8)

    monkeypatch.setattr(acceptance, "tet_grid", fake)


def test_truncated_scan_fails_criterion_10(high_model, monkeypatch):
    # the round-trip points stay at or below 2.5, so only the scan sees the failures
    _failing_tet_grid(monkeypatch, lambda Z: Z.real > 2.6)
    passed, detail = crit_bijection(high_model)
    assert not passed
    assert "stopped" in detail and "[-1.9,2.6)" in detail


def test_scan_stopped_at_its_first_point_fails_criterion_10(high_model, monkeypatch):
    # no stencil is OK: no derivative at all, and the scan stops where it starts
    _failing_tet_grid(monkeypatch, lambda Z: Z.real > -3)
    passed, detail = crit_bijection(high_model)
    assert not passed
    assert "[-1.9,-1.9), where the scan stopped (min nan)" in detail


def test_failed_round_trip_point_fails_criterion_10(high_model, monkeypatch):
    # slog does not converge at tet(1): the scan still passes, the round trip reads inf
    def fake(model, Z):
        v, st = slog_grid(model, Z)
        return v, np.where(np.abs(Z - math.e) < 1e-9, NO_CONVERGENCE, st).astype(np.int8)

    monkeypatch.setattr(acceptance, "slog_grid", fake)
    passed, detail = crit_bijection(high_model)
    assert not passed
    assert detail.startswith("derivative positive on [-1.9,3]") and "worst inf" in detail


def test_failed_anchor_fails_criterion_6(high_model, monkeypatch):
    # tet(2) short-circuits: criterion 6 fails with its detail line instead of raising
    _failing_tet_grid(monkeypatch, lambda Z: Z.real == 2.0)
    passed, detail = crit_anchors(high_model, 0.0)
    assert not passed
    assert detail.count("=inf") == 1 and "|tet(2)-e^e|=inf" in detail


def test_monotone_strip(high_model):
    xs = np.linspace(-1.9, 2.0, 100)
    vals, st = tet_grid(high_model, xs)
    assert np.all(st == OK)
    assert np.all(np.diff(vals.real) > 0)


def test_short_circuit_far_right(high_model):
    vals, st = tet_grid(high_model, np.array([8.0]))
    assert st[0] != OK


def test_nan_does_not_corrupt_the_batch(default_model):
    v, st = tet_grid(default_model, np.array([-1.5, complex("nan")]))
    assert list(st) == [OK, NONFINITE]
    assert v[0] == tet_eval(default_model, -1.5)
    assert abs(v[0] - cmath.log(tet_eval(default_model, -0.5))) < 1e-14


def _log_fixed_point(z):
    for _ in range(200):
        z = cmath.log(z)
    return z


@pytest.mark.parametrize("far", [1e6, 1e19])
@pytest.mark.parametrize("profile", [
    pytest.param("default", marks=pytest.mark.xfail(
        strict=True, reason="tet(0+i) = 0.6548-1.0046i lies below the axis, so "
        "tet(-far+i) reaches conj(L): |v - L| = 2.674")),
    "high",
])
def test_far_tails(profile, far):
    # right: exp overflows within a few steps; left, off the cut: the log
    # steps reach log's fixed point L (conj(L) below the axis); on it: the cut
    Z = np.array([far, far + 1j, -far + 1j, -far - 1j, -far], np.complex128)
    v, st = tet_grid(get_model(profile=profile), Z)
    assert list(st) == [SHORT_CIRCUIT, SHORT_CIRCUIT, OK, OK, BRANCH_CUT]
    L = _log_fixed_point(1j)
    assert abs(v[2] - L) < 1e-14 and abs(v[3] - L.conjugate()) < 1e-14


def test_nonreal_off_axis_segments(high_model):
    # sampled on Im = 0.5 the function never sits on the real axis, and the
    # nearest-to-real sample's neighbours are firmly non-real
    xs = np.linspace(-1.0, 2.0, 121)
    vals, st = tet_grid(high_model, xs + 0.5j)
    ok = st == OK
    assert ok.sum() > 100
    assert np.all(np.abs(vals[ok].imag) > 0)
    i0 = int(np.argmin(np.abs(vals.imag) + np.where(ok, 0, 1e9)))
    s0 = xs[i0] + 0.5j
    for t in (0.01, 0.05):
        assert abs(tet_eval(high_model, s0 + t).imag) > 0
        assert abs(tet_eval(high_model, s0 - t).imag) > 0


def test_upper_half_plane_nonvanishing_sample(high_model):
    re = np.linspace(-1.5, 2, 40)
    im = np.linspace(0.1, 2, 40)
    Z = re[None, :] + 1j * im[:, None]
    vals, st = tet_grid(high_model, Z)
    ok = st == OK
    assert ok.sum() > 0.9 * Z.size
    assert np.abs(vals[ok]).min() > 1e-3


def _slog_points():
    pts = []
    for t in np.linspace(0.0, 2.7, 136):
        t = float(t)
        pts += [t, math.exp(t)] + ([math.log(t)] if t > 0 else [])
    return np.array(pts + [-5.0, 1 + 1j, math.nan, math.inf, -math.inf], np.complex128)


def test_slog_grid_matches_scalar(default_model):
    # the same value where the grid is OK, else the class the scalar call raises;
    # targets where Newton fails are compared, not pinned
    Z = _slog_points()
    vals, st = slog_grid(default_model, Z)
    assert st[-4:].tolist() == [DOMAIN] * 4
    for z, v, code in zip(Z, vals, st):
        try:
            got = slog_eval(default_model, z)
        except BetaTetError as exc:
            assert code != OK and type(exc) is _STATUS_EXC[int(code)], z
        else:
            assert code == OK and got == v, z


def test_slog_grid_preserves_shape(high_model):
    v, st = slog_grid(high_model, 0.5)
    assert v.shape == () and st.shape == () and st == OK
    assert v == slog_eval(high_model, 0.5)
    Z = np.array([[0.0, 1.0, math.e], [-0.5, 1 + 1j, 20.0]])
    v, st = slog_grid(high_model, Z)
    assert v.shape == Z.shape and st.shape == Z.shape
    assert st[1, 1] == DOMAIN
    assert abs(v[0, 1]) < 1e-8 and abs(v[0, 2] - 1.0) < 1e-8


_GRIDS = {
    "beta_grid": lambda m, z: beta_grid(m.params, z),
    "tau_grid": lambda m, z: tau_grid(m.params, m.config, z),
    "F_grid": lambda m, z: F_grid(m.params, m.config, z),
    "tet_grid": tet_grid,
    "slog_grid": slog_grid,
    "g_grid": lambda m, z: g_grid(math.log(2.0), z),
    "f_grid": lambda m, z: f_grid(math.log(2.0), z),
}


@pytest.mark.parametrize("name", _GRIDS)
def test_grid_keeps_input_shape(default_model, name):
    # scalar = grid of one: a 0-d input gives 0-d results, bitwise the flat call's
    grid = _GRIDS[name]
    flat = np.array([0.5, 1.3 + 0.4j, 2.0, -0.7 + 0.2j, 0.0, 1.9])
    ref_v, ref_s = grid(default_model, flat)
    for Z in (flat[0], flat[:3], flat.reshape(2, 3)):
        v, st = grid(default_model, Z)
        assert v.shape == st.shape == np.shape(Z)
        assert v.tobytes() == ref_v[:v.size].tobytes()
        assert st.tobytes() == ref_s[:st.size].tobytes()


def _f_line_spy(monkeypatch):
    """The point arrays tet_grid hands to _f_line, in call order."""
    seen = []
    real_f_line = tetration._f_line

    def spy(xs, n, k):
        seen.append(np.array(xs, np.complex128))
        return real_f_line(xs, n, k)

    monkeypatch.setattr(tetration, "_f_line", spy)
    return seen


def _bit_patterns(z):
    return {w.tobytes() for w in np.asarray(z, np.complex128).reshape(-1, 1)}


def test_f_runs_once_per_distinct_strip_point(default_model, monkeypatch):
    # the render_tet grid has 40 px per unit, so its strip points repeat
    # across periods; each pixel column has one step count and skips the sort
    Z = pixel_grid(RenderSpec(window=(-1.55, 2.05, -0.25, 2.05), resolution=(144, 92),
                              fn="tet"))
    seen = _f_line_spy(monkeypatch)
    v, st = tet_grid(default_model, Z)
    [xs] = seen
    assert len(_bit_patterns(xs)) == xs.size < Z.size
    assert _bit_patterns(xs) == _bit_patterns(Z - np.ceil(Z.real) + default_model.x0)
    columns = [tet_grid(default_model, Z[:, j]) for j in range(Z.shape[1])]
    assert [c.size for c in seen[1:]] == [Z.shape[0]] * Z.shape[1]
    assert v.tobytes() == np.stack([c[0] for c in columns], axis=1).tobytes()
    assert st.tobytes() == np.stack([c[1] for c in columns], axis=1).tobytes()


def test_tet_grid_of_repeats_matches_one_point_calls(default_model, monkeypatch):
    re = np.arange(-16, 16) / 16.0      # dyadic: s + j reduces to the strip exactly
    pts = np.concatenate([re + j for j in (-1, 0, 2)] + [re[::3] + 0.5j + j for j in (0, 1)])
    minus_zero = re[::4] + 0j
    minus_zero.imag = -0.0
    nan = np.array([0x7FF8000000000001, 0x7FF8000000000002], np.int64).view(np.float64)
    odd = [complex(nan[0], 0.0), complex(nan[1], 0.0), np.inf, -np.inf, complex(np.inf, 1.0),
           -2.0, -3.5, complex(-2.5, -0.0)]
    Z = np.concatenate([pts, pts[::4], minus_zero, odd])
    np.random.default_rng(22).shuffle(Z)
    assert len(_bit_patterns(Z[np.isnan(Z.real)])) == 2
    seen = _f_line_spy(monkeypatch)
    v, st = tet_grid(default_model, Z)
    # F sees each bit pattern once: the NaN payloads stay apart
    on_cut = (Z.real <= -2.0) & (Z.imag == 0.0)
    steps = np.where(np.isfinite(Z) & ~on_cut, np.ceil(Z.real), 0.0)
    strip = _bit_patterns(Z - steps + default_model.x0)
    assert _bit_patterns(seen[0]) == strip and len(strip) == seen[0].size < Z.size
    assert {BRANCH_CUT, NONFINITE, OK} <= set(st.tolist())
    for z, vz, sz in zip(Z, v, st):
        one_v, one_st = tet_grid(default_model, z)
        assert one_v.tobytes() == vz.tobytes() and one_st.tobytes() == sz.tobytes(), z


@pytest.mark.parametrize("Z", [0.7 + 0.2j, [0.3, 0.3 + 1e-6, 0.3 - 1e-6],
                               [-1.2 + 0.5j, -1.7, -1.2 + 0.5j]],
                         ids=["one-point", "stencil", "one-step-count"])
def test_one_step_count_reaches_f_unsorted(default_model, monkeypatch, Z):
    # no repeat can come from the reduction: F gets the input's own strip points in order
    Z = np.ravel(np.asarray(Z, np.complex128))
    seen = _f_line_spy(monkeypatch)
    tet_grid(default_model, Z)
    [xs] = seen
    assert xs.tobytes() == (Z - np.ceil(Z.real) + default_model.x0).tobytes()


def _newton_reference(model, target):
    """Scalar Newton on tet_eval; returns (s, iterations)."""
    s = float(np.interp(target, model.table_v, model.table_x))
    h = tetration._NEWTON_H
    for i in range(100):
        err = tet_eval(model, s).real - target
        if abs(err) < 1e-12 * max(1.0, abs(target)):
            return s, i + 1
        s -= err / ((tet_eval(model, s + h).real - tet_eval(model, s - h).real) / (2 * h))
    raise AssertionError("reference Newton did not converge")


def test_slog_grid_one_tet_grid_call_per_newton_step(high_model, monkeypatch):
    targets = [0.3, 1.0, 2.2, 2.6]
    ref = [_newton_reference(high_model, t) for t in targets]
    sizes = []
    real_tet_grid = tetration.tet_grid

    def counting(model, Z):
        sizes.append(np.size(Z))
        return real_tet_grid(model, Z)

    def forbidden(*args):
        raise AssertionError("slog_grid called tet_eval")

    monkeypatch.setattr(tetration, "tet_grid", counting)
    monkeypatch.setattr(tetration, "tet_eval", forbidden)
    vals, st = slog_grid(high_model, targets)
    assert np.all(st == OK)
    assert vals.real.tolist() == [s for s, _ in ref]
    steps = max(n for _, n in ref)
    assert steps > 1
    assert sizes == [3 * sum(n > j for _, n in ref) for j in range(steps)]


@pytest.mark.parametrize("profile,target", [("high", 1.88), ("high", 1.89), ("high", 0.635)])
def test_slog_seam_gap_target_fails_within_three_calls(profile, target, monkeypatch):
    # targets in the jumps at the variable-F seam have no preimage; Newton drops
    # them once a residual fails to halve instead of running out a 100-step budget
    sizes = []
    real_tet_grid = tetration.tet_grid

    def counting(model, Z):
        sizes.append(np.size(Z))
        return real_tet_grid(model, Z)

    model = get_model(profile=profile)
    monkeypatch.setattr(tetration, "tet_grid", counting)
    v, st = slog_grid(model, target)
    assert st == NO_CONVERGENCE and np.isnan(v)
    assert 1 <= len(sizes) <= 3


@pytest.mark.parametrize("profile", [
    pytest.param("default", marks=pytest.mark.xfail(
        strict=True, reason="Cauchy-Riemann holds at 0.889 of the grid")),
    pytest.param("high", marks=pytest.mark.xfail(
        strict=True, reason="Cauchy-Riemann holds at 0.931 of the grid")),
])
def test_tet_cauchy_riemann_on_criterion_9_box(profile):
    # holomorphy gate: every point of the 36 x 20 grid over [-1.5,2] x [0.1,2] has an
    # OK stencil and |f_y - i f_x| <= 1e-3 max(1, |f_x|), with perfbench's cr_ok_frac step
    model = get_model(profile=profile)
    assert cauchy_riemann_ok(lambda z: tet_grid(model, z)).all()


def test_cauchy_riemann_holds_for_exp_exp():
    # guards the check itself: exp(exp(s)) is entire, so CR holds at every point
    # of the criterion-9 grid
    assert cauchy_riemann_ok(lambda z: (np.exp(np.exp(z)), np.zeros(z.shape, np.int8))).all()


def test_circle_mean_holds_for_exp_exp():
    # guards the check itself: exp(exp(s)) is entire, so the trapezoid Cauchy
    # integral matches at every centre of the criterion-9 grid
    assert circle_mean_ok(lambda z: (np.exp(np.exp(z)), np.zeros(z.shape, np.int8)),
                          _grid(-1.5, 2, 36, 0.1, 2, 20), r=0.05, nodes=64).all()


@pytest.mark.parametrize("lam", [math.log(2), 0.5 + 3j, 1.0], ids=["log2", "0.5+3i", "1"])
def test_circle_mean_holds_for_g_grid(lam):
    # guards the check on one of the package's own evaluators: g is holomorphic
    # on |w| < R = e^{Re lambda}, its first pole -e^lambda lying on that circle,
    # and every circle of radius R/10 about a centre of the 12 x 12 grid over
    # |Re w|, |Im w| <= R/2 stays inside |w| <= 0.81 R
    R = math.exp(complex(lam).real)
    centres = _grid(-R / 2, R / 2, 12, -R / 2, R / 2, 12)
    assert circle_mean_ok(lambda w: g_grid(lam, w), centres, r=R / 10, nodes=64).all()


@pytest.mark.parametrize("profile", [
    pytest.param("default", marks=pytest.mark.xfail(
        strict=True, reason="the circle mean holds at 114 of 180 centres (0.633)")),
    pytest.param("high", marks=pytest.mark.xfail(
        strict=True, reason="the circle mean holds at 19 of 180 centres (0.106)")),
])
def test_tet_circle_mean_on_criterion_9_box(profile):
    # holomorphy gate that CR cannot pass across a cut: at each centre of an 18 x 10
    # grid over [-1.5,2] x [0.1,2], the mean of tet over 32 points of |s - c| = 0.05
    # is tet(c) to 1e-8 max(1, |tet(c)|)
    model = get_model(profile=profile)
    assert circle_mean_ok(lambda z: tet_grid(model, z), _grid(-1.5, 2, 18, 0.1, 2, 10),
                          r=0.05, nodes=32).all()


@pytest.mark.xfail(strict=True, reason="the circle mean holds at 22 of 205 centres (0.107)")
def test_tet_circle_mean_near_the_axis(high_model):
    # the near-axis band [-1, 1] x [0.02, 0.1]: a 41 x 5 grid of centres, 32 points
    # of |s - c| = 0.01 each
    assert circle_mean_ok(lambda z: tet_grid(high_model, z), _grid(-1, 1, 41, 0.02, 0.1, 5),
                          r=0.01, nodes=32).all()


# R(x) at 20 base points, from 64 nodes on each circle; a tetration holomorphic
# off (-inf, -2] has R = 0.5, the largest radius, at every one of them
_RADIUS_XS = np.linspace(-0.95, 0.95, 20)
_RADII = (0.5, 0.1, 0.02, 0.005, 0.001)


def test_analytic_radius_holds_for_exp_exp():
    # guards the measure itself: exp(exp(s)) is entire
    R = analytic_radius(lambda z: (np.exp(np.exp(z)), np.zeros(z.shape, np.int8)),
                        _RADIUS_XS, _RADII, 64)
    assert (R == 0.5).all()


@pytest.mark.parametrize("lam", [math.log(2), 0.5 + 3j, 1.0], ids=["log2", "0.5+3i", "1"])
def test_analytic_radius_holds_for_g_grid(lam):
    # guards the measure on one of the package's own evaluators: at 12 real centres
    # of [-R/2, R/2], R = e^{Re lambda}, circles of radius R/10, the radius of
    # test_circle_mean_holds_for_g_grid, stay inside g's disk of holomorphy
    R = math.exp(complex(lam).real)
    radius = analytic_radius(lambda w: g_grid(lam, w), np.linspace(-R / 2, R / 2, 12),
                             (R / 10, R / 50, R / 250), 64)
    assert (radius == R / 10).all()


@pytest.mark.parametrize("profile", [
    pytest.param("default", marks=pytest.mark.xfail(
        strict=True, reason="median R 0.0125, max 0.02")),
    pytest.param("high", marks=pytest.mark.xfail(
        strict=True, reason="median R 0.005, max 0.02, R = 0 at x = -0.45 and 0.55")),
])
def test_tet_analytic_radius_on_the_base_interval(profile):
    model = get_model(profile=profile)
    assert (analytic_radius(lambda z: tet_grid(model, z), _RADIUS_XS, _RADII, 64) == 0.5).all()


@pytest.mark.parametrize("profile", [
    pytest.param("default", marks=pytest.mark.xfail(
        strict=True, reason="defect 1.98; 33 of 35 OK points are above 1e-6")),
    "high",
])
def test_tet_continuous_across_the_strip_boundary(profile):
    # off-axis continuity of tet across Re s = 0: F(s+1) = e^{F(s)} at s = x0 - 1 + iy
    passed, detail = crit_strip_boundary(get_model(profile=profile))
    assert passed, detail


@pytest.mark.parametrize("profile", [
    pytest.param("default", marks=pytest.mark.xfail(
        strict=True, reason="2 of 39 points fail at y = 1e-3 and 12 at y = 1e-2; worst 1.76")),
    pytest.param("high", marks=pytest.mark.xfail(
        strict=True, reason="6 of 39 points fail at y = 1e-3 and 18 at y = 1e-2; "
        "worst 1.28e3 at x = -0.5")),
])
def test_tet_near_axis_matches_real_derivative(profile):
    # a tet holomorphic next to the axis has Im tet(x + iy)/y -> tet'(x); at y = 1e-4
    # every profile passes (at most 6.6e-9), which neither the CR box nor the
    # real-line gate reaches below
    model = get_model(profile=profile)
    x, h = np.linspace(-0.9, 1.0, 39), 1e-6
    (vp, sp), (vm, sm) = tet_grid(model, x + h), tet_grid(model, x - h)
    assert np.all(sp == OK) and np.all(sm == OK)
    dx = (vp.real - vm.real) / (2 * h)
    for y in (1e-3, 1e-2):
        v, st = tet_grid(model, x + 1j * y)
        assert np.all(st == OK)
        assert np.all(np.abs(v.imag / y - dx) <= 1e-3 * np.maximum(1.0, np.abs(dx)))


def test_profiles_agree_on_the_real_axis(default_model, high_model):
    # (25, 5) and (100, 20) give the same bits on the real line and its slog
    # targets, so the real-line gates below run at high alone
    for grid, Z in ((tet_grid, np.linspace(-1.9, 2.0, 4001)),
                    (slog_grid, np.linspace(0.0, 2.7, 271))):
        (a, sa), (b, sb) = grid(default_model, Z), grid(high_model, Z)
        assert a.tobytes() == b.tobytes() and sa.tobytes() == sb.tobytes()


@pytest.mark.xfail(strict=True, reason="2 no_convergence targets: 1.88 and 1.89")
def test_slog_dense_round_trip(high_model):
    # the OK targets round-trip to at most 2.3e-12
    t = np.linspace(0.0, 2.7, 271)
    s, st = slog_grid(high_model, t)
    assert np.all(st == OK)
    v, vst = tet_grid(high_model, s)
    assert np.all(vst == OK)
    assert np.abs(v - t).max() <= 1e-10


@pytest.mark.xfail(strict=True, reason="largest second difference 0.0886 at x = 1.641, the "
                   "variable-F seam; its copies one unit apart fail too, elsewhere at most 1.9e-4")
def test_tet_continuous_on_real_line(high_model):
    # continuity gate across the strip boundaries x = -1, 0, 1 and the regime seams
    x = np.linspace(-1.9, 2.0, 4001)
    v, st = tet_grid(high_model, x)
    assert np.all(st == OK)
    assert np.abs(v[2:] - 2 * v[1:-1] + v[:-2]).max() <= 1e-3


@pytest.mark.parametrize("depths", [{"n": 25}, {"k": 5}, {"n": 100, "k": None}],
                         ids=["n", "k", "n-and-None"])
def test_get_model_takes_a_profile_or_a_full_pair(depths):
    # a lone depth used to take its other half from the profile
    with pytest.raises(ValueError, match="both depths"):
        get_model(**depths)
    with pytest.raises(ValueError, match="both depths"):
        tetration.calibrate(profile="high", **depths)


def test_unknown_profile_names_the_profiles():
    with pytest.raises(ValueError, match="'default', 'high'"):
        get_model(profile="bogus")
