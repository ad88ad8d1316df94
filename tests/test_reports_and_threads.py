import math

import numpy as np
import pytest

from betatet import (
    BetaParams,
    RenderSpec,
    ShortCircuit,
    TauConfig,
    beta_eval,
    render_hue,
    tau_iterate,
)

LOG2 = math.log(2.0)


def test_beta_scalar_overflow_propagates():
    with pytest.raises(ShortCircuit):
        beta_eval(BetaParams(lam=LOG2, depth=100), 8.0)


def test_report_majorant_nonnegative():
    params = BetaParams(lam=LOG2, depth=100)
    _, report = tau_iterate(params, TauConfig(n=100, k=6), 2.0)
    assert report.majorant >= 0.0
    assert math.isfinite(report.majorant)


def test_report_short_circuit_termination():
    # left of the calibration region the pullback argument crosses the
    # principal cut on the real axis
    params = BetaParams(lam="variable", depth=100)
    cfg = TauConfig(n=100, k=20, scheme="variable_lambda")
    _, report = tau_iterate(params, cfg, -0.5)
    assert report.terminated_by == "short_circuit"


def test_exponent_undefined_at_minus_one():
    from betatet import NonFinite

    params = BetaParams(lam="variable", depth=100)
    cfg = TauConfig(n=100, k=20, scheme="variable_lambda")
    with pytest.raises(NonFinite):
        tau_iterate(params, cfg, -1.0)


def test_report_residuals_invariant():
    params = BetaParams(lam=LOG2, depth=100)
    for k in (1, 2, 5):
        _, report = tau_iterate(params, TauConfig(n=100, k=k), 1.5)
        assert len(report.residual_history) >= 1
        if report.contraction_estimate is not None:
            assert len(report.residual_history) >= 2


def test_tet_render_smoke():
    spec = RenderSpec(window=(-3, 1, -0.5, 0.5), resolution=(24, 12), fn="tet",
                      depth=8, tau_depth=5)
    buf = render_hue(spec)
    flat = buf.data.reshape(-1, 3)
    gray = np.all(flat == np.array([128, 128, 128], np.uint8), axis=1)
    assert gray.any()        # the cut (-inf, -2] crosses the window
    assert (~gray).any()


def test_variable_F_render_smoke():
    spec = RenderSpec(window=(0, 2, -0.5, 0.5), resolution=(16, 8), fn="F",
                      lam="variable", depth=20, tau_depth=5)
    buf = render_hue(spec)
    assert buf.data.shape == (8, 16, 3)
