import math

import numpy as np
import pytest

from betatet import (
    BetaParams,
    F_eval,
    NonFinite,
    RenderSpec,
    ShortCircuit,
    TauConfig,
    beta_eval,
    render_hue,
    tau_grid,
)
from betatet.errors import SHORT_CIRCUIT

LOG2 = math.log(2.0)


def test_beta_scalar_overflow_propagates():
    with pytest.raises(ShortCircuit):
        beta_eval(BetaParams(lam=LOG2, depth=100), 8.0)


def test_short_circuit_left_of_calibration_region():
    # left of the calibration region the pullback argument crosses the
    # principal cut on the real axis
    params = BetaParams(lam="variable", depth=100)
    cfg = TauConfig(n=100, k=20, scheme="variable_lambda")
    _, st = tau_grid(params, cfg, np.array([-0.5]))
    assert st[0] == SHORT_CIRCUIT


def test_exponent_undefined_at_minus_one():
    # lambda = 1/sqrt(1+s) is undefined at s = -1; the cut higher up must not
    # hide that
    params = BetaParams(lam="variable", depth=100)
    cfg = TauConfig(n=100, k=20, scheme="variable_lambda")
    with pytest.raises(NonFinite):
        F_eval(params, cfg, -1.0)


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
