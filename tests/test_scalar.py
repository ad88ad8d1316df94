"""Every scalar evaluator is errors.scalar of its grid on the 0-d point: the
grid's bits where its status is ok, else the status's signal, whose message
starts with the status name."""

import math

import numpy as np
import pytest

from betatet import BetaParams, TauConfig, beta_eval, beta_grid, f_eval, g_eval
from betatet.beta import f_grid, g_grid
from betatet.errors import (
    _STATUS_EXC,
    BRANCH_CUT,
    DOMAIN,
    NO_CONVERGENCE,
    NONFINITE,
    OK,
    SHORT_CIRCUIT,
    SINGULAR,
    STATUS_NAMES,
)
from betatet.tau import F_eval, F_grid
from betatet.tetration import slog_eval, slog_grid, tet_eval, tet_grid
from test_kernels import PROBE
from test_taylor_g import SPECIAL_W
from test_tetration import _slog_points

LOG2 = math.log(2.0)
FAMILIES = [BetaParams(lam=LOG2, depth=25), BetaParams(lam="variable", depth=25)]
F_CONFIG = TauConfig(n=25, k=5)


def _w_points(lam):
    """The special w, the first singular points of g and f (-e^lambda and
    -e^{-lambda}), and 1/w of the short-circuit ones for f."""
    more = [-math.exp(lam), -math.exp(-lam), 1 / 50, 1 / (76.66 + 1035.67j)]
    return np.concatenate([SPECIAL_W, more])


def _cases(name, default_model):
    """(scalar, grid, points) triples of one evaluator, and the statuses its grids return."""
    if name == "beta":
        cases = [(lambda s, p=p: beta_eval(p, s), lambda s, p=p: beta_grid(p, s), PROBE)
                 for p in FAMILIES]
        return cases, {OK, SHORT_CIRCUIT, SINGULAR, NONFINITE}
    if name == "F":
        cases = [(lambda s, p=p: F_eval(p, F_CONFIG, s),
                  lambda s, p=p: F_grid(p, F_CONFIG, s), PROBE) for p in FAMILIES]
        return cases, {OK, SHORT_CIRCUIT, SINGULAR, NONFINITE}
    if name == "tet":
        cases = [(lambda s: tet_eval(default_model, s), lambda s: tet_grid(default_model, s),
                  PROBE)]
        return cases, {OK, BRANCH_CUT, SHORT_CIRCUIT, NONFINITE}
    if name == "slog":
        cases = [(lambda z: slog_eval(default_model, z), lambda z: slog_grid(default_model, z),
                  _slog_points()[::9].tolist() + [1.88, -5.0, 1 + 1j, math.nan])]
        return cases, {OK, DOMAIN, NO_CONVERGENCE}
    scalar, grid = (g_eval, g_grid) if name == "g" else (f_eval, f_grid)
    cases = [(lambda w, lam=lam: scalar(lam, w), lambda w, lam=lam: grid(lam, w), _w_points(lam))
             for lam in (0.05, LOG2)]
    return cases, {OK, SHORT_CIRCUIT, SINGULAR, NONFINITE} | ({DOMAIN} if name == "f" else set())


@pytest.mark.parametrize("name", ["beta", "F", "tet", "slog", "g", "f"])
def test_scalar_is_its_grid_on_the_0d_point(default_model, name):
    cases, statuses = _cases(name, default_model)
    seen = set()
    for scalar, grid, points in cases:
        for z in np.asarray(points, np.complex128).tolist():
            v, st = grid(z)
            assert v.shape == st.shape == ()
            seen.add(int(st))
            if st == OK:
                assert np.complex128(scalar(z)).tobytes() == v.tobytes(), z
                continue
            with pytest.raises(_STATUS_EXC[int(st)]) as exc:
                scalar(z)
            assert type(exc.value) is _STATUS_EXC[int(st)], z
            assert str(exc.value).startswith(STATUS_NAMES[int(st)] + ": "), (z, str(exc.value))
    assert seen == statuses
