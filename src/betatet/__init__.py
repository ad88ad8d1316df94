"""Tetration from asymptotic exponential families.

Builds the map family beta (fixed or drifting exponent rate), pulls it back
with iterated logarithms to the tetration F, normalizes tet(0) = 1, and
exposes the inverse slog, fractional iteration, and domain-coloring renders.
"""

from ._kernels import BACKEND, available_backends
from .beta import (
    VARIABLE,
    BetaParams,
    TaylorSeries,
    beta_eval,
    beta_grid,
    beta_periodicity_check,
    f_eval,
    g_eval,
    singular_lattice,
    taylor_coefficients,
)
from .errors import (
    BetaTetError,
    BranchCut,
    CalibrationFailed,
    DomainError,
    NoConvergence,
    NonFinite,
    ShortCircuit,
    SingularPoint,
)
from .render import Overlay, PixelBuffer, RenderSpec, export_real_line, render_hue
from .tau import F_eval, F_grid, TauConfig, tau_grid
from .tetration import (
    TetModel,
    calibrate,
    derivative_positivity_scan,
    exp_iter,
    get_model,
    slog_eval,
    slog_grid,
    tet_eval,
    tet_grid,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "available_backends",
    "VARIABLE",
    "BetaParams",
    "TaylorSeries",
    "beta_eval",
    "beta_grid",
    "beta_periodicity_check",
    "f_eval",
    "g_eval",
    "singular_lattice",
    "taylor_coefficients",
    "BetaTetError",
    "BranchCut",
    "CalibrationFailed",
    "DomainError",
    "NoConvergence",
    "NonFinite",
    "ShortCircuit",
    "SingularPoint",
    "Overlay",
    "PixelBuffer",
    "RenderSpec",
    "export_real_line",
    "render_hue",
    "F_eval",
    "F_grid",
    "TauConfig",
    "tau_grid",
    "TetModel",
    "calibrate",
    "derivative_positivity_scan",
    "exp_iter",
    "get_model",
    "slog_eval",
    "slog_grid",
    "tet_eval",
    "tet_grid",
    "__version__",
]
