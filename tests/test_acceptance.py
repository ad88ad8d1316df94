"""Acceptance gate: every criterion runs at its stated tolerance.

The suite is executed once per session; one test body asserts each
criterion under its own name, test_criterion_NN_<what it checks>, so
`pytest -v` shows a pass/fail line per criterion alongside the printed
summary from the runner itself.
"""

import tempfile

import numpy as np
import pytest

import betatet.acceptance as acceptance
from betatet.acceptance import (cauchy_riemann_ok, crit_functional_equation, crit_periodicity,
                                crit_strip_boundary, run_all)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("acceptance"))
    return {r.number: r for r in run_all(profile="high", out_dir=out_dir)}


CRITERIA = {
    1: "beta_functional_equation",
    2: "periodicity",
    3: "taylor_oracle",
    4: "tau_convergence",
    5: "tau_decay",
    6: "tet_anchors",
    7: "strip_boundary",
    8: "cauchy_riemann_share",
    9: "nonvanishing_upper_half_plane",
    10: "bijection_and_round_trip",
    11: "semigroup",
    12: "render_determinism",
}


def _criterion_test(number):
    def test(results):
        res = results[number]
        assert res.passed, f"criterion {number} ({res.name}): {res.detail}"

    test.__name__ = f"test_criterion_{number:02d}_{CRITERIA[number]}"
    return test


# one test per criterion, each under its own name, from one body
for _number in CRITERIA:
    _test = _criterion_test(_number)
    globals()[_test.__name__] = _test


def test_run_all_creates_out_dir_before_the_first_criterion(tmp_path):
    out_dir = tmp_path / "new" / "dir"

    class Stop(Exception):
        pass

    def printer(line):
        assert out_dir.is_dir(), line
        raise Stop

    with pytest.raises(Stop):
        run_all(profile="default", out_dir=str(out_dir), printer=printer)


def test_run_all_makes_a_temporary_out_dir_without_one(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    class Stop(Exception):
        pass

    def printer(line):
        raise Stop

    with pytest.raises(Stop):
        run_all(profile="default", printer=printer)
    assert [p.name[:15] for p in tmp_path.iterdir()] == ["betatet-accept-"]


def _spy(monkeypatch, name):
    """Record the calls that acceptance makes to its evaluator `name`."""
    calls = []
    real = getattr(acceptance, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(acceptance, name, spy)
    return calls


@pytest.mark.parametrize("crit,lams", [(crit_functional_equation, 3), (crit_periodicity, 2)],
                         ids=["criterion_1", "criterion_2"])
def test_beta_criteria_make_one_beta_grid_call_per_lambda(crit, lams, monkeypatch):
    # each lambda evaluates its points and their shifts as one stacked batch
    calls = _spy(monkeypatch, "beta_grid")
    assert crit()[0]
    assert len(calls) == lams


def test_strip_boundary_makes_one_F_grid_call(high_model, monkeypatch):
    calls = _spy(monkeypatch, "F_grid")
    assert crit_strip_boundary(high_model)[0]
    assert len(calls) == 1


def test_cauchy_riemann_makes_one_evaluator_call():
    # the four shifts of the stencil go to the evaluator as one 4 x 720 batch
    shapes = []

    def evaluate(z):
        shapes.append(z.shape)
        return np.exp(np.exp(z)), np.zeros(z.shape, np.int8)

    assert cauchy_riemann_ok(evaluate).all()
    assert shapes == [(4, 720)]
