"""Acceptance gate: every criterion runs at its stated tolerance.

The suite is executed once per session; each test asserts one criterion so
`pytest -v` shows a pass/fail line per criterion alongside the printed
summary from the runner itself.
"""

import pytest

from betatet.acceptance import run_all


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("acceptance"))
    return {r.number: r for r in run_all(profile="high", out_dir=out_dir)}


def _check(results, number):
    res = results[number]
    assert res.passed, f"criterion {number} ({res.name}): {res.detail}"


def test_criterion_01_beta_functional_equation(results):
    _check(results, 1)


def test_criterion_02_periodicity(results):
    _check(results, 2)


def test_criterion_03_taylor_oracle(results):
    _check(results, 3)


def test_criterion_04_tau_convergence(results):
    _check(results, 4)


def test_criterion_05_tau_decay(results):
    _check(results, 5)


def test_criterion_06_tet_anchors(results):
    _check(results, 6)


def test_criterion_07_strip_boundary(results):
    _check(results, 7)


def test_criterion_08_cauchy_riemann_share(results):
    _check(results, 8)


def test_criterion_09_nonvanishing_upper_half_plane(results):
    _check(results, 9)


def test_criterion_10_bijection_and_round_trip(results):
    _check(results, 10)


def test_criterion_11_semigroup(results):
    _check(results, 11)


def test_criterion_12_render_determinism(results):
    _check(results, 12)


def test_run_all_creates_out_dir_before_the_first_criterion(tmp_path):
    out_dir = tmp_path / "new" / "dir"

    class Stop(Exception):
        pass

    def printer(line):
        assert out_dir.is_dir(), line
        raise Stop

    with pytest.raises(Stop):
        run_all(profile="default", out_dir=str(out_dir), printer=printer)
