import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betatet.cli import format_complex, main, parse_complex, parse_lambda


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("0.5+3i", 0.5 + 3j),
        ("0.5+3j", 0.5 + 3j),
        ("3i", 3j),
        ("-i", -1j),
        ("+i", 1j),
        ("1e-2-0.7i", 0.01 - 0.7j),
        ("2.5e+1+1e-3i", 25 + 0.001j),
        (" 0+0i ", 0j),
    ],
)
def test_parse_complex(text, expected):
    assert parse_complex(text) == expected


def test_parse_lambda_variable():
    assert parse_lambda("variable") == "variable"
    assert parse_lambda("0.693") == 0.693 + 0j


@settings(max_examples=100, deadline=None)
@given(st.complex_numbers(min_magnitude=0, max_magnitude=1e12,
                          allow_nan=False, allow_infinity=False))
def test_format_parse_round_trip(z):
    assert parse_complex(format_complex(z)) == z


def test_eval_tet_at_zero(capsys):
    assert main(["eval", "tet", "--s", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(parse_complex(out) - 1.0) < 1e-10


def test_eval_beta_far_left(capsys):
    rc = main(["eval", "beta", "--lambda", "0.693", "--s", "-40", "--depth", "100"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert abs(parse_complex(out)) < 1e-12


def test_eval_round_trip(capsys):
    main(["eval", "beta", "--lambda", "0.6931471805599453", "--s", "0.25+0.5i",
          "--depth", "50"])
    first = capsys.readouterr().out.strip()
    main(["eval", "beta", "--lambda", "0.6931471805599453", "--s", "0.25+0.5i",
          "--depth", "50"])
    assert capsys.readouterr().out.strip() == first


def test_eval_F_variable(capsys):
    rc = main(["eval", "F", "--lambda", "variable", "--s", "2", "--depth", "100",
               "--tau-depth", "20"])
    assert rc == 0
    val = parse_complex(capsys.readouterr().out.strip())
    assert abs(val.imag) < 1e-9


def test_taylor_command(capsys):
    rc = main(["taylor", "--lambda", "0.6931", "--terms", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("a_0 = ")
    assert parse_complex(lines[0].split("=", 1)[1]) == 0
    a1 = parse_complex(lines[1].split("=", 1)[1])
    assert abs(a1 - 0.5) < 1e-3


def test_eval_singular_exit_code(capsys):
    s = 1 + 1j * math.pi / math.log(2)
    rc = main(["eval", "beta", "--lambda", "0.6931471805599453",
               "--s", format_complex(s), "--depth", "50"])
    assert rc == 1
    assert "SingularPoint" in capsys.readouterr().err


def test_eval_missing_lambda_exit_code(capsys):
    for argv in (["beta"], ["g"], ["f"], ["g", "--lambda", "variable"]):
        rc = main(["eval", *argv, "--s", "0.5"])
        assert rc == 2, argv
        assert "lambda" in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [
    ["--fn", "beta"], ["--fn", "g"], ["--fn", "f"], ["--fn", "F"],
    ["--fn", "g", "--lambda", "variable"], ["--fn", "f", "--lambda", "variable"],
], ids=["beta", "g", "f", "F", "g-variable", "f-variable"])
def test_line_missing_lambda_exit_code(argv, tmp_path, capsys):
    rc = main(["line", *argv, "--from", "0.5", "--to", "1", "--samples", "3",
               "--out", str(tmp_path / "line.csv")])
    assert rc == 2
    assert "lambda" in capsys.readouterr().err
    assert not (tmp_path / "line.csv").exists()


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "beta", "--definitely-not-a-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "tet", "--s", "0", "--profile", "bogus"],
    ["calibrate", "--profile", "bogus"],
    ["selftest", "--profile", "bogus"],
], ids=["eval-profile", "calibrate-profile", "selftest-profile"])
def test_unknown_scheme_or_profile_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_plot_writes_ppm(tmp_path, capsys):
    out = tmp_path / "g.ppm"
    rc = main(["plot", "--fn", "f", "--lambda", "0.5+3i",
               "--window", "-1,1,-1,1", "--res", "32x24", "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P6\n32 24\n255\n")
    assert len(raw) == len(b"P6\n32 24\n255\n") + 32 * 24 * 3


def test_line_writes_csv(tmp_path, capsys):
    out = tmp_path / "tet.csv"
    rc = main(["line", "--fn", "tet", "--from", "-1.9", "--to", "2",
               "--samples", "50", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,re,im,status"
    assert len(lines) == 51


def test_line_slog_writes_csv(tmp_path, capsys):
    import csv

    import numpy as np

    from betatet import get_model, slog_grid
    from betatet.errors import STATUS_NAMES

    out = tmp_path / "slog.csv"
    rc = main(["line", "--fn", "slog", "--from", "-1", "--to", "20",
               "--samples", "30", "--depth", "8", "--tau-depth", "5", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re", "im", "status"]
    xs = np.array([float(r[0]) for r in rows[1:]])
    vals, st = slog_grid(get_model(n=8, k=5), xs)
    assert [r[3] for r in rows[1:]] == [STATUS_NAMES[int(c)] for c in st]
    assert "ok" in {r[3] for r in rows[1:]}
    for r, v, c in zip(rows[1:], vals, st):
        if c == 0:
            assert (float(r[1]), float(r[2])) == (v.real, v.imag)
        else:
            assert r[1] == r[2] == "nan"


def test_calibrate_prints_x0(capsys):
    rc = main(["calibrate", "--profile", "default"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x0 = " in out
    x0 = float(out.split("=", 1)[1].split()[0])
    assert -5 <= x0 <= 10
