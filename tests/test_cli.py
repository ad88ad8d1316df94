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


@pytest.mark.parametrize("argv", [
    ["eval", "tet", "--s", "0.5", "--lambda", "2"],
    ["plot", "--fn", "tet", "--lambda", "5", "--window", "-1,1,-1,1", "--res", "4x4"],
    ["line", "--fn", "slog", "--lambda", "0.3", "--from", "0", "--to", "1", "--samples", "3"],
    ["line", "--fn", "tet", "--lambda", "0.5+3i", "--from", "0", "--to", "1", "--samples", "3"],
], ids=["eval-tet", "plot-tet", "line-slog", "line-tet"])
def test_tet_and_slog_reject_a_fixed_lambda(argv, tmp_path, capsys):
    # tet and slog exist only for the variable family; a fixed lambda used to
    # be ignored, and the variable result came back with exit 0
    out = tmp_path / "out"
    rc = main(argv + ([] if argv[0] == "eval" else ["--out", str(out)]))
    assert rc == 2
    assert "lambda" in capsys.readouterr().err
    assert not out.exists()


def test_tet_accepts_the_variable_lambda(capsys):
    assert main(["eval", "tet", "--s", "0.5", "--lambda", "variable"]) == 0
    with_lam = capsys.readouterr().out
    assert main(["eval", "tet", "--s", "0.5"]) == 0
    assert capsys.readouterr().out == with_lam


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "beta", "--definitely-not-a-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "tet", "--s", "0", "--profile", "bogus"],
    ["plot", "--fn", "tet", "--window", "-1,1,-1,1", "--res", "4x4", "--out", "x.ppm",
     "--profile", "bogus"],
    ["line", "--fn", "slog", "--from", "0", "--to", "1", "--samples", "3", "--out", "x.csv",
     "--profile", "bogus"],
    ["calibrate", "--profile", "bogus"],
    ["selftest", "--profile", "bogus"],
], ids=["eval-profile", "plot-profile", "line-profile", "calibrate-profile", "selftest-profile"])
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


@pytest.mark.parametrize("short,long", [("-.5", "-0.5"), ("-.5+1i", "-0.5+1i"), ("-i", "0-1i"),
                                        ("-j", "0-1i")])
def test_eval_takes_a_negative_value_with_no_digit_after_the_minus(short, long, capsys):
    # argparse used to read these as options: exit 2, "expected one argument"
    assert main(["eval", "tet", "--s", short]) == 0
    got = capsys.readouterr().out
    assert main(["eval", "tet", "--s", long]) == 0
    assert got == capsys.readouterr().out


@pytest.mark.parametrize("value,signal", [("-inf", "BranchCut"), ("-nan", "NonFinite")])
def test_eval_takes_minus_inf_and_nan(value, signal, capsys):
    assert main(["eval", "tet", "--s", value]) == 1
    assert capsys.readouterr().err.startswith(f"{signal}:")


@pytest.mark.parametrize("short,long", [
    (["line", "--fn", "tet", "--from", "-.5", "--to", "1", "--samples", "5"],
     ["line", "--fn", "tet", "--from", "-0.5", "--to", "1", "--samples", "5"]),
    (["plot", "--fn", "tet", "--window", "-.5,1,-1,1", "--res", "4x3"],
     ["plot", "--fn", "tet", "--window", "-0.5,1,-1,1", "--res", "4x3"]),
], ids=["line-from", "plot-window"])
def test_line_and_plot_take_a_leading_minus_dot(short, long, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(short + ["--out", str(a)]) == 0
    assert main(long + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
               "--samples", "30", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re", "im", "status"]
    xs = np.array([float(r[0]) for r in rows[1:]])
    vals, st = slog_grid(get_model(profile="default"), xs)
    assert [r[3] for r in rows[1:]] == [STATUS_NAMES[int(c)] for c in st]
    assert "ok" in {r[3] for r in rows[1:]}
    for r, v, c in zip(rows[1:], vals, st):
        if c == 0:
            assert (float(r[1]), float(r[2])) == (v.real, v.imag)
        else:
            assert r[1] == r[2] == "nan"


def test_calibrate_prints_x0(capsys, high_model):
    rc = main(["calibrate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x0 = " in out and "profile default: n=25, k=5" in out
    x0 = float(out.split("=", 1)[1].split()[0])
    # (25, 5) and the high profile give the same bits on the real axis
    assert x0 == high_model.x0


@pytest.mark.parametrize("argv", [
    ["plot", "--fn", "f", "--lambda", "0.5+3i", "--window", "-1,1,-1,1", "--res", "4x4",
     "--out", "{missing}/f.ppm"],
    ["line", "--fn", "beta", "--lambda", "0.5", "--from", "0", "--to", "1", "--samples", "3",
     "--out", "{missing}/beta.csv"],
    ["selftest", "--profile", "default", "--out-dir", "{file}/sub"],
], ids=["plot", "line", "selftest"])
def test_unwritable_output_exits_two(argv, tmp_path, capsys):
    # a missing directory (or a file where one is needed) is reported, not
    # a traceback; selftest checks its directory before any criterion runs
    (tmp_path / "file").write_text("")
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
    rc = main([a.format(**paths) for a in argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


_TET_ARGV = {
    "eval": ["eval", "tet", "--s", "0.5+0.5i"],
    "plot": ["plot", "--fn", "tet", "--window", "-1,1,-1,1", "--res", "4x3", "--out", "{out}"],
    "line-tet": ["line", "--fn", "tet", "--from", "-1.9", "--to", "2", "--samples", "7",
                 "--out", "{out}"],
    "line-slog": ["line", "--fn", "slog", "--from", "-1", "--to", "20", "--samples", "7",
                  "--out", "{out}"],
}


@pytest.mark.parametrize("flags", [["--depth", "25"], ["--tau-depth", "5"],
                                   ["--depth", "100", "--tau-depth", "20"]],
                         ids=["depth", "tau-depth", "both"])
@pytest.mark.parametrize("command", _TET_ARGV)
def test_tet_and_slog_take_no_depth_flags(command, flags, tmp_path, capsys):
    # tet and slog take their depths from --profile only; --depth used to replace
    # half of the profile's pair in eval and to pick the model in plot and line
    out = tmp_path / "out"
    rc = main([a.format(out=out) for a in _TET_ARGV[command]] + flags)
    assert rc == 2
    assert "--profile" in capsys.readouterr().err
    assert not out.exists()


_OTHER_ARGV = {
    "eval": ["eval", "{fn}", "--s", "0.5", "--lambda", "{lam}"],
    "plot": ["plot", "--fn", "{fn}", "--window", "-1,1,-1,1", "--res", "4x3", "--out", "{out}",
             "--lambda", "{lam}"],
    "line": ["line", "--fn", "{fn}", "--from", "0.5", "--to", "2", "--samples", "7",
             "--out", "{out}", "--lambda", "{lam}"],
}


@pytest.mark.parametrize("fn,lam", [("beta", "0.693"), ("F", "variable"), ("g", "0.693"),
                                    ("f", "0.693")])
@pytest.mark.parametrize("command", _OTHER_ARGV)
def test_profile_flag_is_only_for_tet_and_slog(command, fn, lam, tmp_path, capsys):
    # --profile names a tet model; given with any other function it used to be
    # ignored, so eval beta printed the depth-100 value under --profile high
    out = tmp_path / "out"
    argv = [a.format(fn=fn, lam=lam, out=out) for a in _OTHER_ARGV[command]]
    assert main(argv + ["--profile", "high"]) == 2
    assert "--profile" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0


@pytest.mark.parametrize("flags", [["--depth", "3"], ["--tau-depth", "7"]],
                         ids=["depth", "tau-depth"])
@pytest.mark.parametrize("fn", ["g", "f"])
@pytest.mark.parametrize("command", _OTHER_ARGV)
def test_g_and_f_take_no_depth_flags(command, fn, flags, tmp_path, capsys):
    # g and f are the Taylor-data limit and read no depth; the flags used to be
    # ignored, so eval g --depth 3 printed the same value as without it
    out = tmp_path / "out"
    argv = [a.format(fn=fn, lam="0.69", out=out) for a in _OTHER_ARGV[command]]
    assert main(argv + flags) == 2
    assert "--depth and --tau-depth are for beta and F" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", _OTHER_ARGV)
def test_beta_takes_no_tau_depth_flag(command, tmp_path, capsys):
    # beta reads no tau depth; the flag used to be ignored, so eval beta --tau-depth 7
    # printed the same value as without it
    out = tmp_path / "out"
    argv = [a.format(fn="beta", lam="0.69", out=out) for a in _OTHER_ARGV[command]]
    assert main(argv + ["--tau-depth", "7"]) == 2
    assert "--tau-depth is for F" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--depth", "25"]) == 0


@pytest.mark.parametrize("profile", [None, "high"])
def test_profile_flag_selects_the_tet_and_slog_model(profile, tmp_path, capsys):
    # eval, plot and line all evaluate tet and slog with get_model(profile=...)
    from betatet.render import RenderSpec, export_real_line, render_hue, write_csv
    from betatet.tetration import get_model, tet_eval

    model = get_model(profile=profile or "default")
    n, k = model.n, model.k
    out, ref = tmp_path / "out", tmp_path / "ref"
    run = {c: [a.format(out=out) for a in argv] + (["--profile", profile] if profile else [])
           for c, argv in _TET_ARGV.items()}
    assert main(run["eval"]) == 0
    assert parse_complex(capsys.readouterr().out) == tet_eval(model, 0.5 + 0.5j)
    assert main(run["plot"]) == 0
    spec = RenderSpec(window=(-1, 1, -1, 1), resolution=(4, 3), fn="tet", depth=n, tau_depth=k)
    assert out.read_bytes() == render_hue(spec).to_ppm()
    for fn, lo, hi in (("tet", -1.9, 2.0), ("slog", -1.0, 20.0)):
        assert main(run[f"line-{fn}"]) == 0
        write_csv(export_real_line(fn, lo=lo, hi=hi, samples=7, depth=n, tau_depth=k), ref)
        assert out.read_text() == ref.read_text()


@pytest.mark.parametrize("argv", [
    ["eval", "g", "--lambda", "inf", "--s", "0.5"],
    ["eval", "f", "--lambda", "inf", "--s", "5"],
    ["eval", "beta", "--lambda", "nan", "--s", "0.5"],
    ["eval", "F", "--lambda", "nan", "--s", "0.5"],
    ["taylor", "--lambda", "inf", "--terms", "3"],
    ["taylor", "--lambda", "nan", "--terms", "3"],
    ["plot", "--fn", "g", "--lambda", "inf", "--window", "-1,1,-1,1", "--res", "4x4",
     "--out", "{tmp}/g.ppm"],
], ids=["eval-g", "eval-f", "eval-beta", "eval-F", "taylor-inf", "taylor-nan", "plot-g"])
def test_nonfinite_lambda_exits_two(argv, tmp_path, capsys):
    rc = main([a.format(tmp=tmp_path) for a in argv])
    assert rc == 2
    assert "lambda must be finite" in capsys.readouterr().err
    assert not (tmp_path / "g.ppm").exists()


@pytest.mark.parametrize("window,res", [("1,2,3", "4x4"), ("-1,1,-1,1", "80")])
def test_plot_malformed_window_or_resolution_exits_two(window, res, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--fn", "f", "--lambda", "0.5", "--window", window, "--res", res,
              "--out", str(tmp_path / "x.ppm")])
    assert exc.value.code == 2


@pytest.mark.parametrize("passed,code", [([True, True], 0), ([True, False], 1)])
def test_selftest_exit_code_follows_the_criteria(passed, code, monkeypatch):
    import betatet.acceptance as acceptance

    def fake_run_all(profile, out_dir):
        return [acceptance.CriterionResult(i, "stub", p, "", 0.0) for i, p in enumerate(passed)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    assert main(["selftest"]) == code


def test_readme_cli_examples_run(tmp_path, capsys):
    # every command of README's CLI block but selftest exits 0, its --out moved to tmp_path
    import shlex
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("betatet ")]
    commands = [argv for argv in commands if argv[0] != "selftest"]
    assert len(commands) >= 8
    for argv in commands:
        argv = [str(tmp_path / a) if flag == "--out" else a for flag, a in zip([None, *argv], argv)]
        assert main(argv) == 0, argv
