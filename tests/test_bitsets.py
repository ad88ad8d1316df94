import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bitsets.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_bitsets_reports_a_perturbed_array(tmp_path):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    dumped = _run("dump", ROOT, a, "--quick")
    assert dumped.returncode == 0, dumped.stderr
    same = _run("compare", a, a)
    with np.load(a) as arrays:
        saved = dict(arrays)
    assert same.returncode == 0 and same.stdout == f"0 of {len(saved)} arrays differ\n"
    assert {"x0.default", "x0.high", "table_v.default", "table_v.high", "tet.high.line.v",
            "tet.default.render.shift3.v", "tet.high.render.shift0.st",
            "tet.default.repeats.v", "tet.high.repeats.st", "F.variable.100-20.strip.st",
            "tau.0.5+3i.25-5.window.v", "beta.variable.100.mixed.v", "beta.log2.25.one_point.st",
            "g.log2.edges.st", "f.0.25.window.v", "kernel.variable.100.rows5.stops.v",
            "kernel.log2.25.rows25.stops.one_point.st", "kernel.0.5+3i.100.rows100.mixed.v",
            "kernel.w.0.25.rows25.stops.st", "cond.0.05.far", "g.10.far.st",
            "scalar.beta.log2.25.stops.v", "scalar.F.variable.25-5.stops.st",
            "scalar.tet.high.stops.v", "scalar.slog.default.targets.st", "scalar.g.0.05.w.v",
            "scalar.f.log2.w.st"} <= saved.keys()
    # the scalar calls raise every failure status, and NaN stands where they raised
    scalar = [name[:-3] for name in saved if name.startswith("scalar.") and name.endswith(".st")]
    assert len(scalar) == 16
    assert set(np.concatenate([saved[f"{name}.st"] for name in scalar]).tolist()) == set(range(7))
    for name in scalar:
        nan = np.isnan(saved[f"{name}.v"])
        assert np.array_equal(nan, saved[f"{name}.st"] != 0), name
    # the w sets follow the quick point sets; the edge points stay whole
    assert saved["g.0.5+3i.complex.v"].size == 12 and saved["f.log2.edges.v"].size == 5
    # kernel rows lead; the stop points and the w stop points stay whole
    assert saved["kernel.log2.100.rows5.complex.v"].shape == (5, 12)
    stops = saved["kernel.0.5+3i.25.rows25.stops.v"]
    assert stops.shape[0] == 25 and stops.shape[1] > 12
    assert saved["kernel.0.5+3i.25.rows25.stops.one_point.v"].shape == stops.shape
    assert saved["kernel.w.log2.rows5.stops.v"].shape == (5, 10)
    assert saved["cond.10.far"].size == 12
    # the repeats keep their repeats and +-0 twins under --quick
    assert saved["tet.default.repeats.v"].size > 12
    # flip the lowest bit of one value: the bytes differ, the value hardly
    name = "F.variable.100-20.strip.v"
    saved[name] = saved[name].copy()
    saved[name].view(np.int64)[0] ^= 1
    np.savez(b, **saved)
    differ = _run("compare", a, b)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [name, f"1 of {len(saved)} arrays differ"]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git repository")
def test_against_a_revision_dumps_both_trees():
    # HEAD's tree and this checkout, each dumped quick by this tool, then compared
    ran = _run("against", "HEAD", "--quick")
    counts = re.fullmatch(r"(\d+) of (\d+) arrays differ", ran.stdout.splitlines()[-1])
    assert counts, ran.stdout + ran.stderr
    differ, total = map(int, counts.groups())
    assert ran.returncode == (1 if differ else 0)
    dumped = [int(line.split()[0]) for line in ran.stdout.splitlines() if " arrays from " in line]
    assert dumped == [total, total]
    unknown = _run("against", "no-such-revision", "--quick")
    assert unknown.returncode == 2 and "no-such-revision" in unknown.stderr
