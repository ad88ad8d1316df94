"""Small-size test of the benchmark harness: python3 -m pytest perfbench"""

import argparse
import json
import math
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# metric names the harness promises beyond the JSON line
DETAILS = {"fail_frac", "cr_fail_frac", "sample_p50_ms", "latency_tail_percentile", "requests",
           "seam_x"}


@pytest.fixture(scope="module")
def bt():
    return run.import_betatet()


def _bindings_snapshot():
    return {(name, key): id(value)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "betatet" or name.startswith("betatet."))
            for key, value in vars(mod).items() if callable(value)}


def test_declared_metrics_match_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_its_unit(bt, name, trace):
    args = argparse.Namespace(seed=3, seconds=0.0, trace=trace)
    before = _bindings_snapshot()
    lines, result, record = run.run_workload(bt, name, args, small=True, setup_reps=1)
    assert _bindings_snapshot() == before
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines)
    assert DETAILS <= set(record["details"])
    assert set(record["facts"]) >= {"nproc", "backend", "available_backends", "numpy",
                                    "python", "seed", "BETA_TET_BACKEND", "BETA_TET_THREADS"}
    if name == "scalar_mix":
        assert "roundtrip_err_max" in record["details"]
    if trace and name == "render_tet":
        layer = result["metrics"]
        assert layer["kernels.variable.calls"]["value"] > 0
        assert 0 < layer["tau.stack_share"]["value"] < 1
        assert layer["tetration.calibrate.F_calls"]["value"] > 0


def test_tracer_wraps_every_binding_and_restores_it(bt):
    originals = {"tau": bt.tau.F_grid, "kernel": bt._kernels.beta_variable_grid,
                 "encode": bt.render.PixelBuffer.to_ppm}
    model = bt.get_model(n=8, k=5)
    before = _bindings_snapshot()
    tracer = spans.Tracer()
    with tracer:
        for module in (bt, bt.tau, bt.tetration, bt.render):
            assert module.F_grid is not originals["tau"]
        assert bt._kernels.beta_variable_grid is not originals["kernel"]
        assert bt.render.PixelBuffer.to_ppm is not originals["encode"]
        bt.tet_eval(model, 0.5)
    assert _bindings_snapshot() == before
    assert bt.tetration.F_grid is originals["tau"]
    assert bt.render.PixelBuffer.to_ppm is originals["encode"]
    names = [s[0] for s in tracer.spans]
    assert names[0] == "tetration.tet_eval" and "kernels.variable" in names
    # parents come before children and every span is closed
    assert all(s[3] < i and s[2] >= s[1] for i, s in enumerate(tracer.spans))


def test_missing_sources_exit_with_2(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_betatet()
    assert exc.value.code == 2


def test_tail_is_the_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(1, 101)]
    value, pct = run.tail(lat)
    assert pct == 90 and value == 90.0
    assert sum(1 for x in lat if x > value) >= 10
