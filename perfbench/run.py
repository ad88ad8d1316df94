#!/usr/bin/env python3
"""Benchmark of the betatet pipeline, end to end or per layer.

    python3 perfbench/run.py --workload render_tet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ./src.  Each
workload prints a report, then one JSON line
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A result file (and, traced, the spans) goes to perfbench/out/.  Exits 1 when
an output check fails and 2 when the betatet sources are missing.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 5

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "ok_frac": ("share", "higher"),
    "cr_ok_frac": ("share", "higher"),
    "seam_jump_max": ("1", "lower"),
}

# cold import plus cold get_model in a fresh interpreter; prints seconds
_SETUP_CHILD = """
import json, sys, time
src, model = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
t0 = time.perf_counter()
import betatet
if model is not None:
    betatet.get_model(**model)
elapsed = time.perf_counter() - t0
if not betatet.__file__.startswith(src):
    sys.exit(f"imported betatet from {betatet.__file__}, not {src}")
print(elapsed)
"""


def import_betatet():
    if not (SRC / "betatet" / "__init__.py").is_file():
        print(f"perfbench: no betatet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import betatet

    if not betatet.__file__.startswith(str(SRC)):
        print(f"perfbench: imported betatet from {betatet.__file__}", file=sys.stderr)
        sys.exit(2)
    return betatet


def setup_seconds(model, reps):
    """Median of `reps` cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(model)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(latencies):
    """Highest whole percentile with at least ten samples beyond it: (value, percentile)."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def machine_facts(bt, args):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "backend": bt.BACKEND,
        "available_backends": bt.available_backends(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "BETA_TET_BACKEND": os.environ.get("BETA_TET_BACKEND"),
        "BETA_TET_THREADS": os.environ.get("BETA_TET_THREADS"),
    }


def run_passes(requests, seconds, tracer=None):
    """Whole passes over the request list, as many as fit in `seconds` (at least one).

    With a tracer, each request runs untraced and then traced; the untraced
    twin gives the latencies and the pair gives the tracing overhead.
    Returns (latencies, traced latencies, outputs per request, passes, errors).
    """
    latencies, traced, errors = [], [], []
    outputs = [[] for _ in requests]
    clock = time.perf_counter
    start = clock()
    passes = 0
    while passes == 0 or (clock() - start) * (passes + 1) / passes <= seconds:
        for i, request in enumerate(requests):
            for twin in ((False, True) if tracer else (False,)):
                if twin:
                    tracer.install()
                t0 = clock()
                try:
                    out = request()
                except Exception:             # any escape is a benchmark failure
                    out = None
                    errors.append(f"request {i}: {traceback.format_exc()}")
                finally:
                    t1 = clock()
                    if twin:
                        tracer.restore()
                (traced if twin else latencies).append(t1 - t0)
                if not twin:
                    outputs[i].append(out)
        passes += 1
    return latencies, traced, outputs, passes, errors


def run_workload(bt, name, args, small=False, setup_reps=SETUP_REPS):
    """One workload run: returns (report lines, result dict for the last line, record)."""
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name](bt, args.seed, small, OUT)
    setup = setup_seconds(wl.setup_model, setup_reps)
    if wl.setup_model is not None:
        bt.get_model(**wl.setup_model)
    requests = wl.requests()
    for request in requests[:3]:          # warm-up, untimed
        request()

    tracer = setup_tracer = None
    if args.trace:
        setup_tracer = spans.Tracer()
        if wl.setup_model is not None:
            with setup_tracer:
                bt.calibrate(**wl.setup_model)
        tracer = spans.Tracer()
    latencies, traced, outputs, passes, errors = run_passes(requests, args.seconds, tracer)

    problems = list(errors)
    ok_frac, details = 0.0, {}
    if not errors:
        found, ok_frac, details = wl.check(outputs)
        problems += found
    cr, jump, acc = wl.accuracy()
    details.update(acc)

    ops = sum(wl.ops(o) for outs in outputs for o in outs if o is not None)
    busy = sum(latencies)
    # Each request runs once per pass.  Its time is its slowest repeat, which
    # the host's bursts of faster CPU, seconds long, do not move; means and
    # medians over all samples follow how much of a run such bursts cover.
    request_s = np.max(np.reshape(latencies, (passes, len(requests))), axis=0)
    tail_ms, tail_pct = tail(latencies)
    e2e = {
        "setup_s": setup,
        "ops_per_s": ops / passes / float(request_s.sum()),
        "latency_p50_ms": float(np.median(request_s)) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "ok_frac": ok_frac,
        "cr_ok_frac": cr,
        "seam_jump_max": jump,
    }
    details.update({
        "requests": len(latencies), "passes": passes, "ops": ops, "ops_unit": wl.ops_unit,
        "latency_tail_percentile": tail_pct,
        "sample_p50_ms": statistics.median(latencies) * 1e3, "ops_per_busy_s": ops / busy,
        "fail_frac": 1.0 - ok_frac, "cr_fail_frac": 1.0 - cr,
    })
    if args.trace:
        metrics = spans.layer_metrics(setup_tracer.spans, tracer.spans, passes,
                                      sum(traced), busy)
        units = spans.PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    record = {"workload": name, "facts": machine_facts(bt, args), "problems": problems,
              "end_to_end": e2e, "per_layer": metrics if args.trace else None,
              "details": details, "latencies_s": latencies}
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump({"setup": setup_tracer.spans, "requests": tracer.spans}, fh)

    lines = [f"# perfbench {name}: {len(latencies)} requests in {passes} passes, "
             f"{ops} {wl.ops_unit}",
             "# facts " + json.dumps(record["facts"])]
    lines += [f"{k:<44} {v:>16.6g} {units[k][0]}" for k, v in metrics.items()]
    lines.append("# details " + json.dumps(details, default=str))
    lines += [f"# CHECK FAILED: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    return lines, result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bt = import_betatet()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        lines, result, _ = run_workload(bt, name, args)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        correct &= result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
