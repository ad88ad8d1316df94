"""Memory-only spans around betatet's layer functions.

A span is (name, start, end, parent, count).  The tracer replaces each
layer function at every binding where callers look it up -- the defining
module and every betatet module or package namespace that imported it by
name -- so `betatet.tetration.F_grid` and `betatet.render.F_grid` are traced
as well as `betatet.tau.F_grid`.  `restore()` puts every original back.
Spans stay in memory until the benchmark writes them out at the end.
"""

import functools
import statistics
import sys
import time

import numpy as np


def _depth(args, kwargs, pos):
    return int(kwargs["depth"] if "depth" in kwargs else args[pos])


def _kernel_count(depth_pos):
    def count(args, kwargs, out):
        points = int(np.size(args[0]))
        return {"points": points,
                "point_levels": points * _depth(args, kwargs, depth_pos),
                "ok": int(np.count_nonzero(out[1] == 0))}
    return count


def _f_grid_count(args, kwargs, out):
    points = int(np.size(args[2]))
    return {"points": points, "stack_rows": points * (args[1].k + 1)}


def _points(pos):
    def count(args, kwargs, out):
        return {"points": int(np.size(args[pos]))}
    return count


# span name -> (module, attribute path of the original, counter or None)
LAYERS = {
    "kernels.fixed": ("betatet._kernels", "beta_fixed_grid", _kernel_count(2)),
    "kernels.variable": ("betatet._kernels", "beta_variable_grid", _kernel_count(1)),
    "kernels.w": ("betatet._kernels", "g_comp_grid", _kernel_count(2)),
    "beta.beta_eval": ("betatet.beta", "beta_eval", None),
    "tau.F_grid": ("betatet.tau", "F_grid", _f_grid_count),
    "tau.F_eval": ("betatet.tau", "F_eval", None),
    "tetration.calibrate": ("betatet.tetration", "calibrate", None),
    "tetration.tet_grid": ("betatet.tetration", "tet_grid", _points(1)),
    "tetration.tet_eval": ("betatet.tetration", "tet_eval", None),
    "tetration.slog_eval": ("betatet.tetration", "slog_eval", None),
    "tetration.exp_iter": ("betatet.tetration", "exp_iter", None),
    "render.render_hue": ("betatet.render", "render_hue", None),
    "render.evaluate": ("betatet.render", "_evaluate_fn", None),
    "render.colorize": ("betatet.render", "colorize", _points(1)),
    "render.encode": ("betatet.render", "PixelBuffer.to_ppm", None),
    "render.export_real_line": ("betatet.render", "export_real_line", None),
    "render.write_csv": ("betatet.render", "write_csv", None),
}


def _bindings(module_name, path):
    """Every (owner, attribute) through which callers reach the original."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    if outer:
        return original, [(owner, attr)]
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "betatet" or name.startswith("betatet.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, key))
    return original, found


class Tracer:
    """Records spans while installed; `restore()` undoes every patch."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1, count dict or None]
        self._open = []
        self._patches = []    # (owner, attribute, original)

    def _wrap(self, name, fn, count):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (module, path, count) in LAYERS.items():
            original, owners = _bindings(module, path)
            wrapper = self._wrap(name, original, count)
            for owner, attr in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ------------------------------------------------------------------ metrics

# name -> (unit, better); the order is the order of the report
PER_LAYER = {}
for _v in ("variable", "fixed", "w"):
    PER_LAYER.update({
        f"kernels.{_v}.calls": ("count", "lower"),
        f"kernels.{_v}.point_levels": ("count", "lower"),
        f"kernels.{_v}.busy_s": ("s", "lower"),
        f"kernels.{_v}.ns_per_point_level": ("ns", "lower"),
        f"kernels.{_v}.ok_frac": ("share", "higher"),
    })
PER_LAYER.update({
    "beta.beta_eval.p50_us": ("us", "lower"),
    "tau.F_grid.calls": ("count", "lower"),
    "tau.F_grid.points": ("count", "lower"),
    "tau.stack_rows": ("count", "lower"),
    "tau.stack_s": ("s", "lower"),
    "tau.descent_s": ("s", "lower"),
    "tau.stack_share": ("share", "lower"),
    "tetration.calibrate_s": ("s", "lower"),
    "tetration.calibrate.F_calls": ("count", "lower"),
    "tetration.tet_grid.points": ("count", "lower"),
    "tetration.step_s": ("s", "lower"),
    "tetration.tet_eval.calls": ("count", "lower"),
    "tetration.tet_eval.p50_us": ("us", "lower"),
    "tetration.slog_eval.p50_ms": ("ms", "lower"),
    "tetration.slog_eval.tet_evals_per_call": ("count", "lower"),
    "tetration.exp_iter.p50_ms": ("ms", "lower"),
    "render.evaluate_s": ("s", "lower"),
    "render.colorize_s": ("s", "lower"),
    "render.colorize.ns_per_px": ("ns", "lower"),
    "render.encode_s": ("s", "lower"),
    "render.export_rows_s": ("s", "lower"),
    "render.csv_s": ("s", "lower"),
    "trace.overhead_frac": ("share", "lower"),
    "trace.coverage": ("share", "higher"),
})


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def _annotate(spans):
    """Per span: duration, time covered by direct children, and ancestor names."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    ancestors = [frozenset()] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            ancestors[i] = ancestors[parent] | {spans[parent][0]}
    return dur, child, ancestors


def layer_metrics(setup_spans, spans, passes, traced_wall, untraced_wall):
    """Per-layer metrics from one traced cold calibration and traced request passes.

    Counts and busy times are per pass over the workload's request list, so
    they compare exactly between runs of the same seed.  `traced_wall` and
    `untraced_wall` are the summed request times of the traced and untraced
    twins of the same requests.
    """
    dur, child, anc = _annotate(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(spans[i][4][key] for i in idx(name) if spans[i][4] is not None)

    per = 1.0 / max(passes, 1)
    out = {}
    for v in ("variable", "fixed", "w"):
        name = f"kernels.{v}"
        busy = sum(dur[i] for i in idx(name))
        levels = total(name, "point_levels")
        out[f"{name}.calls"] = len(idx(name)) * per
        out[f"{name}.point_levels"] = levels * per
        out[f"{name}.busy_s"] = busy * per
        out[f"{name}.ns_per_point_level"] = _ratio(busy * 1e9, levels)
        out[f"{name}.ok_frac"] = _ratio(total(name, "ok"), total(name, "points"))

    out["beta.beta_eval.p50_us"] = _median([dur[i] for i in idx("beta.beta_eval")]) * 1e6

    fg = idx("tau.F_grid")
    f_time = sum(dur[i] for i in fg)
    stack = sum(dur[i] for i, s in enumerate(spans)
                if s[0].startswith("kernels.") and "tau.F_grid" in anc[i])
    out["tau.F_grid.calls"] = len(fg) * per
    out["tau.F_grid.points"] = total("tau.F_grid", "points") * per
    out["tau.stack_rows"] = total("tau.F_grid", "stack_rows") * per
    out["tau.stack_s"] = stack * per
    out["tau.descent_s"] = sum(dur[i] - child[i] for i in fg) * per
    out["tau.stack_share"] = _ratio(stack, f_time)

    s_dur, _, s_anc = _annotate(setup_spans)
    out["tetration.calibrate_s"] = sum(s_dur[i] for i, s in enumerate(setup_spans)
                                       if s[0] == "tetration.calibrate")
    out["tetration.calibrate.F_calls"] = sum(
        1 for i, s in enumerate(setup_spans)
        if s[0] == "tau.F_grid" and "tetration.calibrate" in s_anc[i])

    tg = idx("tetration.tet_grid")
    out["tetration.tet_grid.points"] = total("tetration.tet_grid", "points") * per
    out["tetration.step_s"] = sum(dur[i] - child[i] for i in tg) * per
    te = idx("tetration.tet_eval")
    slog = idx("tetration.slog_eval")
    out["tetration.tet_eval.calls"] = len(te) * per
    out["tetration.tet_eval.p50_us"] = _median([dur[i] for i in te]) * 1e6
    out["tetration.slog_eval.p50_ms"] = _median([dur[i] for i in slog]) * 1e3
    out["tetration.slog_eval.tet_evals_per_call"] = _ratio(
        sum(1 for i in te if "tetration.slog_eval" in anc[i]), len(slog))
    out["tetration.exp_iter.p50_ms"] = _median([dur[i] for i in idx("tetration.exp_iter")]) * 1e3

    colorize = sum(dur[i] for i in idx("render.colorize"))
    out["render.evaluate_s"] = sum(dur[i] for i in idx("render.evaluate")) * per
    out["render.colorize_s"] = colorize * per
    out["render.colorize.ns_per_px"] = _ratio(colorize * 1e9, total("render.colorize", "points"))
    out["render.encode_s"] = sum(dur[i] for i in idx("render.encode")) * per
    out["render.export_rows_s"] = sum(dur[i] - child[i]
                                      for i in idx("render.export_real_line")) * per
    out["render.csv_s"] = sum(dur[i] for i in idx("render.write_csv")) * per

    top = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0)
    out["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    out["trace.coverage"] = _ratio(top, traced_wall)
    return out
