"""The four workloads: seeded inputs, request lists, output checks, accuracy probes.

Every workload is a closed loop with one caller.  A pass is the workload's
request list run once in order; the benchmark repeats whole passes, so every
pass does the same work.  Each workload takes the benchmark's seed; the
program receives only the generated inputs.

Accuracy figures are computed outside the timed region on fixed probe sets
(they do not depend on the seed), so they compare exactly between commits.
"""

import math
from collections import Counter

import numpy as np

LOG2 = math.log(2.0)

# criterion-9 box [-1.5, 2] x [0.1, 2] of the acceptance suite
BOX = (-1.5, 2.0, 0.1, 2.0)
CR_TOL = 1e-3
CR_STEP = 1e-5
AGREE_RTOL = 1e-9
ANCHOR_TOL = 1e-10
ROUNDTRIP_RTOL = 1e-6
SAMPLES_PER_CHECK = 8


def cr_ok_frac(evaluate, window, shape):
    """Share of a shape[0] x shape[1] grid over window where Cauchy-Riemann holds.

    A point passes when all four stencil points evaluate with status OK and
    |f_y - i f_x| / max(1, |f_x|) <= CR_TOL, with central differences of step
    CR_STEP.
    """
    re = np.linspace(window[0], window[1], shape[0])
    im = np.linspace(window[2], window[3], shape[1])
    Z = (re[None, :] + 1j * im[:, None]).ravel()
    ok = np.ones(Z.size, bool)
    vals = []
    for step in (CR_STEP, -CR_STEP, 1j * CR_STEP, -1j * CR_STEP):
        v, st = evaluate(Z + step)
        ok &= st == 0
        vals.append(np.where(st == 0, v, 0.0))
    fx = (vals[0] - vals[1]) / (2 * CR_STEP)
    fy = (vals[2] - vals[3]) / (2 * CR_STEP)
    residual = np.abs(fy - 1j * fx) / np.maximum(1.0, np.abs(fx))
    return float(np.mean(ok & (residual <= CR_TOL)))


def seam_jump(evaluate, lo, hi, samples):
    """Largest |second difference| over consecutive OK samples on [lo, hi], and where."""
    x = np.linspace(lo, hi, samples)
    v, st = evaluate(x.astype(np.complex128))
    ok = st == 0
    triple = ok[:-2] & ok[1:-1] & ok[2:]
    d2 = np.where(triple, np.abs(v[2:] - 2 * v[1:-1] + v[:-2]), 0.0)
    i = int(np.argmax(d2))
    return float(d2[i]), float(x[i + 1])


def _status_problems(bt, status, where):
    """Status codes must be known and their counts must add up to the point count."""
    codes, counts = np.unique(status, return_counts=True)
    unknown = [int(c) for c in codes if int(c) not in bt.errors.STATUS_NAMES]
    problems = [f"{where}: unknown status codes {unknown}"] if unknown else []
    if int(counts.sum()) != status.size:
        problems.append(f"{where}: status counts {int(counts.sum())} != {status.size} points")
    return problems


def _agree(bt, scalar, points, vals, status, where):
    """Scalar path vs grid path: same value where the grid is OK, a raise elsewhere."""
    problems = []
    for z, v, st in zip(points, vals, status):
        try:
            s = complex(scalar(z))
        except bt.BetaTetError as exc:
            if st == 0:
                problems.append(f"{where}({z}): grid OK, scalar raised {type(exc).__name__}")
            continue
        if st != 0:
            problems.append(f"{where}({z}): grid status {int(st)}, scalar returned {s}")
        elif abs(s - v) > AGREE_RTOL * max(1.0, abs(v)):
            problems.append(f"{where}({z}): scalar {s} vs grid {v}")
    return problems


def _anchor_problems(bt, model, where):
    err = abs(complex(bt.tet_eval(model, 0.0)) - 1.0)
    return [f"{where}: |tet(0) - 1| = {err:.3g}"] if err > ANCHOR_TOL else []


def _repeat_problems(outputs, where):
    """Every pass must return exactly what the first pass returned."""
    return [f"{where} request {i}: output differs between passes"
            for i, outs in enumerate(outputs) if any(o != outs[0] for o in outs[1:])]


def _ppm_pixels(ppm, width, height):
    return np.frombuffer(ppm[-width * height * 3:], np.uint8).reshape(height, width, 3)


def _shifted(window, resolution, rng):
    """window moved by a seeded sub-pixel offset in both directions."""
    re_min, re_max, im_min, im_max = window
    dre = (re_max - re_min) / resolution[0]
    dim = (im_max - im_min) / resolution[1]
    u, v = rng.random(2)
    return (re_min + u * dre, re_max + u * dre, im_min + v * dim, im_max + v * dim)


class Workload:
    """Seeded inputs, the request list, output checks and accuracy probes."""

    name = ""
    ops_unit = ""
    setup_model = None      # get_model arguments timed by setup_s; None = import only

    def __init__(self, bt, seed, small, out_dir):
        self.bt = bt
        self.rng = np.random.default_rng(seed)
        self.small = small
        self.out_dir = out_dir

    def requests(self):
        """Zero-argument callables, one per request of a pass."""
        raise NotImplementedError

    def ops(self, output):
        """Operations completed by one request."""
        raise NotImplementedError

    def check(self, outputs):
        """(problems, ok_frac, details) from outputs[i] = request i's output per pass."""
        raise NotImplementedError

    def accuracy(self):
        """(cr_ok_frac, seam_jump_max, details) on the fixed probe sets."""
        raise NotImplementedError

    def _probe_sizes(self):
        return ((6, 4), 201) if self.small else ((36, 20), 4001)

    def _tet_accuracy(self, model):
        bt = self.bt
        shape, samples = self._probe_sizes()
        cr = cr_ok_frac(lambda z: bt.tet_grid(model, z), BOX, shape)
        jump, at = seam_jump(lambda z: bt.tet_grid(model, z), -1.9, 2.0, samples)
        return cr, jump, {"seam_x": at, "cr_grid": list(shape), "seam_samples": samples}


class RenderTet(Workload):
    """render_hue of tet at the CLI plot defaults over the criterion-9 box and the real axis."""

    name = "render_tet"
    ops_unit = "pixels"
    setup_model = {"n": 25, "k": 5}
    window = (-1.55, 2.05, -0.25, 2.05)

    def __init__(self, bt, seed, small, out_dir):
        super().__init__(bt, seed, small, out_dir)
        res = (24, 16) if small else (144, 92)
        self.specs = [bt.RenderSpec(window=_shifted(self.window, res, self.rng),
                                    resolution=res, fn="tet", depth=25, tau_depth=5)
                      for _ in range(1 if small else 4)]

    def requests(self):
        bt = self.bt
        return [lambda spec=spec: bt.render_hue(spec).to_ppm() for spec in self.specs]

    def ops(self, output):
        return self.specs[0].resolution[0] * self.specs[0].resolution[1]

    def check(self, outputs):
        bt = self.bt
        model = bt.get_model(**self.setup_model)
        problems = _repeat_problems(outputs, self.name) + _anchor_problems(bt, model, self.name)
        ok = []
        for spec, outs in zip(self.specs, outputs):
            Z = bt.render.pixel_grid(spec)
            v, st = bt.tet_grid(model, Z)
            problems += _status_problems(bt, st, "tet_grid")
            gray = np.all(_ppm_pixels(outs[0], *spec.resolution) == 128, axis=-1)
            if np.count_nonzero(st != 0) > np.count_nonzero(gray):
                problems.append("render: fewer gray pixels than non-OK statuses")
            pick = self.rng.choice(Z.size, SAMPLES_PER_CHECK, replace=False)
            problems += _agree(bt, lambda z: bt.tet_eval(model, z), Z.ravel()[pick],
                               v.ravel()[pick], st.ravel()[pick], "tet_eval")
            ok.append(np.mean(st == 0))
        return problems, float(np.mean(ok)), {}

    def accuracy(self):
        return self._tet_accuracy(self.bt.get_model(**self.setup_model))


class LineTetHigh(Workload):
    """export_real_line("tet") plus write_csv over a seeded jitter of [-1.9, 2] at the high profile."""

    name = "line_tet_high"
    ops_unit = "samples"
    setup_model = {"n": 100, "k": 20}

    def __init__(self, bt, seed, small, out_dir):
        super().__init__(bt, seed, small, out_dir)
        self.samples = 50 if small else 2500
        step = 3.9 / (self.samples - 1)
        self.shifts = [float(d) for d in self.rng.random(1 if small else 4) * step]

    def requests(self):
        bt = self.bt
        path = self.out_dir / f"{self.name}.csv"

        def request(shift):
            rows = bt.export_real_line("tet", lo=-1.9 + shift, hi=2.0 + shift,
                                       samples=self.samples, depth=100, tau_depth=20)
            bt.render.write_csv(rows, path)
            return rows

        return [lambda shift=shift: request(shift) for shift in self.shifts]

    def ops(self, output):
        return len(output)

    def check(self, outputs):
        bt = self.bt
        model = bt.get_model(**self.setup_model)
        problems = _repeat_problems(outputs, self.name) + _anchor_problems(bt, model, self.name)
        names = set(bt.errors.STATUS_NAMES.values())
        ok = []
        for outs in outputs:
            rows = outs[0]
            counts = Counter(status for _, _, status in rows)
            if counts.total() != self.samples or not set(counts) <= names:
                problems.append(f"line: status counts {dict(counts)} for {self.samples} samples")
            pick = self.rng.choice(len(rows), SAMPLES_PER_CHECK, replace=False)
            xs = np.array([rows[i][0] for i in pick], np.complex128)
            vals = np.array([rows[i][1] if rows[i][1] is not None else 0j for i in pick])
            st = np.array([0 if rows[i][1] is not None else 1 for i in pick])
            problems += _agree(bt, lambda z: bt.tet_eval(model, z), xs, vals, st, "tet_eval")
            ok.append(counts.get("ok", 0) / self.samples)
        return problems, float(np.mean(ok)), {}

    def accuracy(self):
        return self._tet_accuracy(self.bt.get_model(**self.setup_model))


class RenderFixed(Workload):
    """Fixed lambda = log 2: renders of F (scheme fixed_n), beta and the w-coordinate f."""

    name = "render_fixed"
    ops_unit = "pixels"
    window = (0.475, 4.025, -1.025, 1.025)
    probe = (0.5, 4.0, -1.0, 1.0)

    def __init__(self, bt, seed, small, out_dir):
        super().__init__(bt, seed, small, out_dir)
        res = (24, 16) if small else (142, 82)
        self.params = bt.BetaParams(lam=LOG2, depth=25)
        self.config = bt.TauConfig(n=25, k=5, scheme="fixed_n")
        self.sets = []
        for _ in range(1 if small else 4):
            window = _shifted(self.window, res, self.rng)
            self.sets.append([
                bt.RenderSpec(window=window, resolution=res, fn="F", lam=LOG2,
                              depth=25, tau_depth=5, scheme="fixed_n"),
                bt.RenderSpec(window=window, resolution=res, fn="beta", lam=LOG2, depth=25),
                bt.RenderSpec(window=window, resolution=res, fn="f", lam=LOG2, depth=25),
            ])

    def requests(self):
        bt = self.bt
        return [lambda specs=specs: tuple(bt.render_hue(s).to_ppm() for s in specs)
                for specs in self.sets]

    def ops(self, output):
        w, h = self.sets[0][0].resolution
        return 3 * w * h

    def check(self, outputs):
        bt = self.bt
        problems = _repeat_problems(outputs, self.name)
        ok = []
        scalar = {"F": lambda z: bt.F_eval(self.params, self.config, z),
                  "beta": lambda z: bt.beta_eval(self.params, z)}
        for specs, outs in zip(self.sets, outputs):
            for spec, ppm in zip(specs, outs[0]):
                Z = bt.render.pixel_grid(spec)
                v, st = bt.render._evaluate(spec, Z)
                problems += _status_problems(bt, st, f"render {spec.fn}")
                gray = np.all(_ppm_pixels(ppm, *spec.resolution) == 128, axis=-1)
                if np.count_nonzero(st != 0) > np.count_nonzero(gray):
                    problems.append(f"render {spec.fn}: fewer gray pixels than non-OK statuses")
                if spec.fn in scalar:
                    pick = self.rng.choice(Z.size, SAMPLES_PER_CHECK, replace=False)
                    problems += _agree(bt, scalar[spec.fn], Z.ravel()[pick], v.ravel()[pick],
                                       st.ravel()[pick], f"{spec.fn}_eval")
                ok.append(np.mean(st == 0))
        return problems, float(np.mean(ok)), {}

    def accuracy(self):
        bt = self.bt
        shape, samples = self._probe_sizes()

        def F(z):
            return bt.F_grid(self.params, self.config, z)

        cr = cr_ok_frac(F, self.probe, shape)
        jump, at = seam_jump(F, self.probe[0], self.probe[1], samples)
        return cr, jump, {"seam_x": at, "cr_grid": list(shape), "seam_samples": samples}


class ScalarMix(Workload):
    """Seeded scalar calls at the high profile: slog_eval / exp_iter on reduction targets,
    mixed with tet_eval, F_eval and beta_eval."""

    name = "scalar_mix"
    ops_unit = "calls"
    setup_model = {"profile": "high"}

    # reduced slog targets: step 0.02 on [0, 2.7].  At the high profile
    # slog_eval fails with NoConvergence at 1.88, about 1.4 s per call; the
    # lattice is kept whole so every pass meets the same failures
    TARGETS = np.linspace(0.0, 2.7, 136)
    PER_KIND = 68

    def __init__(self, bt, seed, small, out_dir):
        super().__init__(bt, seed, small, out_dir)
        rng = self.rng
        targets = self.TARGETS[::30] if small else self.TARGETS
        per_kind = 3 if small else self.PER_KIND
        calls = []
        for t in targets:
            t = float(t)
            if 0.0 < t < 1.0 and rng.random() < 0.5:
                z = math.log(t)             # negative real: exp reductions
            elif t > 1.0 and rng.random() < 0.5:
                z = math.exp(t)             # above e: log reductions
            else:
                z = t                       # inside the base interval
            if rng.random() < 0.5:
                calls.append(("slog_eval", z))
            else:
                calls.append(("exp_iter", (float(rng.uniform(-0.5, 0.5)), z)))
        strip = rng.uniform(-1.5, 2.0, per_kind) + 1j * rng.uniform(-2.0, 2.0, per_kind)
        calls += [("tet_eval", complex(s)) for s in strip]
        for kind in ("F_eval", "beta_eval"):
            pts = rng.uniform(0.5, 4.0, per_kind) + 1j * rng.uniform(-1.0, 1.0, per_kind)
            calls += [(kind, complex(s)) for s in pts]
        self.calls = [calls[i] for i in rng.permutation(len(calls))]

    def _call(self, model, kind, arg):
        bt = self.bt
        if kind == "slog_eval":
            return bt.slog_eval(model, arg)
        if kind == "exp_iter":
            return bt.exp_iter(model, *arg)
        if kind == "tet_eval":
            return bt.tet_eval(model, arg)
        if kind == "F_eval":
            return bt.F_eval(model.params, model.config, arg)
        return bt.beta_eval(model.params, arg)

    def _request(self, model, kind, arg):
        try:
            return ("ok", complex(self._call(model, kind, arg)))
        except self.bt.BetaTetError as exc:
            return ("raised", type(exc).__name__)

    def requests(self):
        model = self.bt.get_model(**self.setup_model)
        return [lambda c=c: self._request(model, *c) for c in self.calls]

    def ops(self, output):
        return 1 if output[0] == "ok" else 0

    def check(self, outputs):
        bt = self.bt
        model = bt.get_model(**self.setup_model)
        problems = _repeat_problems(outputs, self.name) + _anchor_problems(bt, model, self.name)
        first = [outs[0] for outs in outputs]
        for i in self.rng.choice(len(self.calls), min(20, len(self.calls)), replace=False):
            if self._request(model, *self.calls[i]) != first[i]:
                problems.append(f"{self.calls[i]}: result differs when repeated")

        grids = {"tet_eval": lambda z: bt.tet_grid(model, z),
                 "F_eval": lambda z: bt.F_grid(model.params, model.config, z),
                 "beta_eval": lambda z: bt.beta_grid(model.params, z)}
        for kind, grid in grids.items():
            idx = [i for i, (k, _) in enumerate(self.calls) if k == kind]
            pts = np.array([self.calls[i][1] for i in idx], np.complex128)
            vals, st = grid(pts)
            for i, v, s in zip(idx, vals, st):
                got = first[i]
                if (got[0] == "ok") != (s == 0):
                    problems.append(f"{kind}({self.calls[i][1]}): scalar {got}, grid status {int(s)}")
                elif got[0] == "ok" and abs(got[1] - v) > AGREE_RTOL * max(1.0, abs(v)):
                    problems.append(f"{kind}({self.calls[i][1]}): scalar {got[1]} vs grid {v}")

        slog = [(self.calls[i][1], first[i][1]) for i, (k, _) in enumerate(self.calls)
                if k == "slog_eval" and first[i][0] == "ok"]
        roundtrip = 0.0
        if slog:
            z = np.array([p[0] for p in slog], np.complex128)
            v, st = bt.tet_grid(model, np.array([p[1] for p in slog], np.complex128))
            err = np.where(st == 0, np.abs(v - z), np.inf)
            roundtrip = float(err.max())
            bad = err > ROUNDTRIP_RTOL * np.maximum(1.0, np.abs(z))
            problems += [f"slog({z[i].real}): tet(slog z) - z = {err[i]:.3g}"
                         for i in np.flatnonzero(bad)]
        completed = sum(1 for o in first if o[0] == "ok")
        raised = Counter(o[1] for o in first if o[0] == "raised")
        return problems, completed / len(first), {"roundtrip_err_max": roundtrip,
                                                  "raised": dict(raised)}

    def accuracy(self):
        return self._tet_accuracy(self.bt.get_model(**self.setup_model))


WORKLOADS = {w.name: w for w in (RenderTet, LineTetHigh, RenderFixed, ScalarMix)}
