"""Span recording for the traced benchmark run.

The benchmark records spans from its own code only: it wraps every public
function of each entroflow module at every name a caller binds it to (module
globals, the package namespace and module-level dispatch tables such as
``cli.RUNNERS``), a few class boundaries, and the two scipy entry points the
finite-volume solver calls.  Spans stay in memory and are written once, when
the run ends.  A span's self time is its duration minus the time covered by
its child spans, so the self times of all spans of a pass add up to the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# The layers are the modules of the package.
LAYERS = ("grids", "thermo", "fokker_planck", "production", "control", "sde",
          "paths", "quantum", "cli")

# Class boundaries traced as one span per call: (module, class, method, span).
METHODS = (
    ("grids", "GridDensity", "__init__", "grids.GridDensity"),
    ("fokker_planck", "DensityTrajectory", "__init__", "fokker_planck.DensityTrajectory"),
    ("sde", "PathEnsemble", "__init__", "sde.PathEnsemble"),
    ("quantum", "DensityOperator", "__init__", "quantum.DensityOperator"),
    ("cli", "ArtifactWriter", "write_csv", "cli.write_csv"),
    ("cli", "ArtifactWriter", "manifest", "cli.manifest"),
)

# scipy entry points called by the solver: (module, attribute, span).
SCIPY = (
    ("scipy.sparse.linalg", "splu", "fokker_planck.splu"),
    ("scipy.linalg", "solve_banded", "fokker_planck.solve_banded"),
)

MB = 1e6

# Per-layer metrics of a traced run: (name, unit, better).  Counts and
# computed sizes are per pass; self times are seconds per pass.
PER_LAYER = (
    ("fokker_planck.evolve.calls", "count", "lower"),
    ("fokker_planck.evolve.self_s", "s", "lower"),
    ("fokker_planck.splu.calls", "count", "lower"),
    ("fokker_planck.splu.self_s", "s", "lower"),
    ("fokker_planck.solve_banded.calls", "count", "lower"),
    ("fokker_planck.solve_banded.self_s", "s", "lower"),
    ("fokker_planck.splu_per_step", "count", "lower"),
    ("fokker_planck.cell_steps_per_s", "1/s", "higher"),
    ("control.evolve_modulated.self_s", "s", "lower"),
    ("control.simulate_feedback.self_s", "s", "lower"),
    ("control.simulate_feedback.splu_per_step", "count", "lower"),
    ("grids.GridDensity.calls", "count", "lower"),
    ("grids.GridDensity.self_s", "s", "lower"),
    ("fokker_planck.DensityTrajectory.self_s", "s", "lower"),
    ("control.decomposition_curve.calls", "count", "lower"),
    ("control.decomposition_curve.self_s", "s", "lower"),
    ("production.production_decomposition.calls", "count", "lower"),
    ("production.production_decomposition.self_s", "s", "lower"),
    ("thermo.relative_entropy.calls", "count", "lower"),
    ("thermo.relative_entropy.self_s", "s", "lower"),
    ("thermo.gibbs_density.self_s", "s", "lower"),
    ("control.trajectory_mb", "MB", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.manifest.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("cli.artifacts_identical", "bool", "higher"),
    ("sde.simulate_polymer.self_s", "s", "lower"),
    ("sde.simulate_overdamped.self_s", "s", "lower"),
    ("sde.path_steps_per_s", "1/s", "higher"),
    ("sde.ensemble_mb", "MB", "lower"),
    ("sde.PathEnsemble.self_s", "s", "lower"),
    ("sde.kinetic_temperature.self_s", "s", "lower"),
    ("sde.ensemble_summary_csv.self_s", "s", "lower"),
    ("sde.estimate_density.self_s", "s", "lower"),
    ("paths.estimate_forward_drift.self_s", "s", "lower"),
    ("paths.estimate_backward_drift.self_s", "s", "lower"),
    ("paths.finite_energy_estimate.self_s", "s", "lower"),
    ("paths.drift_fields_to_csv.self_s", "s", "lower"),
    ("paths.populated_cell_share", "ratio", "higher"),
    ("paths.finite_energy_coverage", "ratio", "higher"),
    ("quantum.lindblad_evolve.self_s", "s", "lower"),
    ("quantum.state_steps_per_s", "1/s", "higher"),
    ("quantum.evolve_closed.calls", "count", "lower"),
    ("quantum.evolve_closed.self_s", "s", "lower"),
    ("quantum.relative_entropy.calls", "count", "lower"),
    ("quantum.relative_entropy.self_s", "s", "lower"),
    ("quantum.dissipative_production_rate.self_s", "s", "lower"),
    ("quantum.load_operator.self_s", "s", "lower"),
    ("quantum.DensityOperator.self_s", "s", "lower"),
    ("quantum.projection_residue", "1", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.errors", "count", "lower") for layer in LAYERS),
    ("bench.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_share", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []        # (id, parent, pass, name, start, end, self_s)
        self.errors = defaultdict(int)
        self.work = defaultdict(float)
        self.extremes = {}
        self.pass_no = -1
        self._stack = []       # [span id, child seconds]
        self._next_id = 0
        self._undo = []

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name):
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start)

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], parent[0] if parent else -1, self.pass_no,
                           name, start, end, duration - frame[1]))

    def _record_error(self, name, exc):
        # Count an exception once, in the layer where it was first seen.
        if getattr(exc, "_traced_in", None) is None:
            try:
                exc._traced_in = name
            except AttributeError:
                pass
            self.errors[name.split(".")[0]] += 1

    def keep(self, key, value, pick):
        """Keep the running max (``pick=max``) or min of an indicator."""
        old = self.extremes.get(key)
        self.extremes[key] = value if old is None else pick(old, value)

    def wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._record_error(name, exc)
                raise
            finally:
                tracer._close(frame, name, start)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, out)
            return out

        return traced

    # -- instrumentation --------------------------------------------------

    def instrument(self):
        """Wrap the package's public functions where their callers bind them."""
        modules = {layer: importlib.import_module(f"entroflow.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("entroflow"), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn)
                for ns in namespaces:
                    self._rebind(vars(ns), ns, fn, wrapped)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(name, original))
            self._undo.append((setattr, cls, method, original))
        for mod_name, attr, name in SCIPY:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, original))
            self._undo.append((setattr, mod, attr, original))

    def _rebind(self, table, ns, fn, wrapped):
        for key, value in list(table.items()):
            if value is fn:
                table[key] = wrapped
                self._undo.append((_set_item, table, key, fn))
            elif isinstance(value, dict) and table is vars(ns):
                self._rebind(value, ns, fn, wrapped)

    def uninstrument(self):
        while self._undo:
            setter, target, key, value = self._undo.pop()
            setter(target, key, value)

    # -- output -----------------------------------------------------------

    def write(self, path):
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        rows = [[s[0], s[1], s[2], index[s[3]], round((s[4] - t0) * 1e9),
                 round((s[5] - t0) * 1e9), round(s[6] * 1e9)] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "pass", "name", "start_ns",
                                  "end_ns", "self_ns"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _set_item(table, key, value):
    table[key] = value


# -- work counters recorded at the layer boundaries ------------------------
# Each hook gets the tracer, the call's bound arguments and its result.

def _trajectory(tr, a, out):
    tr.keep("control.trajectory_mb", len(out) * out.grid.size * 8 / MB, max)


def _evolve(tr, a, out):
    steps = round((a["t1"] - a["t0"]) / a["dt"])
    tr.work["fokker_planck.cell_steps"] += a["rho0"].grid.size * steps
    _trajectory(tr, a, out)


def _ensemble(tr, a, out):
    n_traj, n_times = out.states.shape[:2]
    tr.work["sde.path_steps"] += n_traj * (n_times - 1)
    tr.keep("sde.ensemble_mb", out.states.nbytes / MB, max)


def _drift(tr, a, out):
    tr.keep("paths.populated_cell_share", float(out.mask.mean()), min)


def _energy(tr, a, out):
    tr.keep("paths.finite_energy_coverage", float(out.coverage), min)


def _lindblad(tr, a, out):
    tr.work["quantum.state_steps"] += round(a["t1"] / a["dt"])
    tr.keep("quantum.projection_residue",
            float(getattr(out, "projection_residue", 0.0)), max)


HOOKS = {
    "fokker_planck.evolve": _evolve,
    "control.simulate_feedback": _trajectory,
    "sde.simulate_overdamped": _ensemble,
    "sde.simulate_polymer": _ensemble,
    "paths.estimate_forward_drift": _drift,
    "paths.estimate_backward_drift": _drift,
    "paths.finite_energy_estimate": _energy,
    "quantum.lindblad_evolve": _lindblad,
}


# -- per-layer metrics -----------------------------------------------------

def layer_metrics(tracer, passes, untraced_walls, per_step_ops, feedback_steps):
    """Per-pass layer metrics of the traced passes.

    ``passes`` are the traced pass records, ``per_step_ops`` maps each
    operation whose solver steps are counted for ``splu_per_step`` to its
    steps per pass, ``feedback_steps`` is the simulate_feedback steps per
    pass.  Returns (metrics, self-time residual of the worst pass in s).
    """
    n = len(passes)
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    for s in spans:
        calls[s[3]] += 1
        self_s[s[3]] += s[6]
        inclusive[s[3]] += s[5] - s[4]

    def ancestors(span):
        while span[1] >= 0:
            span = by_id[span[1]]
            yield span[3]

    splu_in_ops = splu_in_feedback = 0
    for s in spans:
        if s[3] != "fokker_planck.splu":
            continue
        chain = list(ancestors(s))
        if any(name.startswith("bench.op.") and name[len("bench.op."):] in per_step_ops
               for name in chain):
            splu_in_ops += 1
        if "control.simulate_feedback" in chain:
            splu_in_feedback += 1

    # Self times of every span of a pass must add up to the pass itself.
    roots = {s[2]: s for s in spans if s[3] == "bench.pass"}
    pass_self = defaultdict(float)
    for s in spans:
        pass_self[s[2]] += s[6]
    residual = max((abs(pass_self[p] - (r[5] - r[4])) for p, r in roots.items()),
                   default=0.0)

    def rate(work_key, span_names):
        t = sum(inclusive[k] for k in span_names)
        return tracer.work[work_key] / t if t > 0.0 else 0.0

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = [p["digests"] for p in passes]
    traced_walls = [p["wall_s"] for p in passes]
    steps = sum(per_step_ops.values())
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[base] / n
        elif field == "self_s" and base in LAYERS + ("bench",):
            out[name] = sum(v for k, v in self_s.items() if k.startswith(base + ".")) / n
        elif field == "self_s":
            out[name] = self_s[base] / n
        elif field == "errors":
            out[name] = float(tracer.errors[base])
    out.update({
        "fokker_planck.splu_per_step": splu_in_ops / (steps * n) if steps else 0.0,
        "fokker_planck.cell_steps_per_s": rate("fokker_planck.cell_steps",
                                               ["fokker_planck.evolve"]),
        "control.simulate_feedback.splu_per_step":
            splu_in_feedback / (feedback_steps * n) if feedback_steps else 0.0,
        "sde.path_steps_per_s": rate("sde.path_steps", ["sde.simulate_overdamped",
                                                        "sde.simulate_polymer"]),
        "quantum.state_steps_per_s": rate("quantum.state_steps",
                                          ["quantum.lindblad_evolve"]),
        "cli.bytes_written": sum(p["bytes_written"] for p in passes) / n,
        "cli.artifacts_identical": float(all(d == digests[0] for d in digests)),
        "trace.pass_s": statistics.median(traced_walls),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "failed_share": failed / attempted,
    })
    for key, default in (("control.trajectory_mb", 0.0), ("sde.ensemble_mb", 0.0),
                         ("paths.populated_cell_share", 0.0),
                         ("paths.finite_energy_coverage", 0.0),
                         ("quantum.projection_residue", 0.0)):
        out[key] = tracer.extremes.get(key, default)
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return out, residual
