"""Layer tracing from the benchmark's side of the program boundary.

`install()` wraps every public function of the `branchlab` modules `rng`,
`model`, `engine`, `genealogy`, `stats`, `superprocess`, `loglaplace`,
`verify` and `cli` at each module-level name where callers look it up,
including the defining module's own namespace, so intra-module calls such as
`solve_u` -> `semigroup_apply` are spans too.  The lifetime laws' `ppf` and
the motion laws' `variance` methods are wrapped on their classes, and
`engine.ndtri` is replaced by a counter of the values it receives.  Private
helpers (`engine._batch_simulate`, `rng._mix`, ...) are not wrapped: their
time is the self time of the public span that called them.

Each call is a span with a start, an end and its caller; a span's self time
is its duration minus the time of the spans it caused.  Counts are taken
from the arguments and results at the same boundaries, and only on a span
that is the outermost one of its layer, so `run_conditioned` -> `run_once`
is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("rng", "model", "engine", "genealogy", "stats", "superprocess", "loglaplace", "verify", "cli")

# engine entry points per simulation mode
MODES = {
    "counts": ("survival_counts", "conditioned_counts"),
    "arena": ("iter_runs", "run_once", "run_conditioned"),
    "snapshot": ("simulate_fields",),
}

# names the per-layer metrics are derived from; if one of them no longer
# exists it is reported as missing, never as 0
REQUIRED = (
    "engine.survival_counts", "engine.conditioned_counts", "engine.iter_runs",
    "engine.simulate_fields", "engine.ndtri", "rng.slot_uniform",
    "model.lifetime_ppf", "model.motion_variance",
    "genealogy.sample_survivors", "genealogy.ancestral_line", "genealogy.coalescence_times",
    "loglaplace.solve_u", "loglaplace.semigroup_apply",
    "superprocess.sample_poisson_field", "verify.run_criteria", "cli.dispatch",
)
GENEALOGY_QUERIES = ("sample_survivors", "ancestral_line", "coalescence_times")


def _arena_counts(record):
    return {
        "engine.arena.runs": 1,
        "engine.arena.attempts": int(record.attempts),
        "engine.arena.kept_rows": len(record.arena),
    }


# span name -> counts taken from its result (from each yielded item for the
# generator `iter_runs`), on a span that is the outermost of its layer
_COUNTS = {
    "engine.survival_counts": lambda r: {"engine.counts.attempts": int(r.size)},
    # accepted attempts, as returned; the discarded tail of an attempt block
    # is not visible from outside the engine
    "engine.conditioned_counts": lambda r: {"engine.counts.attempts": int(r[1].sum())},
    "engine.iter_runs": _arena_counts,
    "engine.run_once": _arena_counts,
    "engine.run_conditioned": _arena_counts,
    "engine.simulate_fields": lambda r: {
        "engine.snapshot.fields": int(r[3].size),
        "engine.snapshot.alive_rows": int(r[1].size),
    },
    "rng.slot_uniform": lambda r: {"rng.slot_uniform.keys": int(np.size(r))},
    "model.lifetime_ppf": lambda r: {"model.lifetime_ppf.draws": int(np.size(r))},
    "model.motion_variance": lambda r: {"model.motion_variance.draws": int(np.size(r))},
    "loglaplace.solve_u": lambda r: {"loglaplace.solve_u.steps": int(r.times.size - 1)},
}


class Tracer:
    """In-memory span accumulator; one per traced process."""

    def __init__(self):
        self._stack = []  # [name, layer, child_seconds, start]
        self._fn_depth = Counter()
        self._layer_depth = Counter()
        self.calls = Counter()
        self.busy = defaultdict(float)  # outermost span of the same function
        self.top = defaultdict(float)  # outermost span of the same layer
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.wrapped = set()

    def enter(self, name, layer):
        self._fn_depth[name] += 1
        self._layer_depth[layer] += 1
        frame = [name, layer, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def exit(self, frame) -> bool:
        """Close the span; True when it was the outermost span of its layer."""
        duration = time.perf_counter() - frame[3]
        name, layer = frame[0], frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        self.self_time[name] += duration - frame[2]
        self._fn_depth[name] -= 1
        self._layer_depth[layer] -= 1
        if not self._fn_depth[name]:
            self.busy[name] += duration
        if not self._layer_depth[layer]:
            self.top[name] += duration
            return True
        return False

    def wrap(self, name, layer, fn):
        self.wrapped.add(name)
        count = _COUNTS.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = self.enter(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        outermost = self.exit(frame)
                    if count and outermost:
                        self.counts.update(count(item))
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            frame = self.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = self.exit(frame)
            if count and outermost:
                self.counts.update(count(result))
            return result

        return traced

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "top": dict(self.top),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "absent": sorted(set(REQUIRED) - self.wrapped),
        }


# (base class in `model`, method, span name) wrapped on every subclass
_METHODS = (
    ("LifetimeLaw", "ppf", "model.lifetime_ppf"),
    ("MotionLaw", "variance", "model.motion_variance"),
)


def install(tracer: Tracer | None = None) -> Tracer:
    """Wrap the branchlab layers in place and return the tracer.

    A layer module, class or name that no longer exists is skipped; the
    names in REQUIRED it would have provided are then reported as absent.
    """
    tracer = tracer or Tracer()
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"branchlab.{layer}")
        except ModuleNotFoundError:
            continue
    namespaces = [vars(m) for m in modules.values()]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", layer, obj)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is obj:
                        ns[key] = wrapper

    model = vars(modules["model"]) if "model" in modules else {}
    for base_name, method, name in _METHODS:
        base = model.get(base_name)
        for cls in list(model.values()):
            if inspect.isclass(cls) and base and issubclass(cls, base) and method in vars(cls):
                setattr(cls, method, tracer.wrap(name, "model", vars(cls)[method]))

    engine = modules.get("engine")
    if hasattr(engine, "ndtri"):
        ndtri = engine.ndtri

        def counted_ndtri(x, *args, **kwargs):
            tracer.calls["engine.ndtri"] += 1
            tracer.counts["engine.normal_draws"] += int(np.size(x))
            return ndtri(x, *args, **kwargs)

        engine.ndtri = counted_ndtri
        tracer.wrapped.add("engine.ndtri")
    return tracer


def split_metrics(summary: dict):
    """(counts, seconds) of one traced run, keyed by metric name.

    Counts must repeat exactly between runs at one seed; seconds are
    combined by median before `rate_metrics` divides them by counts.
    """
    calls, busy, top, own, cnt = (summary[k] for k in ("calls", "busy", "top", "self", "counts"))
    counts = {
        key: cnt.get(key, 0)
        for key in (
            "engine.counts.attempts", "engine.normal_draws", "engine.arena.runs",
            "engine.arena.attempts", "engine.arena.kept_rows", "engine.snapshot.fields",
            "engine.snapshot.alive_rows", "rng.slot_uniform.keys", "model.lifetime_ppf.draws",
            "model.motion_variance.draws", "loglaplace.solve_u.steps",
        )
    }
    counts["genealogy.calls"] = sum(v for k, v in calls.items() if k.startswith("genealogy."))
    for name in ("loglaplace.solve_u", "loglaplace.semigroup_apply", "superprocess.sample_poisson_field"):
        counts[f"{name}.calls"] = calls.get(name, 0)
    for q in GENEALOGY_QUERIES:
        counts[f"genealogy.{q}.calls"] = calls.get(f"genealogy.{q}", 0)

    seconds = {}
    for layer in LAYERS:
        prefix = layer + "."
        seconds[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(prefix))
        seconds[f"{layer}.busy_s"] = sum(v for k, v in top.items() if k.startswith(prefix))
    for mode, fns in MODES.items():
        seconds[f"engine.{mode}.self_s"] = sum(own.get(f"engine.{f}", 0.0) for f in fns)
        seconds[f"engine.{mode}.busy_s"] = sum(top.get(f"engine.{f}", 0.0) for f in fns)
    for name in ("rng.slot_uniform", "model.lifetime_ppf", "model.motion_variance",
                 "loglaplace.solve_u", "loglaplace.semigroup_apply",
                 "superprocess.sample_poisson_field"):
        seconds[f"{name}.busy_s"] = busy.get(name, 0.0)
    seconds["loglaplace.solve_u.self_s"] = own.get("loglaplace.solve_u", 0.0)
    for q in GENEALOGY_QUERIES:
        seconds[f"genealogy.{q}.busy_s"] = busy.get(f"genealogy.{q}", 0.0)
    return counts, seconds


# rate metric -> (inclusive seconds, count, scale)
RATES = {
    "engine.counts.us_per_attempt": ("engine.counts.busy_s", "engine.counts.attempts", 1e6),
    "engine.arena.ns_per_kept_row": ("engine.arena.busy_s", "engine.arena.kept_rows", 1e9),
    "engine.snapshot.ms_per_field": ("engine.snapshot.busy_s", "engine.snapshot.fields", 1e3),
    "rng.slot_uniform.ns_per_key": ("rng.slot_uniform.busy_s", "rng.slot_uniform.keys", 1e9),
    "genealogy.us_per_run": ("genealogy.busy_s", "engine.arena.runs", 1e6),
    "loglaplace.solve_u.us_per_step": ("loglaplace.solve_u.busy_s", "loglaplace.solve_u.steps", 1e6),
    "loglaplace.semigroup_apply.us_per_call": (
        "loglaplace.semigroup_apply.busy_s", "loglaplace.semigroup_apply.calls", 1e6),
    "superprocess.sample_poisson_field.us_per_field": (
        "superprocess.sample_poisson_field.busy_s", "superprocess.sample_poisson_field.calls", 1e6),
    **{f"genealogy.{q}.us_per_call": (f"genealogy.{q}.busy_s", f"genealogy.{q}.calls", 1e6)
       for q in GENEALOGY_QUERIES},
}


def rate_metrics(counts: dict, seconds: dict) -> dict:
    """Per-unit costs from inclusive (busy) times and exact counts; 0 where
    nothing was counted."""
    return {
        name: seconds[sec] / counts[cnt] * scale if counts[cnt] else 0.0
        for name, (sec, cnt, scale) in RATES.items()
    }


def metric_sources(metric: str) -> tuple:
    """Wrapped names a metric is derived from (empty for layer totals)."""
    parts = metric.split(".")
    if parts[0] == "engine" and parts[1] in MODES:
        return tuple(f"engine.{f}" for f in MODES[parts[1]] if f"engine.{f}" in REQUIRED)
    if metric == "engine.normal_draws":
        return ("engine.ndtri",)
    if metric.startswith("genealogy.") and parts[1] in GENEALOGY_QUERIES:
        return (f"genealogy.{parts[1]}",)
    if metric == "genealogy.us_per_run":
        return ("engine.iter_runs",)
    name = ".".join(parts[:2])
    return (name,) if name in REQUIRED else ()
