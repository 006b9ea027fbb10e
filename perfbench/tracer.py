"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the ``hwmimo`` package from outside: it
replaces each wrapped function on its defining module, on every module that
imported it by name (``from .x import name``) and in module-level dicts that
hold it, so every call site reaches the wrapper.  Each call becomes a span
``[name, start, end, parent, thread, attrs]``.  Spans are kept in memory and
written out once at the end; :func:`analyze` turns them into the per-layer
metrics.

Self time is a span's duration minus the part of that interval its child
spans cover.  A job submitted to a thread pool records the span that
submitted it as its parent, and a thread blocked on a pool result records a
``pool.wait`` span, so waiting shows as its own layer instead of inflating the
caller's self time.
"""

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import threading
import time
import weakref

import numpy as np

# modules whose public functions are wrapped, in import order
MODULES = ("rng", "pilots", "channel", "estimator", "rates", "montecarlo",
           "scenario_gen", "experiments", "cli")

# private functions wrapped in addition to the public ones: the per-job
# functions experiments.run fans out
PRIVATE_PREFIX = "_job_"

# methods wrapped on their class: (module, class, method)
METHODS = (
    ("estimator", "EstimatorCache", "psi_inverse"),
    ("estimator", "EstimatorCache", "pblocks"),
    ("estimator", "EstimatorCache", "reduced_gain"),
    ("estimator", "EstimatorCache", "apply_reduced_gain"),
)

# spans whose self time forms a named layer metric; every other span of
# module ``m`` counts towards ``m.self_s``
SELF_TIME_METRICS = {
    "estimator.apply_reduced_gain": "estimator.apply_gain_s",
    "estimator.error_covariance": "estimator.error_covariance_s",
    "rates.mrc_moment_coefficients": "rates.coefficients_s",
    "rates.sinr_trajectory_from_coefficients": "rates.sinr_assembly_s",
    "rates.sinr": "rates.sinr_assembly_s",
    "rng.complex_normal": "rng.complex_normal_s",
    "channel.draw_phases": "channel.draw_phases_s",
    "montecarlo.mmse_filter": "montecarlo.mmse_filter_s",
    "experiments.write_rows": "experiments.write_rows_s",
    "pool.wait": "experiments.pool_wait_s",
}
# the first psi_inverse/pblocks call per (cache, cell) builds the Cholesky
# factorization; its self time is the cell build
CELL_BUILD_METRIC = "estimator.cell_build_s"

SCENARIO_FUNCTIONS = ("build_layout", "drop_users", "link_gains", "power_control",
                      "make_scenario", "generate")


class Tracer:
    """In-memory span recorder; thread-safe."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1)
        self._cells_seen = set()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread, or of the span
        that submitted the pool job this thread is running."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def open(self, name, attrs=None):
        rec = [name, time.perf_counter(), None, self.current(), threading.get_ident(), attrs]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        self._stack().append(idx)
        return idx

    def close(self, idx, attrs=None):
        self.spans[idx][2] = time.perf_counter()
        if attrs:
            self.spans[idx][5] = {**(self.spans[idx][5] or {}), **attrs}
        self._stack().pop()

    def wrap(self, fn, name, before=None, after=None):
        """Wrapper recording one span per call.  ``before(*args, **kw)``
        returns attributes known at entry; ``after(result, *args, **kw)``
        adds attributes known at exit."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, before(*args, **kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, after(result, *args, **kwargs) if after else None)
            return result

        return traced

    def serial(self, obj):
        """Stable small integer per live object (ids can be reused)."""
        with self._lock:
            s = self._serials.get(obj)
            if s is None:
                s = self._serials[obj] = next(self._next_serial)
            return s

    def first_use(self, key):
        with self._lock:
            if key in self._cells_seen:
                return False
            self._cells_seen.add(key)
            return True

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -- span attributes ------------------------------------------------------------


def _attr_hooks(tracer, rng_mod):
    def cell(cache, j):
        return {"first": tracer.first_use((tracer.serial(cache), int(j)))}

    def gain_key(cache, j, l, k, t):
        return {"key": [tracer.serial(cache), int(j), int(l), int(k), float(t)]}

    def apply_gain(cache, gain, psi):
        # complex multiply-adds of "aq,...qr->...ar": Ae * (B*Ae) * lead * mult
        return {"flop": 8.0 * gain.shape[0] * psi.size}

    def coefficients(cache, j, k, ts):
        return {"uses": int(np.size(ts))}

    def complex_normal(rng, var, shape):
        return {"samples": math.prod(int(d) for d in shape)}

    def substream(master_seed, *key):
        return {"channel": bool(key) and int(key[-1]) == rng_mod.CHANNEL}

    def mmse_filter(estimates, error_covs, scenario, hw, j, k):
        c = 1 if estimates.ndim == 3 else estimates.shape[0]
        lk = estimates.shape[-3] * estimates.shape[-2]
        n = estimates.shape[-1]
        # outer-product sum plus a complex LU solve per trial
        return {"flop": c * (8.0 * lk * n * n + 8.0 / 3.0 * n ** 3)}

    def csv_bytes(result, path, columns, rows):
        return {"bytes": os.path.getsize(path)}

    return {
        "estimator.psi_inverse": (cell, None),
        "estimator.pblocks": (cell, None),
        "estimator.reduced_gain": (gain_key, None),
        "estimator.apply_reduced_gain": (apply_gain, None),
        "rates.mrc_moment_coefficients": (coefficients, None),
        "rng.complex_normal": (complex_normal, None),
        "rng.substream": (substream, None),
        "montecarlo.mmse_filter": (mmse_filter, None),
        "experiments.write_rows": (None, csv_bytes),
    }


# -- installation -----------------------------------------------------------------


def install(tracer):
    """Wrap the package's functions and methods and the thread-pool
    boundary.  Span names are ``<module>.<function>``; methods drop the
    class name."""
    mods = {m: importlib.import_module(f"hwmimo.{m}") for m in MODULES}
    attrs = _attr_hooks(tracer, mods["rng"])
    replaced = {}  # id(original) -> wrapper
    for short, mod in mods.items():
        for fname, value in list(vars(mod).items()):
            if not (inspect.isfunction(value) and value.__module__ == mod.__name__):
                continue
            if fname.startswith("_") and not fname.startswith(PRIVATE_PREFIX):
                continue
            name = f"{short}.{fname}"
            replaced[id(value)] = tracer.wrap(value, name, *attrs.get(name, (None, None)))
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        name = f"{short}.{meth}"
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), name, *attrs.get(name, (None, None))))
    # rebind every alias: module attributes and values of module-level dicts
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]
    _install_pool_hooks(tracer)


def _install_pool_hooks(tracer):
    executor = concurrent.futures.ThreadPoolExecutor
    future = concurrent.futures.Future
    submit, result = executor.submit, future.result

    def traced_submit(self, fn, /, *args, **kwargs):
        parent = tracer.current()

        def job(*a, **kw):
            local = tracer._local
            saved = getattr(local, "inherited", None)
            local.inherited = parent
            try:
                return fn(*a, **kw)
            finally:
                local.inherited = saved

        return submit(self, job, *args, **kwargs)

    def traced_result(self, timeout=None):
        if self.done():
            return result(self, timeout)
        idx = tracer.open("pool.wait")
        try:
            return result(self, timeout)
        finally:
            tracer.close(idx)

    executor.submit = traced_submit
    future.result = traced_result


# -- analysis -------------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = {}
    for rec in spans:
        if rec[3] is not None:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    return [
        (rec[2] - rec[1]) - _covered(children.get(i, ()), rec[1], rec[2])
        for i, rec in enumerate(spans)
    ]


def _self_metric(name, attrs):
    if name in ("estimator.psi_inverse", "estimator.pblocks") and attrs and attrs.get("first"):
        return CELL_BUILD_METRIC
    return SELF_TIME_METRICS.get(name, name.split(".")[0] + ".self_s")


def analyze(spans, wall_s):
    """Per-layer metrics from the spans of one traced call that took
    ``wall_s`` seconds of wall time."""
    selfs = self_times(spans)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    main = next((rec[4] for rec in spans if rec[3] is None), None)
    gain_keys = set()
    gain_calls = 0
    job_s = 0.0
    off_main_busy = []
    for rec, self_s in zip(spans, selfs):
        name, start, end, parent, thread, attrs = rec
        attrs = attrs or {}
        add(_self_metric(name, attrs), self_s)
        module, func = name.split(".", 1)
        if module == "scenario_gen" and func in SCENARIO_FUNCTIONS:
            add("scenario_gen.calls", 1)
        if thread != main and (parent is None or spans[parent][4] != thread):
            off_main_busy.append(end - start)
        if name == "estimator.build_cache":
            add("estimator.build_cache.calls", 1)
        elif name in ("estimator.psi_inverse", "estimator.pblocks") and attrs.get("first"):
            add("estimator.cells_built", 1)
        elif name == "estimator.reduced_gain":
            gain_calls += 1
            gain_keys.add(tuple(attrs["key"]))
        elif name == "estimator.apply_reduced_gain":
            add("estimator.apply_gain.gflop_computed", attrs["flop"] / 1e9)
        elif name == "rates.mrc_moment_coefficients":
            add("rates.coefficients.calls", 1)
            add("rates.coefficients.uses", attrs["uses"])
        elif name == "rng.complex_normal":
            add("rng.samples", attrs["samples"])
        elif name == "rng.substream":
            add("rng.substream.calls", 1)
            add("montecarlo.world_draws", int(attrs["channel"]))
        elif name == "montecarlo.mmse_filter":
            add("montecarlo.mmse_filter.gflop_computed", attrs["flop"] / 1e9)
        elif name.startswith("experiments._job_"):
            add("experiments.jobs", 1)
            job_s += end - start
        elif name == "experiments.write_rows":
            add("experiments.csv_bytes", attrs["bytes"])
    out["estimator.reduced_gain.calls"] = gain_calls
    out["estimator.reduced_gain.hit_ratio"] = (
        (gain_calls - len(gain_keys)) / gain_calls if gain_calls else 0.0
    )
    out["experiments.concurrency"] = job_s / wall_s
    layer_s = sum(v for k, v in out.items() if k.endswith("_s"))
    out["trace.accounted_share"] = layer_s / (wall_s + sum(off_main_busy))
    return out
