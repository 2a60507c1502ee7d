"""Outside-in tracing of tomosense: spans and counts at public-function calls.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
every public tomosense function in every tomosense module namespace that
binds it (``from .tomography import pdf_slice`` copies the name into
``transport``, so each binding must be wrapped) with a wrapper that records a
span and, for the functions named in ``_HOOKS``, the work counts read off
the call's arguments and result.  ``Tracer.uninstall`` puts the originals
back.

A span's self time is its duration minus the time of the spans nested in
it.  The hooks run after the span's clock stops; their cost is kept out of
both the span and its parent and is reported as ``bookkeeping_s``.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("states", "tomography", "transport", "homodyne", "cli")

# Formatting functions belong to the CLI layer wherever they are defined.
EXPORTERS = frozenset({"tomogram_csv", "tomogram_pgm", "sweep_csv", "crossover_json",
                       "record_csv", "record_bytes"})

# Named per-layer metric groups: metric prefix -> functions whose spans it sums.
GROUPS = {
    "states.build": ("build_state", "build_svs_family", "build_cat_family",
                     "janus_exponential", "apply_ladder", "normalization_constant",
                     "two_photon_raising_matrix"),
    "tomography.hermite": ("hermite_function",),
    "tomography.slice": ("pdf_slice",),
    "tomography.tomogram": ("tomogram",),
    "transport.w1_cdf": ("w1_cdf",),
    "transport.crossover": ("find_crossover",),
    "transport.sweep": ("sweep_w1",),
    "transport.w1_empirical": ("w1_empirical",),
    "homodyne.sample": ("sample_quadrature",),
    "homodyne.crossover": ("empirical_crossover",),
    "cli.export": tuple(sorted(EXPORTERS)),
    "cli.write": ("atomic_write",),
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Counter:
    """Callable pass-through that counts its calls (curve and pair builders)."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class Tracer:
    """Collects spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.stack = []          # open spans: [index, start, child_seconds]
        self.spans = []          # (name, start, end, parent index or -1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.bookkeeping_s = 0.0
        self.layers = {}         # function name -> layer
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import tomosense

        namespaces = [tomosense] + [sys.modules[f"tomosense.{m}"] for m in MODULES]
        wrappers = {}
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("tomosense")):
                    continue
                if obj not in wrappers:
                    if obj.__name__ in self.layers:
                        raise RuntimeError(f"two tomosense functions named {obj.__name__}")
                    self.layers[obj.__name__] = (
                        "cli" if obj.__name__ in EXPORTERS else obj.__module__.rsplit(".", 1)[-1])
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((ns, name, obj))
                setattr(ns, name, wrappers[obj])

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()

    def _wrap(self, fn):
        name = fn.__name__
        hook = _HOOKS.get(name)
        pre = _PRE_HOOKS.get(name)
        clock = time.perf_counter
        stack, spans = self.stack, self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs, extra = pre(args, kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[1]
                spans[index] = (name, start, end, parent)
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[2]
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if pre is not None:
                tracer.counts[f"{name}.evals"] += extra.calls
            done = clock()
            tracer.bookkeeping_s += done - end
            if stack:
                stack[-1][2] += done - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, traced_wall: float) -> dict:
        """Every per-layer figure of what was recorded, keyed by metric name."""
        c, out = self.counts, {}
        for group, names in GROUPS.items():
            out[f"{group}.calls"] = sum(self.calls[n] for n in names)
            out[f"{group}.self_s"] = sum(self.self_s[n] for n in names)
        builds = out["states.build.calls"] = self.calls["build_state"]
        out["states.build.distinct_ratio"] = _ratio(len(self.distinct["build_state"]), builds)
        out["states.cutoff.mean"] = _ratio(c["cutoff_sum"], builds)
        out["tomography.hermite.evals"] = c["hermite_evals"]
        out["tomography.hermite.distinct_ratio"] = _ratio(
            len(self.distinct["hermite_function"]), self.calls["hermite_function"])
        out["tomography.tomogram.rows"] = c["tomogram_rows"]
        out["transport.w1_cdf.cells"] = c["w1_cells"]
        out["transport.w1_cdf.split_cells"] = c["w1_split_cells"]
        out["transport.crossover.evals"] = c["find_crossover.evals"]
        out["transport.w1_empirical.samples"] = c["empirical_samples"]
        out["homodyne.sample.shots"] = c["shots"]
        out["homodyne.crossover.evals"] = c["empirical_crossover.evals"]
        out["cli.export.bytes"] = c["export_bytes"]
        out["cli.write.bytes"] = c["write_bytes"]
        layer_self = dict.fromkeys(MODULES, 0.0)
        for name, seconds in self.self_s.items():
            layer_self[self.layers[name]] += seconds
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        for group in ("homodyne.sample", "tomography.tomogram", "cli.export"):
            out[f"{group}.share"] = out[f"{group}.self_s"] / traced_wall
        out["trace.self_coverage"] = sum(layer_self.values()) / traced_wall
        out["trace.bookkeeping_frac"] = self.bookkeeping_s / traced_wall
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_s,end_s,parent\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{self.layers[name]},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent}\n")


# -- count hooks: (tracer, args, kwargs, result) ------------------------------

def _build_state(t, args, kwargs, result):
    t.distinct["build_state"].add(_arg(args, kwargs, 0, "spec"))
    t.counts["cutoff_sum"] += result.cutoff


def _hermite(t, args, kwargs, result):
    n_max = _arg(args, kwargs, 0, "n_max")
    x = np.ascontiguousarray(_arg(args, kwargs, 1, "x"), dtype=float)
    t.counts["hermite_evals"] += (n_max + 1) * x.size
    t.distinct["hermite_function"].add((n_max, hashlib.sha1(x.tobytes()).digest()))


def _tomogram(t, args, kwargs, result):
    t.counts["tomogram_rows"] += result.values.shape[0]


def _w1_cdf(t, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    u = a.cdf - b.cdf
    t.counts["w1_cells"] += len(u) - 1
    t.counts["w1_split_cells"] += int(np.count_nonzero(u[:-1] * u[1:] < 0.0))


def _w1_empirical(t, args, kwargs, result):
    t.counts["empirical_samples"] += (np.size(_arg(args, kwargs, 0, "samples_a"))
                                      + np.size(_arg(args, kwargs, 1, "samples_b")))


def _sample(t, args, kwargs, result):
    t.counts["shots"] += result.shots


def _export(t, args, kwargs, result):
    t.counts["export_bytes"] += len(result)


def _write(t, args, kwargs, result):
    t.counts["write_bytes"] += len(_arg(args, kwargs, 1, "data"))


_HOOKS = {
    "build_state": _build_state,
    "hermite_function": _hermite,
    "tomogram": _tomogram,
    "w1_cdf": _w1_cdf,
    "w1_empirical": _w1_empirical,
    "sample_quadrature": _sample,
    "atomic_write": _write,
    **{name: _export for name in EXPORTERS},
}


# -- pre-hooks count search evaluations by wrapping the first curve or pair ---

def _count_first_callable(args, kwargs, name, first_of_tuple=False):
    args = list(args)
    target = args[0] if args else kwargs[name]
    if first_of_tuple:
        counter = _Counter(target[0])
        replaced = (counter,) + tuple(target[1:])
    else:
        counter = replaced = _Counter(target)
    if args:
        args[0] = replaced
    else:
        kwargs = dict(kwargs, **{name: replaced})
    return tuple(args), kwargs, counter


_PRE_HOOKS = {
    "find_crossover": lambda a, k: _count_first_callable(a, k, "curve_a"),
    "empirical_crossover": lambda a, k: _count_first_callable(a, k, "pairs", True),
}
