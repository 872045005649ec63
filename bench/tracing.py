"""Spans around calls into gyroball's layers, recorded from outside.

Nothing under ``src/`` is changed: :func:`installed` swaps the public
callables the benchmark reaches (model callables, ``gyr_via_gyrator_identity``,
``get_normed``/``get_model``, the CLI's parser, point parser/formatter and
metric/route tables) for wrappers that record a span, and restores them on
exit.  The benchmark itself opens the root spans around ``run_suite``,
``CheckReport.to_json`` and ``cli.main``.
"""

import contextlib
import dataclasses
import time

import numpy as np

from gyroball import cli, core, engine
from gyroball.core import GyronormedModel

LAYERS = ("vectors", "einstein", "mobius", "disk", "core", "registry", "engine", "cli")

# Layer prefix of each model's own callables.
MODEL_LAYER = {"einstein": "einstein", "mobius": "mobius",
               "poincare-disk": "disk", "group": "core.group"}

# Spans reported with calls, rows and self time; measure.layer_metrics
# reports fewer figures for the others.
KERNEL_SPANS = (
    "vectors.sample",
    "einstein.add.f64", "einstein.add.ld", "mobius.add.f64", "mobius.add.ld",
    "disk.add.f64", "disk.add.ld", "core.group.add.f64", "core.group.add.ld",
    "disk.gyr", "core.group.gyr", "core.gyr_identity",
    "einstein.norm", "mobius.norm", "disk.norm", "vectors.norm", "core.norm",
    "core.distance",
)
GYR_SPANS = ("disk.gyr", "core.group.gyr", "core.gyr_identity")


class Tracer:
    """In-memory span recorder: one list ``[name, start, end, parent, rows]``
    per span, times in ns from ``perf_counter_ns``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, rows=1):
        i = len(self.spans)
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, rows]
        self.spans.append(rec)
        self._stack.append(i)
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn, rows=None):
        """``fn`` recorded as span ``name``; ``name`` may be a function of
        the call's arguments."""

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label, rows(*args) if rows else _rows(*args)):
                return fn(*args, **kwargs)

        return traced

    def summary(self):
        """Per span name: calls, rows, self seconds, inclusive seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, rows in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, parent, rows), c in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "rows": 0, "self_s": 0.0, "incl_s": 0.0})
            s["calls"] += 1
            s["rows"] += rows
            s["self_s"] += (end - start - c) * 1e-9
            s["incl_s"] += (end - start) * 1e-9
        return out


def _rows(*args):
    """Batch rows of a call: the largest leading dimension among its
    array arguments, 1 for single points."""
    n = 1
    for a in args:
        shape = np.shape(a)
        if len(shape) >= 2:
            n = max(n, shape[0])
    return n


def _dtype_tag(*args):
    return "ld" if any(np.asarray(a).dtype == np.longdouble for a in args) else "f64"


def _module_layer(fn):
    return fn.__module__.rsplit(".", 1)[-1]


@dataclasses.dataclass(frozen=True, eq=False)
class TracedNormed(GyronormedModel):
    tracer: Tracer = None

    def distance(self, x, y):
        with self.tracer.span("core.distance", _rows(x, y)):
            return super().distance(x, y)


def wrap_model(tracer, m):
    layer = MODEL_LAYER[m.name]
    w = dataclasses.replace(
        m,
        add=tracer.wrap(lambda a, b: f"{layer}.add.{_dtype_tag(a, b)}", m.add),
        sample=tracer.wrap("vectors.sample", m.sample, rows=lambda rng, count: count),
        closed_gyr=m.closed_gyr and tracer.wrap(f"{layer}.gyr", m.closed_gyr),
        validate=m.validate and tracer.wrap("registry.validate", m.validate),
        hom=None,
    )
    if m.hom is not None:
        target, f = m.hom
        w = dataclasses.replace(w, hom=(w if target is m else wrap_model(tracer, target), f))
    return w


def wrap_normed(tracer, nm):
    norm = tracer.wrap(f"{_module_layer(nm.norm)}.norm", nm.norm)
    return TracedNormed(wrap_model(tracer, nm.model), nm.norm_name, norm, tracer)


@contextlib.contextmanager
def installed(tracer):
    """Route the library's callables through ``tracer`` until exit."""
    get_normed, get_model = engine.get_normed, cli.get_model

    def traced_get_normed(*args, **kwargs):
        with tracer.span("registry.get_normed"):
            nm = get_normed(*args, **kwargs)
        return wrap_normed(tracer, nm)

    def traced_get_model(*args, **kwargs):
        with tracer.span("registry.get_model"):
            m = get_model(*args, **kwargs)
        return wrap_model(tracer, m)

    def library(fn, kind):
        # Lambdas defined in cli.py stay unwrapped: their time is the CLI's.
        layer = _module_layer(fn)
        return fn if layer == "cli" else tracer.wrap(f"{layer}.{kind}", fn)

    patches = [
        (engine, "get_normed", traced_get_normed),
        (cli, "get_model", traced_get_model),
        (core, "gyr_via_gyrator_identity",
         tracer.wrap("core.gyr_identity", core.gyr_via_gyrator_identity,
                     rows=lambda m, *xs: _rows(*xs))),
        (engine, "gyr_via_gyrator_identity",
         tracer.wrap("core.gyr_identity", engine.gyr_via_gyrator_identity,
                     rows=lambda m, *xs: _rows(*xs))),
        # Kernels the suites call directly rather than through the model.
        (engine, "einstein_add",
         tracer.wrap(lambda a, b: f"einstein.add.{_dtype_tag(a, b)}", engine.einstein_add)),
        (engine, "sample_ball_points",
         tracer.wrap("vectors.sample", engine.sample_ball_points,
                     rows=lambda n, count, *rest: count)),
        (engine, "euclidean_norm", tracer.wrap("vectors.norm", engine.euclidean_norm)),
        (cli, "build_parser", tracer.wrap("cli.build_parser", cli.build_parser)),
        (cli, "parse_point", tracer.wrap("cli.parse_point", cli.parse_point)),
        (cli, "format_point", tracer.wrap("cli.format_point", cli.format_point)),
        (cli, "_METRICS", {k: library(f, "metric") for k, f in cli._METRICS.items()}),
        (cli, "_ROUTES", {k: library(f, "convert") for k, f in cli._ROUTES.items()}),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, value in patches:
            setattr(mod, name, value)
        yield tracer
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
