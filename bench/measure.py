"""Measurement of one workload: untraced timing, traced spans, checks.

``run`` is the entry point; ``bench/run.py`` wraps it in the command line.
"""

import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import kernels
import reference
import tracing
import workloads as w
from gyroball import cli, registry

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_CLI_CALLS = 1000
WINDOW = 1000  # CLI calls per window; 10 lie beyond its p99
SETUP_REPS = 9


class Tally:
    """Attempted and failed operations, counted once per distinct input, so
    that both depend on the seed alone and not on how many times the
    measurement repeated an input.  An input fails when any of its runs
    fails.  Also keeps how often each input ran and the first few failure
    descriptions."""
    def __init__(self):
        self.inputs = {}
        self.failed_inputs = set()
        self.silent_inputs = set()
        self.problems = []

    @property
    def attempted(self):
        return len(self.inputs)

    @property
    def failed(self):
        return len(self.failed_inputs)

    @property
    def silent(self):
        return len(self.silent_inputs)

    def add(self, key, failed, silent=False, problem=None):
        key = json.dumps(key)
        self.inputs[key] = self.inputs.get(key, 0) + 1
        if failed:
            if key not in self.failed_inputs and problem and len(self.problems) < 50:
                self.problems.append(problem)
            self.failed_inputs.add(key)
        if silent:
            self.silent_inputs.add(key)


# --- set-up --------------------------------------------------------------------

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import gyroball
{extra}
for model, dim, norm in {combos!r}:
    gyroball.get_normed(model, dim=dim, gyronorm=norm)
print(time.perf_counter() - t0)
"""


def setup_combos(workload):
    """(model, dim, gyronorm) for every gyronormed model the workload builds."""
    if workload == "cli-points":
        return [(m, d, g) for m in registry.MODEL_NAMES
                for d in ((2,) if m == "poincare-disk" else (1, 2, 3, 4))
                for g in registry.gyronorm_names(m)]
    pairs = w.VERIFY_BALL if workload == "verify-ball" else w.SWEEP_FLOAT
    return sorted({(m, w.suite_dim(m), None) for m, _ in pairs})


def setup_seconds(workload, reps, between):
    """Median over fresh interpreters of: import gyroball and build every
    model and gyronorm the workload uses.  ``between`` runs before each."""
    extra = "import gyroball.cli; gyroball.cli.build_parser()" if workload == "cli-points" else ""
    code = SETUP_CODE.format(src=str(SRC), extra=extra, combos=setup_combos(workload))
    times = []
    for _ in range(reps):
        between()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# --- measurement -----------------------------------------------------------------

def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_suite_op(op, samples, tracer=None):
    """Run and serialise one suite report, under root spans when traced.

    Returns (json, report), or (traceback, None) when the suite raises; a
    raising suite is a failed operation, not a crash.
    """
    span = tracer.span if tracer else _untraced_span
    try:
        with span("engine.run_suite") as rec:
            report = w.run_suite_op(op, samples)
            rec[4] = w.report_rows(report)
        with span("engine.to_json") as rec:
            text = report.to_json()
            rec[4] = len(text)
    except Exception:
        return traceback.format_exc(limit=3), None
    return text, report


@contextmanager
def _untraced_span(name):
    yield [name, 0, 0, -1, 0]


def check_suite_op(op, outcome, tally, samples, expect, differs=False):
    text, report = outcome
    if report is None:
        tally.add(op, True, problem=f"{op}: {text}")
        return
    failed, silent, problems = w.check_report(op, report, samples, expect)
    problems += ["report differs from an earlier run of the same op"] * differs
    tally.add(op, failed or differs, silent or differs, f"{op}: {'; '.join(problems)}")


def measure_suites(pairs, seed, seconds, samples, tally, expect, ref):
    """Passes over the ops of ``pairs`` until ``seconds`` have gone and every
    pair ran.

    Every pass runs the same ops, so the inputs do not depend on how many
    passes fit in the time.  A report that differs from the op's first
    report counts as a failure.  Returns (raw, scaled) metrics.  Each
    (model, suite) pair is summarised by the median of its run times, so
    one slow run cannot swing the result.  The scaled values convert each
    run with the reference samples taken within a second of it, as the
    machine's speed can change within a run.  ``ref`` is sampled between
    operations.
    """
    ops = w.suite_ops(pairs, seed)
    first = {}  # the report text of each op's first run
    runs = {pair: [] for pair in pairs}  # (start, end) of each good run
    rows = {}
    start = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            if pass_index and time.perf_counter() - start >= seconds:
                break
            ref.maybe_sample()
            t0 = time.perf_counter()
            outcome = run_suite_op(op, samples)
            t1 = time.perf_counter()
            differs = first.setdefault(op, outcome[0]) != outcome[0]
            check_suite_op(op, outcome, tally, samples, expect, differs)
            if outcome[1] is not None:
                runs[(op.model, op.suite)].append((t0, t1))
                rows[(op.model, op.suite)] = w.report_rows(outcome[1])
        pass_index += 1

    def summary(scale):
        med = {pair: statistics.median((t1 - t0) * scale(t0, t1) for t0, t1 in ts)
               for pair, ts in runs.items() if ts}
        total = sum(med.values())
        per_call = [t * 1e3 for t in med.values()]
        return {
            "rows_per_s": sum(rows[p] for p in med) / total,
            "calls_per_s": len(med) / total,
            "call_ms.p50": statistics.median(per_call),
            "call_ms.p99": nearest_rank(per_call, 0.99),
        }

    return summary(lambda t0, t1: 1.0), summary(ref.scale_between)


def call_cli(call, out, tracer=None):
    """One in-process CLI call, under a root span when traced.

    Returns (((exit code, stdout), None), ns): the outcome has the
    (output, detail) shape of a suite's.  The caller redirects ``sys.stdout``
    to ``out``, a buffer reused across calls.
    """
    out.seek(0)
    out.truncate()
    t0 = time.perf_counter_ns()
    if tracer is None:
        code = cli.main(list(call.argv))
    else:
        with tracer.span("cli.main", call.rows):
            code = cli.main(list(call.argv))
    ns = time.perf_counter_ns() - t0
    return ((code, out.getvalue()), None), ns


def check_cli_call(call, outcome, tally, differs=False):
    (code, stdout), _ = outcome
    failed, silent = w.check_cli(call, code, stdout)
    tally.add(call.argv, failed or differs, silent or differs,
              f"{call.argv}: exit {code}, stdout {stdout!r}"
              + ", differs from an earlier run of the same call" * differs)


def measure_cli(pool, seconds, tally, ref, min_calls=MIN_CLI_CALLS):
    """Closed loop, one caller: the next call starts when the last returns.

    Cycles through ``pool`` until ``seconds`` have gone, every call of the
    pool ran and at least ``min_calls`` calls were made.  Returns (raw, scaled) metrics.  Each metric is the median over windows
    of ``WINDOW`` calls of the window's value.  Interference from other
    tenants comes in bursts of seconds that inflate a few whole windows; the
    median keeps them out, while any cost or tail that shows in most
    windows, such as garbage-collection pauses, counts.  The scaled values
    convert each window with the reference samples taken within a second of
    it, as the machine's speed can change within a run.  ``ref`` is sampled
    between calls.
    """
    lat = []
    rows = []
    ends = []
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        while len(lat) < max(min_calls, len(pool)) or time.perf_counter() - start < seconds:
            call = pool[len(lat) % len(pool)]
            ref.maybe_sample()
            outcome, ns = call_cli(call, out)
            ends.append(time.perf_counter())
            lat.append(ns * 1e-6)
            rows.append(call.rows)
            check_cli_call(call, outcome, tally)

    def summary(scale):
        per_window = []
        for i in range(0, len(lat) - WINDOW + 1, WINDOW):
            j = i + WINDOW
            s = scale(ends[i] - lat[i] * 1e-3, ends[j - 1])
            busy_s = sum(lat[i:j]) * s * 1e-3
            per_window.append({
                "rows_per_s": sum(rows[i:j]) / busy_s,
                "calls_per_s": WINDOW / busy_s,
                "call_ms.p50": statistics.median(lat[i:j]) * s,
                "call_ms.p99": nearest_rank(lat[i:j], 0.99) * s,
            })
        return {k: statistics.median(w[k] for w in per_window) for k in per_window[0]}

    return summary(lambda t0, t1: 1.0), summary(ref.scale_between)


# --- traced run --------------------------------------------------------------------

def _pass(run_one, inputs, tracer=None):
    """One pass of ``run_one(input, tracer)`` over ``inputs``, with the
    tracer's wrappers installed when one is given; returns (wall seconds,
    outcomes)."""
    with tracing.installed(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        outcomes = [run_one(x, tracer) for x in inputs]
        return time.perf_counter() - start, outcomes


def traced_run(run_one, inputs, check):
    """Untraced, traced and again untraced passes over the same inputs.

    ``run_one(input, tracer)`` returns an outcome (output, detail) whose
    output must be identical across the passes, and ``check(input,
    outcome, differs)`` counts it.  The first pass warms allocators and
    caches and gives the outputs the traced pass must match; the last is
    the baseline for the tracing overhead.
    """
    _, plain = _pass(run_one, inputs)
    tracer = tracing.Tracer()
    traced_s, traced = _pass(run_one, inputs, tracer)
    untraced_s, again = _pass(run_one, inputs)
    mismatches = 0
    for x, before, during, after in zip(inputs, plain, traced, again):
        differs = during[0] != before[0]
        mismatches += differs
        check(x, before, False)
        check(x, during, differs)
        check(x, after, False)
    return tracer, untraced_s, traced_s, mismatches, [o[1] for o in traced]


def suite_counters(reports):
    reports = [r for r in reports if r is not None]
    evaluated = sum(p.checked + p.skipped for r in reports for p in r.properties)
    return {
        "engine.skip_frac": sum(r.skipped for r in reports) / max(evaluated, 1),
        "engine.witnesses": sum(len(p.failures) for r in reports for p in r.properties),
    }


def layer_metrics(tracer, untraced_s, traced_s, mismatches):
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    out = {}
    for name in tracing.KERNEL_SPANS:
        for key in ("calls", "rows", "self_s"):
            out[f"{name}.{key}"] = get(name, key)
    out["core.gyr_identity.incl_s"] = get("core.gyr_identity", "incl_s")
    for name in ("registry.get_normed", "registry.get_model", "engine.run_suite",
                 "engine.to_json", "cli.main"):
        out[f"{name}.calls"] = get(name, "calls")
    out["engine.run_suite.rows"] = get("engine.run_suite", "rows")
    out["engine.to_json.bytes"] = get("engine.to_json", "rows")
    out["engine.self_s"] = get("engine.run_suite", "self_s")
    out["cli.self_s"] = get("cli.main", "self_s")
    for name in ("registry.get_normed", "registry.get_model", "registry.validate",
                 "engine.to_json", "cli.build_parser", "cli.parse_point",
                 "cli.format_point", "einstein.metric", "mobius.metric",
                 "disk.metric", "mobius.convert"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["engine.gyr_rows"] = sum(get(n, "rows") for n in tracing.GYR_SPANS)
    for tag in ("f64", "ld"):
        out[f"engine.add_rows.{tag}"] = sum(
            s["rows"] for n, s in summary.items() if n.endswith(f".add.{tag}"))
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, s in summary.items():
        layer_self[name.split(".")[0]] += s["self_s"]
    for layer, s in layer_self.items():
        out[f"layer.{layer}.self_s"] = s
    out["trace.wall_s"] = traced_s
    out["trace_overhead_s"] = traced_s - untraced_s
    out["trace.unaccounted_s"] = traced_s - sum(layer_self.values())
    out["trace.report_mismatches"] = mismatches
    return out


# --- result ------------------------------------------------------------------------

def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gyroball").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, read without running git (which would search
    parent directories when the checkout is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace, samples=None, pool_size=None,
        setup_reps=SETUP_REPS, expect=None):
    """Measure one workload; returns the result dict and the run's extras."""
    samples = samples or w.SAMPLES
    expect = expect or w.expected_status
    tally = Tally()
    values = {}
    extras = {}
    if workload == "cli-points":
        pool = w.cli_pool(seed, pool_size or w.CLI_POOL)
    else:
        pairs = w.VERIFY_BALL if workload == "verify-ball" else w.SWEEP_FLOAT

    if not trace:
        with reference.Reference("cli" if workload == "cli-points" else "numpy") as ref:
            setup_s = setup_seconds(workload, setup_reps, ref.sample)
            setup_samples = ref.split()
            if workload == "cli-points":
                raw, scaled = measure_cli(pool, seconds, tally, ref)
            else:
                raw, scaled = measure_suites(pairs, seed, seconds, samples, tally, expect, ref)
        values["setup_s"] = setup_s * ref.scale(setup_samples)
        values.update(scaled)
        extras["raw"] = {"setup_s": setup_s, **raw}
        extras["reference"] = {"kind": ref.kind, "scale": ref.scale(), "samples_s": ref.samples,
                               "setup_scale": ref.scale(setup_samples),
                               "setup_samples_s": setup_samples}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        if workload == "cli-points":
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                traced = traced_run(lambda call, tracer: call_cli(call, out, tracer)[0], pool,
                                    lambda call, o, differs: check_cli_call(call, o, tally, differs))
        else:
            traced = traced_run(
                lambda op, tracer: run_suite_op(op, samples, tracer), w.suite_ops(pairs, seed),
                lambda op, o, differs: check_suite_op(op, o, tally, samples, expect, differs))
        tracer, untraced_s, traced_s, mismatches, details = traced
        values.update(layer_metrics(tracer, untraced_s, traced_s, mismatches))
        values.update(suite_counters(details))
        values.update(kernels.batch_metrics(seed))
        extras["spans"] = tracer.spans
    result = {
        "correct": tally.silent == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": values,
    }
    extras["inputs"] = tally.inputs
    extras["problems"] = tally.problems
    return result, extras
