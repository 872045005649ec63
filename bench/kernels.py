"""Fixed-batch pass: each kernel timed alone at 10k and 320k rows.

320k rows is the probe-expanded batch the heavy suites feed to ``gyr``
(10k samples x 32 probes); 10k is the plain sample batch.
"""

import statistics
import time

import numpy as np

from gyroball import cli, core, disk, einstein, mobius, registry, vectors
from gyroball.engine import CheckConfig, run_suite
from gyroball.rng import make_rng

from workloads import ball_points

SIZES = ((10_000, "10k", 15), (320_000, "320k", 3))  # rows, label, repeats


def _median_s(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def batch_metrics(seed):
    """``batch.<kernel>.rows_per_s.<size>`` plus three per-call costs in us."""
    rng = np.random.default_rng([seed, 2])
    E = registry.get_model("einstein", 3)
    M = registry.get_model("mobius", 3)
    discrete = registry.get_normed("group", 3, "discrete").norm
    distance = registry.get_normed("einstein", 3).distance
    out = {}
    for n, label, reps in SIZES:
        x, y, z = (ball_points(rng, 3, n) for _ in range(3))
        xl, yl = x.astype(np.longdouble), y.astype(np.longdouble)
        p, q, r = (ball_points(rng, 2, n) for _ in range(3))
        kernels = {
            "vectors.sample": lambda: vectors.sample_ball_points(3, n, make_rng(seed)),
            "einstein.add.f64": lambda: einstein.einstein_add(x, y),
            "einstein.add.ld": lambda: einstein.einstein_add(xl, yl),
            "mobius.add.f64": lambda: mobius.mobius_add(x, y),
            "mobius.add.ld": lambda: mobius.mobius_add(xl, yl),
            "disk.add": lambda: disk.cmobius_add(p, q),
            "disk.gyr": lambda: disk.rotation_gyr(p, q, r),
            "core.gyr_identity.einstein": lambda: core.gyr_via_gyrator_identity(E, x, y, z),
            "core.gyr_identity.mobius": lambda: core.gyr_via_gyrator_identity(M, x, y, z),
            "einstein.norm.rapidity": lambda: einstein.rapidity_norm_unchecked(x),
            "mobius.norm.rapidity": lambda: mobius.rapidity_norm_unchecked(x),
            "disk.norm.poincare": lambda: disk.poincare_norm_unchecked(p),
            "vectors.norm.euclidean": lambda: vectors.euclidean_norm(x),
            "core.norm.discrete": lambda: discrete(x),
            "core.distance": lambda: distance(x, y),
        }
        for name, fn in kernels.items():
            out[f"batch.{name}.rows_per_s.{label}"] = n / _median_s(fn, reps)

    report = run_suite("einstein", "klee", CheckConfig(samples=SIZES[0][0], seed=seed))
    out["batch.engine.to_json_us"] = _median_s(report.to_json, 15) * 1e6
    out["batch.registry.get_normed_us"] = _median_s(
        lambda: registry.get_normed("einstein", 3), 200) * 1e6
    argv = ["add", "--model", "einstein", "--u", "0.1,-0.2,0.3", "--v", "-0.3,0.2,0.1"]
    out["batch.cli.parse_us"] = _median_s(
        lambda: cli.build_parser().parse_args(cli._merge_point_flags(argv)), 200) * 1e6
    return out
