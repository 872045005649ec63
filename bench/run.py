"""Run one gyroball benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-ball --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
environment fingerprint.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  A
readable table goes to standard error and everything, spans included, to
``bench/out/<workload>-seed<n>-trace<t>.json``.  See ``bench/README.md``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("verify-ball", "sweep-float", "cli-points")


def with_units(values, specs):
    """``{name: {"value", "unit"}}`` in the order of ``specs``; every
    listed metric must have been measured."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gyroball" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no gyroball sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # One thread: every workload is single-threaded, as the ops it times are.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One CPU, inherited by the reference helper, so that the reference work
    # meets the same contention from other tenants as the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH)]
    import measure

    env = measure.fingerprint()
    result, extras = measure.run(args.workload, args.seed, args.seconds, args.trace)
    result["metrics"] = with_units(
        result["metrics"], spec["per_layer" if args.trace else "end_to_end"])

    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"fail_frac {result['failed']}/{result['attempted']}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"env": env, "result": result, **extras}))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
