"""Fixed reference work that tracks how fast the machine is right now.

Other tenants of the host change the speed of this benchmark's work by 10-20 %
over tens of seconds, and at times by a factor of two.  Each run therefore
times reference work shaped like its workload between operations (outside
every timed region), and the end-to-end times are scaled by
``NOMINAL_S / median(samples)``.

The reference work runs in a helper process of its own, started once per
run.  It calls no gyroball code and shares neither memory nor heap state
with the measured process.  So a change to the program cannot move the
scale, and the reference's memory does not count in the program's peak.
While the helper works, the measured process waits for its answer, so the
two never compete for a core.  ``NOMINAL_S`` is the median reference time
on the machine where the benchmark was defined (Intel Xeon, 2 vCPUs,
Python 3.11.7, numpy 2.4.6) and only sets the scale.

    python3 bench/reference.py <numpy|cli>

runs the helper: for each line read from standard input it times the
work and writes the seconds it took, one line each, until standard input
closes.
"""

import argparse
import statistics
import subprocess
import sys
import time

NOMINAL_S = {"numpy": 0.11, "cli": 0.014}
# Back-to-back runs per sample, of which the last is timed: after a second
# idle the helper's caches are cold, which the small CLI work feels most.
REPEATS = {"numpy": 1, "cli": 2}
# Minimum seconds between two reference samples; the CLI work is cheap, so
# it is sampled more often.
EVERY_S = {"numpy": 1.0, "cli": 0.5}
NEAR_S = 1.0  # samples this close to a timed interval scale it


def _numpy_work():
    """The suites' batch shapes and dtypes: 320k-row probe batches and 10k-row
    sample batches of 3-vectors, in float64 and longdouble."""
    import numpy as np

    rng = np.random.default_rng(0)
    batches = []
    for rows, repeats in ((320_000, 1), (10_000, 16)):
        x = rng.random((rows, 3)) * 0.5
        batches += [(x, repeats), (x.astype(np.longdouble), repeats)]

    def work():
        t0 = time.perf_counter()
        for v, repeats in batches:
            for _ in range(repeats):
                a = np.sum(v * v, axis=-1, keepdims=True)
                (v + a * v) / (1.0 + a)
        return time.perf_counter() - t0

    return work


def _cli_work():
    """One-off CLI calls: build an argparse parser with subcommands, parse
    one argv, add two 2-vectors and format the result."""
    import numpy as np

    def work():
        t0 = time.perf_counter()
        for _ in range(8):
            parser = argparse.ArgumentParser(prog="reference")
            sub = parser.add_subparsers(dest="command", required=True)
            for name in ("a", "b", "c", "d", "e"):
                p = sub.add_parser(name)
                p.add_argument("--model", choices=("x", "y", "z"))
                p.add_argument("--dim", type=int)
                p.add_argument("--u")
                p.add_argument("--v")
            args = parser.parse_args(["c", "--model", "y", "--u", "0.1,0.2", "--v", "0.3,0.4"])
            u = np.array([float(t) for t in args.u.split(",")])
            v = np.array([float(t) for t in args.v.split(",")])
            r = (u + v) / (1.0 + np.sum(u * v, axis=-1, keepdims=True))
            ",".join(f"{x:.17g}" for x in r)
        return time.perf_counter() - t0

    return work


WORK = {"numpy": _numpy_work, "cli": _cli_work}


class Reference:
    """Reference samples of one kind (``numpy`` or ``cli``) taken during a
    run by a helper process; use as a context manager so that the helper is
    stopped and waited for."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []
        self.times = []  # perf_counter at the end of each sample
        self._last = None
        self._proc = subprocess.Popen([sys.executable, __file__, kind], text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def sample(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with {self._proc.wait()}")
        self.samples.append(float(line))
        self._last = time.perf_counter()
        self.times.append(self._last)

    def maybe_sample(self):
        """Take a sample when ``EVERY_S`` has passed since the last one."""
        if self._last is None or time.perf_counter() - self._last >= EVERY_S[self.kind]:
            self.sample()

    def split(self):
        """Start a new series of samples; returns the series so far."""
        done, self.samples, self.times, self._last = self.samples, [], [], None
        return done

    def scale(self, samples=None):
        """Factor that converts times measured while ``samples`` (by default
        the current series) were taken to nominal-speed times."""
        return NOMINAL_S[self.kind] / statistics.median(samples or self.samples)

    def scale_between(self, t0, t1):
        """``scale`` from the samples taken within ``NEAR_S`` of the
        ``perf_counter`` interval [t0, t1]; from all when there are none."""
        return self.scale([s for t, s in zip(self.times, self.samples)
                           if t0 - NEAR_S <= t <= t1 + NEAR_S])


def serve(kind):
    work = WORK[kind]()
    work()  # first touch of the batches and the allocator
    for _ in sys.stdin:
        times = [work() for _ in range(REPEATS[kind])]
        print(repr(times[-1]), flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="reference-work helper")
    parser.add_argument("kind", choices=sorted(WORK))
    serve(parser.parse_args().kind)
