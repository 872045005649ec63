"""Mutation check of the property engine, the input guard, the kernels and
the CLI parser: does the test suite notice when a check is weakened or a
kernel's bits move?

    python tests/mutants.py

Each entry of MUTANTS is (name, old, new, expected): a one-line edit of the
source and the outcome expected of it.  For each entry the script copies
``src/`` to a temporary directory, replaces the one occurrence of ``old``
with ``new`` and runs the test suite against the copy.  The mutant is killed
when some test fails and survives when all pass.  A mutant that weakens a
check is expected to be killed, and the script exits 1 if one survives.  An
"equivalent" mutant, whose stated reason says why no report can tell it
apart or why it is only stricter, may survive.  Standard library only;
pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KILLED = "killed"

MUTANTS = [
    ("one-failing-row-passes",
     'return "fail" if self.failed else "pass"',
     'return "fail" if self.failed > 1 else "pass"', KILLED),
    ("equivalence-always-consistent",
     "consistent = (first.failed > 0) == (second.failed > 0)",
     "consistent = True", KILLED),
    ("skip-gate-at-50-percent",
     "MAX_SKIP_FRACTION = 0.01", "MAX_SKIP_FRACTION = 0.5", KILLED),
    # The identity's own row of "norm zero iff identity", made vacuous.
    ("identity-row-unchecked",
     '{"x": e}, norm(e), np.zeros(1))', '{"x": e}, 0.0 * norm(e), np.zeros(1))', KILLED),
    ("positivity-floor-1e-17",
     "POSITIVITY_FLOOR = 1e-7", "POSITIVITY_FLOOR = 1e-17", KILLED),
    ("subadditivity-bound-doubled",
     "norm(m.add(x, y)), nx + norm(y))", "norm(m.add(x, y)), nx + 2 * norm(y))", KILLED),
    ("triangle-bound-doubled",
     "d(x, z), dxy + d(y, z))", "d(x, z), 2 * dxy + d(y, z))", KILLED),
    ("ball-inclusion-at-2-eps",
     "dE, np.full(cfg.samples, eps))", "dE, np.full(cfg.samples, 2 * eps))", KILLED),
    # With atol 0, an exact row outside the fast path has err == bound == 0
    # (rtol or its scale 0): test_recorder_matches_a_per_row_oracle fails it.
    ("strict-comparison",
     "ok = err <= bound", "ok = err < bound", KILLED),
    ("eq-bound-from-rhs-alone",
     "bound = np.abs(lhs, out=np.empty(shape))", "bound = np.abs(rhs, out=np.empty(shape))",
     "equivalent: stricter by at most rtol * |lhs - rhs|, far below atol where rows pass"),
    ("isotropy-moves-every-probe",
     ".any(axis=1)", ".all(axis=1)",
     "equivalent: stricter, and a curved model's gyration moves every sampled probe"),
    ("every-row-finite",
     "finite = np.isfinite(lhs) & np.isfinite(rhs)", "finite = np.ones(shape, dtype=bool)",
     KILLED),
    ("overflowed-pair-skipped",
     "finite = np.isfinite(lhs) & np.isfinite(rhs)", "finite = np.isfinite(lhs - rhs)", KILLED),
    ("skipped-rows-counted-as-failures",
     "np.flatnonzero(finite & ~ok)", "np.flatnonzero(~ok)", KILLED),
    # The recorder's fast path for blocks whose differences lie within atol.
    ("fast-path-admits-non-finite",
     'else math.isfinite(lo))', "else True)", KILLED),
    ("fast-path-ignores-sign",
     '(-cfg.atol <= lo if mode == "eq"', '(True if mode == "eq"', KILLED),
    ("blocks-ignore-dim",
     "BLOCK_ELEMENTS // (n * p)", "BLOCK_ELEMENTS // p", KILLED),
    ("isotropy-scans-probe-0-only",
     "if rest.any():", "if False:", KILLED),
    # The input guard of the public metrics, gyronorms and CLI points.
    ("guard-checks-first-point-only",
     "for p in points:", "for p in points[:1]:", KILLED),
    ("guard-ignores-trailing-dims",
     "if len(dims) != 1:", "if False:", KILLED),
    ("metric-sum-unchecked",
     "row.validate(z)", "pass", KILLED),
    # The disk's coordinate-plane kernels must keep the bits of their
    # reference expressions in the tests, signed zeros included.
    ("disk-keeps-negative-zero-im",
     "im += 0.0", "pass", KILLED),
    ("disk-quotient-by-reciprocal",
     "re /= den", "re *= 1.0 / den", KILLED),
    ("disk-factor-numerator-unconjugated",
     "_one_plus_conj_times(b, a), _one_plus_conj_times(a, b)",
     "_one_plus_conj_times(a, b), _one_plus_conj_times(a, b)", KILLED),
    # The kernels' coordinate-first views, each operand padded to the
    # output's number of axes, so that a point broadcasts against a batch.
    ("views-left-unpadded",
     "x[(None,) * (len(shape) - x.ndim)].transpose(front)", "x.transpose(TO_FRONT[x.ndim])",
     KILLED),
    # The Mobius rim terms: sums of nonnegative terms, which the addition's
    # expression form and the oracle tests pin.
    ("mobius-add-cancelling-denominator",
     "o /= ssq + pu * pv", "o /= 1.0 + 2.0 * dot(u, v) + dot(u, u) * dot(v, v)", KILLED),
    ("sum-square-expanded",
     "return dot(s, s), 1.0 - dot(u, u), 1.0 - dot(v, v)",
     "return dot(u, u) + 2.0 * dot(u, v) + dot(v, v), 1.0 - dot(u, u), 1.0 - dot(v, v)",
     KILLED),
    # The Mobius gyration: elementwise operator entries below SHORT_AXIS,
    # the vector form from SHORT_AXIS on.  With -c, each g_ij takes the
    # value of g_ji, the transposed entry, so the kernel rotates backwards.
    ("gyration-applies-its-transpose",
     "g *= ssq + pu + pv", "g *= -(ssq + pu + pv)", KILLED),
    ("gyration-drops-the-LL-term",
     "g += ll", "pass", KILLED),
    ("long-axis-gyration-sign-flip",
     "return w + ((ssq + pu + pv) * lw", "return w - ((ssq + pu + pv) * lw", KILLED),
    # A probe block's operator columns, spread into output-shaped planes
    # before they multiply w.
    ("spread-products-read-w0",
     "t *= wt[j]", "t *= wt[0]", KILLED),
    # table1 turns c and (neg b) (+) (neg a) by one stacked gyration.
    ("shared-gyration-slices-swapped",
     "gc, gs = m.gyr(", "gs, gc = m.gyr(", KILLED),
    # The buffer pool behind planar_empty: a buffer that one array still
    # references counts as idle, so a later result overwrites it.
    ("pool-hands-out-live-buffer",
     "_IDLE_REFS = _refcount([np.empty(0)], 0)", "_IDLE_REFS = _refcount([np.empty(0)], 0) + 1",
     KILLED),
    # The pool holds a new buffer that does not fit under its cap.
    ("pool-holds-past-its-cap",
     "if excess <= 0:", "if True:", KILLED),
    # A command's parser is built the first time argparse dispatches to it
    # in a process; with the cache removed (a cache of size 0), every
    # dispatch builds it again.
    ("command-built-on-every-dispatch",
     "@functools.cache", "@functools.lru_cache(maxsize=0)", KILLED),
    # The command's parser takes its placeholder's place: deleted and
    # re-added, it moves to the end of the choices, and so of root usage.
    ("command-moved-to-end-of-choices",
     "self._name_parser_map[name] = _command_parser(",
     "del self._name_parser_map[name]; self._name_parser_map[name] = _command_parser(", KILLED),
]


def apply(src, old, new):
    """Replace the one occurrence of ``old`` under ``src`` with ``new``."""
    assert "\n" not in old + new, "a mutant edits one line"
    files = sorted(src.rglob("*.py"))
    counts = [path.read_text().count(old) for path in files]
    assert sum(counts) == 1, f"{old!r} occurs {sum(counts)} times, not once"
    path = files[counts.index(1)]
    path.write_text(path.read_text().replace(old, new))


def run(old, new):
    """Return the test suite's exit code on a copy of src/ with the edit."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(src, old, new)
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main():
    bad = []
    for name, old, new, expected in MUTANTS:
        code = run(old, new)
        outcome = {0: "survived", 1: KILLED}.get(code, f"error (pytest exit {code})")
        print(f"{name:32s} {outcome:10s} expected {expected}", flush=True)
        if outcome.startswith("error") or (expected == KILLED and outcome != KILLED):
            bad.append(name)
    if bad:
        print(f"not killed as expected: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
