"""Hash the outcome of a grid of CLI calls, so that two source trees can be
compared call by call:

    python tests/cli_grid.py SRC OUT

SRC is a ``src/`` directory that holds ``gyroball``.  OUT gets one line per
call, ``argv sha256``: the argv, shell-quoted, and the hash of the call's
exit code, standard output and standard error, with ``COLUMNS=100`` so that
help and usage wrap the same everywhere.  Two trees give the same outcomes
when their OUT files are equal (``cmp``).  The calls:

- parser-shaped argvs (help, unknown commands and options, a leading
  "--", a command name as a value) and each command's ``-h``;
- ``add``, ``gyr`` and ``dist`` on every model, ``dist`` with its default
  and every registered gyronorm, at each dim in DIMS (the complex disk at
  dim 2): points inside the ball, negative points given as ``--u -x`` and
  as ``--u=-x``, a point at the rim (exit 3 on the balls), points of
  mismatched dims and a non-finite coordinate (exit 2);
- every ``convert`` route, the point after and before the options;
- ``check`` at 200 samples, once per ``--output`` mode.

Points come from a fixed seed.  Standard library, numpy and gyroball only;
pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

import numpy as np

DIMS = (1, 2, 3, 5)
SEED = 20181
POINTS = ["--model", "mobius", "--u", "0.1,0", "--v", "0.2,0"]
PARSER_SHAPED = [
    [], ["-h"], ["-h", "add"], ["bogus"], ["bogus", "add"],
    ["add", *POINTS, "--bogus"], ["--bogus", "add", *POINTS], ["--", "add", *POINTS],
    ["dist", "--model", "add", "--u", "0,0", "--v", "0,0"], ["add", *POINTS, "gyr"],
]
CHECK = ["check", "--model", "poincare-disk", "--suite", "klee", "--samples", "200",
         "--seed", "7", "--output"]


def text(point):
    return ",".join(repr(float(x)) for x in point)


def options(flags, texts, joined=False):
    if joined:
        return [f"{f}={t}" for f, t in zip(flags, texts)]
    return [x for f, t in zip(flags, texts) for x in (f, t)]


def ball_points(rng, count, dim):
    """``count`` points of norm 0.1 to 0.9, each with a nonnegative first
    coordinate."""
    pts = rng.uniform(-1, 1, (count, dim))
    pts *= rng.uniform(0.1, 0.9, (count, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 0] = np.abs(pts[:, 0])
    return pts


def point_calls(rng, command, flags, model, dim, extra=()):
    """The calls of one (command, model, dim): in-ball points, negative
    points in both forms, then a rim point, points of two dims and a
    non-finite coordinate."""
    pts = ball_points(rng, len(flags), dim)
    good, negative = [text(p) for p in pts], [text(-p) for p in pts]
    rim = text(pts[0] * (1 - 1e-13) / np.linalg.norm(pts[0]))
    wide = text(np.full(dim + 1, 0.5 / (dim + 1)))
    nan = ",".join(["nan", *good[0].split(",")[1:]])
    head = [command, "--model", model, *extra]
    return [head + options(flags, good), head + options(flags, negative),
            head + options(flags, negative, joined=True),
            head + options(flags, [rim, *good[1:]]), head + options(flags, [*good[:-1], wide]),
            head + options(flags, [nan, *good[1:]])]


def argvs():
    from gyroball.registry import COMPLEX_MODELS, CONVERSIONS, MODEL_NAMES, gyronorm_names

    rng = np.random.default_rng(SEED)
    calls = PARSER_SHAPED + [[c, "-h"] for c in ("add", "gyr", "dist", "convert", "check")]
    for model in MODEL_NAMES:
        for dim in ((2,) if model in COMPLEX_MODELS else DIMS):
            calls += point_calls(rng, "add", ["--u", "--v"], model, dim)
            calls += point_calls(rng, "gyr", ["--a", "--b", "--c"], model, dim)
            for gyronorm in (None, *gyronorm_names(model)):
                extra = () if gyronorm is None else ("--gyronorm", gyronorm)
                calls += point_calls(rng, "dist", ["--u", "--v"], model, dim, extra)
    for route in CONVERSIONS:
        for dim in ((2,) if set(route) & set(COMPLEX_MODELS) else DIMS):
            p = ball_points(rng, 1, dim)[0]
            for point in (text(p), text(-p)):
                flags = ["--from", route[0], "--to", route[1]]
                calls += [["convert", *flags, point], ["convert", point, *flags]]
    return calls + [CHECK + ["structured"], CHECK + ["text"]]


def main(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    os.environ["COLUMNS"] = "100"
    from gyroball import cli

    lines = []
    for argv in argvs():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        outcome = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}"
        lines.append(f"{shlex.join(argv)} {hashlib.sha256(outcome.encode()).hexdigest()}\n")
    Path(out).write_text("".join(lines))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
