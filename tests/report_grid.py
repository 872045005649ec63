"""Hash the report of every registered (model, gyronorm, suite) triple over
a grid of dims, tolerances and seeds, so that two source trees can be
compared report by report:

    python tests/report_grid.py SRC OUT

SRC is a ``src/`` directory that holds ``gyroball``.  OUT gets one line per
run, ``model gyronorm suite dim tolerance seed sha256``, at SAMPLES samples
with both tolerances set to ``tolerance``.  The hash is that of the report's
JSON; for a run that raises a SamplingHealthError, of its report's JSON after
a marker line; for a run that is rejected (``topology`` on a model without
both of its gyronorms), of the error's class and message.  Two trees give
the same reports when their OUT files are equal (``cmp``).  Each model runs
with every gyronorm it registers; the ball models and the group run at every
dim in DIMS, the complex disk at dim 2.  Standard library and numpy only;
pytest does not collect this file.
"""

import hashlib
import sys
from pathlib import Path

DIMS = (1, 3, 5, 8, 16)
TOLERANCES = (1e-9, 1e-12, 1e-17)
SEEDS = (7, 11)
SAMPLES = 1000


def main(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    from gyroball import MODEL_NAMES, SUITE_NAMES, CheckConfig, run_suite
    from gyroball.errors import GyroError, SamplingHealthError
    from gyroball.registry import COMPLEX_MODELS, gyronorm_names

    lines = []
    runs = ((model, gyronorm, dim, suite, tol, seed)
            for model in MODEL_NAMES
            for gyronorm in gyronorm_names(model)
            for dim in ((2,) if model in COMPLEX_MODELS else DIMS)
            for suite in SUITE_NAMES for tol in TOLERANCES for seed in SEEDS)
    for model, gyronorm, dim, suite, tol, seed in runs:
        cfg = CheckConfig(samples=SAMPLES, seed=seed, atol=tol, rtol=tol)
        try:
            text = run_suite(model, suite, cfg, dim=dim, gyronorm=gyronorm).to_json()
        except SamplingHealthError as exc:
            text = "sampling-health\n" + exc.report.to_json()
        except GyroError as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        lines.append(f"{model} {gyronorm} {suite} {dim} {tol!r} {seed} {digest}\n")
    Path(out).write_text("".join(lines))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
