"""Inputs, expected outcomes and outcome checks for the three workloads.

Every input is generated here from the benchmark's ``--seed``; the program
under test only receives the generated inputs.  Expected outcomes never come
from the code path being timed: suite verdicts come from the rules below
(seed-independent facts about the models), CLI results from the library's
batch API evaluated once, untimed, when the call pool is built.
"""

from collections import namedtuple

import numpy as np

from gyroball import registry
from gyroball.engine import CheckConfig, run_suite
from gyroball.mobius import phi, phi_inv

SAMPLES = 10_000
PROBES = CheckConfig().probes

BALL_MODELS = ("einstein", "mobius")
LIGHT_SUITES = ("gyronorm", "metric", "left-invariance", "isometry", "klee",
                "commutative-like", "mazur-ulam")


def suite_dim(model):
    return 2 if model == "poincare-disk" else 3


VERIFY_BALL = tuple((m, s) for m in BALL_MODELS
                    for s in ("axioms", "table1", "homogeneity-isotropy"))

SWEEP_FLOAT = (
    tuple((m, s) for m in ("poincare-disk", "group")
          for s in ("axioms", "table1") + LIGHT_SUITES + ("homogeneity-isotropy",))
    + tuple((m, s) for m in BALL_MODELS for s in LIGHT_SUITES)
    + (("einstein", "topology"),)
)

# --- suite verdicts ------------------------------------------------------------

# Property names of each suite, in report order, with the number of rows each
# checks as (a, b, c) in a*samples + b*samples*probes + c.
SUITE_PROPERTIES = {
    "axioms": (("G1-left-identity", (1, 0, 0)), ("G2-left-inverse", (1, 0, 0)),
               ("G3-left-gyroassociative", (1, 0, 0)), ("G4-left-loop", (0, 1, 0)),
               ("gyr-automorphism", (0, 1, 0))),
    "table1": (("involution-of-inversion", (1, 0, 0)), ("left-cancellation", (1, 0, 0)),
               ("gyrator-identity", (1, 0, 0)), ("inverse-of-sum", (1, 0, 0)),
               ("cancellation-chain", (1, 0, 0)), ("even-property", (0, 1, 0)),
               ("inversive-symmetry", (0, 1, 0)), ("gyration-preservation-hom", (1, 0, 0)),
               ("composition-law", (0, 1, 0))),
    "gyronorm": (("positivity-nonnegative", (1, 0, 0)),
                 ("positivity-zero-iff-identity", (1, 0, 1)),
                 ("inverse-invariance", (1, 0, 0)), ("subadditivity", (1, 0, 0)),
                 ("gyration-invariance", (1, 0, 0))),
    "metric": (("nonnegativity", (1, 0, 0)), ("identity-of-indiscernibles", (2, 0, 0)),
               ("symmetry", (1, 0, 0)), ("triangle-inequality", (1, 0, 0))),
    "left-invariance": (("left-gyrotranslation-invariance", (1, 0, 0)),),
    "isometry": (("gyration-norm-preservation", (1, 0, 0)),
                 ("gyration-distance-preservation", (1, 0, 0))),
    "klee": (("right-gyrotranslation-inequality", (1, 0, 0)),
             ("klee-condition", (1, 0, 0)), ("equivalence-consistency", (1, 0, 0))),
    "commutative-like": (("commutative-like-condition", (1, 0, 0)),
                         ("bi-gyrotranslation-invariance", (1, 0, 0)),
                         ("equivalence-consistency", (1, 0, 0))),
    "mazur-ulam": (("rho-fixes-identity", (0, 0, 1)), ("rho-isometry", (1, 0, 0)),
                   ("decomposition-reproduces-f", (1, 0, 0))),
    "homogeneity-isotropy": (("homogeneity-maps-x-to-y", (1, 0, 0)),
                             ("homogeneity-witness-isometry", (1, 0, 0)),
                             ("isotropy-fixes-p", (1, 0, 0)),
                             ("isotropy-witness-isometry", (1, 0, 0)),
                             ("isotropy-moves-a-probe", (1, 0, 0))),
    "topology": tuple((f"{kind}-eps-{eps}", (1, 0, 0)) for eps in (0.1, 0.5, 1.0)
                      for kind in ("ball-inclusion", "gyrometric-below-rapidity")),
}

# Gyrocommutative gyrogroups other than groups violate the right
# gyrotranslation inequality, the Klee condition and the commutative-like
# condition, so these suites must falsify them on every curved model.
FALSIFIED = {
    "klee": {"right-gyrotranslation-inequality", "klee-condition"},
    "commutative-like": {"commutative-like-condition", "bi-gyrotranslation-invariance"},
}


def expected_status(model, suite, prop):
    if model != "group" and prop in FALSIFIED.get(suite, ()):
        return "fail"
    # Every gyration of a group is the identity, so no isotropy witness exists.
    if model == "group" and suite == "homogeneity-isotropy" and prop.startswith("isotropy-"):
        return "skipped"
    return "pass"


def expected_checked(status, coeffs, samples, probes):
    if status == "skipped":
        return 0
    a, b, c = coeffs
    return a * samples + b * samples * probes + c


SuiteOp = namedtuple("SuiteOp", "model suite seed")


def suite_ops(pairs, seed):
    """One op per pair, each with its own suite seed."""
    seeds = np.random.SeedSequence(seed).generate_state(len(pairs))
    return [SuiteOp(m, s, int(k)) for (m, s), k in zip(pairs, seeds)]


def run_suite_op(op, samples):
    return run_suite(op.model, op.suite, CheckConfig(samples=samples, seed=op.seed),
                     dim=suite_dim(op.model))


def check_report(op, report, samples, expect=expected_status):
    """Compare a report with the expected verdicts and row counts.

    Returns (failed, silent, problems).  ``silent`` marks an outcome that
    looks like a valid result but is wrong: a falsification reported as a
    pass, or a pass over the wrong number of rows.  A property reported as
    failing where it should pass is a failed operation the program flagged.
    """
    problems = []
    silent = False
    expected = SUITE_PROPERTIES[op.suite]
    names = [p.name for p in report.properties]
    if names != [name for name, _ in expected]:
        return True, True, [f"properties {names}"]
    for prop, (name, coeffs) in zip(report.properties, expected):
        status = expect(op.model, op.suite, name)
        checked = expected_checked(status, coeffs, samples, PROBES)
        if prop.status != status:
            problems.append(f"{name}: status {prop.status}, expected {status}")
            silent |= prop.status == "pass"
        if prop.checked != checked:
            problems.append(f"{name}: checked {prop.checked}, expected {checked}")
            silent = True
    return bool(problems), silent, problems


def report_rows(report):
    return sum(p.checked for p in report.properties)


# --- CLI call pool -----------------------------------------------------------------

CliCall = namedtuple("CliCall", "argv rows exit stdout")

CLI_POOL = 2000
MIX_SEED = 0x6779726F  # fixes the call mix; the benchmark seed does not reach it
COMMANDS = ("add", "gyr", "dist", "convert")
REJECT_FRAC = 0.1
CONVERT_ROUTES = (("mobius", "einstein"), ("einstein", "mobius"),
                  ("poincare-disk", "mobius"), ("mobius", "poincare-disk"))
MALFORMED = ("{};{}", "{},,{}", "{},{}x", "({},{})", "{} {}", "{},abc")


def _fmt(v):
    return ",".join(f"{x:.17g}" for x in np.atleast_1d(v))


def ball_points(rng, dim, count=1, radius=None):
    """``count`` points uniform in the ball of radius 0.95 (the suites'
    sampling cap), or on the sphere of ``radius`` when given."""
    z = rng.standard_normal((count, dim))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    r = 0.95 * rng.random((count, 1)) ** (1.0 / dim) if radius is None else radius
    return z * r


def reject_kinds(cmd, model, route):
    """The ways a call on ``model`` can be made to fail: a rim point (exit 3;
    the group model accepts every real vector), a malformed point or a
    dimension mismatch (exit 2; the Mobius-Einstein routes take any dim)."""
    kinds = ["malformed"]
    if model != "group":
        kinds.append("rim")
    if cmd != "convert" or "poincare-disk" in route:
        kinds.append("dim")
    return kinds


def cli_pool(seed, size=CLI_POOL):
    """A seeded mix of add/gyr/dist/convert calls with expected outcomes.

    No usage data exists, so this is a coverage mix, not measured traffic:
    the four commands, the models, the convert routes, the gyronorms of a
    ``dist`` call and the ways to be rejected are each drawn with equal
    weight.  ``REJECT_FRAC`` of calls must be rejected.  Accepted calls get
    their expected stdout from the batch API, evaluated once here.

    The shape of each call (command, model, route, dim, gyronorm, reject
    kind and, for ``convert``, the sign of the point's first coordinate) is
    drawn from a fixed stream, so every seed has the same mix and the same
    number of calls that meet a given defect.  The seed draws the point
    values and the order of the calls.
    """
    mix = np.random.default_rng([MIX_SEED, 1])
    rng = np.random.default_rng([seed, 1])
    specs = []
    for _ in range(size):
        cmd = COMMANDS[mix.integers(len(COMMANDS))]
        route = None
        if cmd == "convert":
            route = CONVERT_ROUTES[mix.integers(len(CONVERT_ROUTES))]
            model = route[0]
            dim = 2 if "poincare-disk" in route else int(mix.integers(1, 5))
            npts = 1
        else:
            model = registry.MODEL_NAMES[mix.integers(len(registry.MODEL_NAMES))]
            dim = 2 if model == "poincare-disk" else int(mix.integers(1, 5))
            npts = 3 if cmd == "gyr" else 2
        pts = list(ball_points(rng, dim, npts))
        if cmd == "convert":
            pts[0][0] = abs(pts[0][0]) * (1 if mix.random() < 0.5 else -1)
        norm = None
        if cmd == "dist":
            names = registry.gyronorm_names(model)
            norm = names[mix.integers(len(names))]
        kind, text = "ok", None
        if mix.random() < REJECT_FRAC:
            kinds = reject_kinds(cmd, model, route)
            kind = kinds[mix.integers(len(kinds))]
        if kind == "rim":
            rim = rng.uniform(1 - 5e-13, 1.5)
            at = mix.integers(npts)
            sign = np.sign(pts[at][0]) or 1.0
            pts[at] = ball_points(rng, dim, radius=rim)[0]
            pts[at][0] = abs(pts[at][0]) * sign
        elif kind == "malformed":
            tmpl = MALFORMED[mix.integers(len(MALFORMED))]
            text = tmpl.format(*(f"{x:.6g}" for x in rng.uniform(-0.5, 0.5, 2)))
        elif kind == "dim":
            if cmd == "convert" or model == "poincare-disk":
                pts = [ball_points(rng, 3)[0] for _ in pts]
            else:
                pts[-1] = ball_points(rng, dim + 1)[0]
        strs = [_fmt(p) for p in pts]
        if text is not None:
            strs[mix.integers(npts)] = text
        specs.append((cmd, model, dim, norm, pts, strs, kind, route))
    specs = [specs[i] for i in rng.permutation(size)]
    expected = _expected_outputs(specs)
    calls = []
    for (cmd, model, dim, norm, pts, strs, kind, route), out in zip(specs, expected):
        if cmd == "convert":
            argv = ["convert", "--from", route[0], "--to", route[1], strs[0]]
        else:
            argv = [cmd, "--model", model]
            if norm is not None:
                argv += ["--gyronorm", norm]
            for flag, s in zip(("--a", "--b", "--c") if cmd == "gyr" else ("--u", "--v"), strs):
                argv += [flag, s]
        code = {"ok": 0, "rim": 3}.get(kind, 2)
        calls.append(CliCall(argv, len(strs), code, out))
    return calls


def _expected_outputs(specs):
    """stdout of every accepted call, computed in batches per (cmd, model, dim)."""
    groups = {}
    for i, (cmd, model, dim, norm, pts, strs, kind, route) in enumerate(specs):
        if kind == "ok":
            groups.setdefault((cmd, model, dim, norm, route), []).append(i)
    out = [""] * len(specs)
    for (cmd, model, dim, norm, route), idx in groups.items():
        cols = [np.array([specs[i][4][k] for i in idx]) for k in range(len(specs[idx[0]][4]))]
        if cmd == "convert":
            res = _convert(route, cols[0])
        elif cmd == "dist":
            res = registry.get_normed(model, dim=dim, gyronorm=norm).distance(*cols)
        else:
            m = registry.get_model(model, dim=dim)
            res = m.add(*cols) if cmd == "add" else m.gyr(*cols)
        for i, r in zip(idx, res):
            out[i] = (f"{float(r):.17g}" if cmd == "dist" else _fmt(r)) + "\n"
    return out


def _convert(route, p):
    if route == ("mobius", "einstein"):
        return phi(p)
    if route == ("einstein", "mobius"):
        return phi_inv(p)
    return np.array(p)  # the disk and the 2-d Mobius ball share coordinates


def check_cli(call, code, stdout):
    """Return (failed, silent) for one CLI outcome.

    A wrong exit code with nothing on stdout is a refused call; exit 0 with
    output other than the expected is silently wrong.
    """
    if code == call.exit and stdout == call.stdout:
        return False, False
    return True, code == 0
