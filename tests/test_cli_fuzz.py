"""Property test over the CLI's argv and point grammar: every input ends in a
documented exit code, never in a traceback."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from gyroball import cli
from gyroball.engine import SUITE_NAMES
from gyroball.registry import CONVERSIONS, GYRONORMS, MODEL_NAMES

COORDINATES = st.floats(-1.5, 1.5) | st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 1 - 1e-13, 5e-324])

MALFORMED = st.sampled_from(["", ",", "0.1,,0.2", "abc", "1e", "-", "--", "0.1;0.2",
                             "(0.1,0.2)", "0x1p-2", "1_0", "0.3+i", "i", "0.1 0.2"])


def points(dim):
    """Point texts: vectors of one shared dim, so that some calls get past
    the parser, vectors of any dim, complex forms and malformed text."""
    def joined(xs):
        return ",".join(map(repr, xs))

    return st.one_of(
        st.lists(COORDINATES, min_size=dim, max_size=dim).map(joined),
        st.lists(COORDINATES, min_size=1, max_size=4).map(joined),
        st.tuples(COORDINATES, COORDINATES).map(lambda z: f"{z[0]!r}{z[1]:+}i"),
        st.tuples(COORDINATES, COORDINATES).map(lambda z: f"{z[0]!r}{z[1]:+}j"),
        MALFORMED,
        st.text("0123456789.,+-eEijnaf ", max_size=12),
    )


MODELS = st.sampled_from(MODEL_NAMES + ("bogus",))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("add", "gyr", "dist", "convert", "check")))
    options = []
    if command == "convert":
        src, dst = draw(st.sampled_from(list(CONVERSIONS)) | st.tuples(MODELS, MODELS))
        options += [["--from", src], ["--to", dst]]
    else:
        options.append(["--model", draw(MODELS)])
        if draw(st.booleans()):
            options.append(["--dim", str(draw(st.integers(-3, 8)))])
    if command in ("dist", "check") and draw(st.booleans()):
        options.append(["--gyronorm", draw(st.sampled_from(
            sorted({g for _, g in GYRONORMS}) + ["bogus"]))])
    if command == "check":
        options += [
            ["--suite", draw(st.sampled_from(SUITE_NAMES + ("bogus",)))],
            ["--samples", str(draw(st.integers(-2, 40)))],
            ["--output", draw(st.sampled_from(("structured", "text")))],
        ]
        if draw(st.booleans()):
            options.append(["--seed", str(draw(st.integers(-2, 2**70)))])
        if draw(st.booleans()):
            options.append(["--tol-abs", repr(draw(st.floats()))])
    else:
        point = points(draw(st.integers(1, 4)))
        flags = {"add": ("--u", "--v"), "gyr": ("--a", "--b", "--c"), "dist": ("--u", "--v")}
        options += [[flag, draw(point)] for flag in flags.get(command, ())]
        if command == "convert":
            options.append([draw(point)])
    options = draw(st.permutations(options))
    return [command] + [token for option in options for token in option]


@settings(max_examples=300, deadline=None, database=None)
@given(argvs())
def test_cli_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
