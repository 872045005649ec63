import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gyroball
from gyroball import cli, phi, phi_inv
from gyroball.cli import build_parser, format_point, main, parse_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # No CLI call that only adds, rotates, measures or converts draws a
    # sample, so importing the package must not load numpy.random.  Where
    # numpy loads it itself (numpy 1.x), there is nothing to check.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import gyroball, gyroball.cli; print(before, 'numpy.random' in sys.modules)")
    src = str(Path(gyroball.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    if out[0] == "True":
        pytest.skip("numpy loads numpy.random on import")
    assert out == ["False", "False"]


# --- parsing -----------------------------------------------------------------

def test_parse_point_vector_forms():
    assert np.allclose(parse_point("0.5,0"), [0.5, 0.0])
    assert np.allclose(parse_point("-0.1,0.2,0.3"), [-0.1, 0.2, 0.3])
    assert parse_point("0.25").shape == (1,)


def test_parse_point_complex_form():
    assert np.allclose(parse_point("0.3+0.1i", "poincare-disk"), [0.3, 0.1])
    assert np.allclose(parse_point("-0.5i", "poincare-disk"), [0.0, -0.5])
    assert np.allclose(parse_point("0.2,0.4", "poincare-disk"), [0.2, 0.4])


def test_format_point_round_trip():
    v = np.array([1 / 3, -math.sqrt(2) / 2])
    assert np.array_equal(parse_point(format_point(v)), v)


# --- add ---------------------------------------------------------------------

def test_add_einstein_collinear(capsys):
    code, out, _ = run_cli(capsys, "add", "--model", "einstein",
                           "--u", "0.5,0", "--v", "0.5,0")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [0.8, 0.0], atol=1e-15)


def test_add_disk_identity(capsys):
    code, out, _ = run_cli(capsys, "add", "--model", "poincare-disk",
                           "--u", "0,0", "--v", "0.3,0.1")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [0.3, 0.1], atol=1e-15)


def test_add_boundary_result_exits_3(capsys):
    # collinear sum lands within the guard band of the rim
    code, out, err = run_cli(capsys, "add", "--model", "mobius",
                             "--u", "0.999999,0", "--v", "0.999999,0")
    assert code == 3
    assert out == ""
    assert "error" in err


def test_add_boundary_input_exits_3(capsys):
    code, _, err = run_cli(capsys, "add", "--model", "einstein",
                           "--u", "1,0", "--v", "0.1,0")
    assert code == 3 and "error" in err


def test_add_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "add", "--model", "einstein",
                           "--u", "zebra", "--v", "0.1,0")
    assert code == 2 and "error" in err


def run_cli_no_warnings(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, *argv)


def test_add_overflow_exits_2(capsys):
    code, out, err = run_cli_no_warnings(capsys, "add", "--model", "group",
                                         "--u", "1e308,1e308", "--v", "1e308,1e308")
    assert code == 2
    assert out == ""
    assert err == "error: result inf,inf is not finite\n"


def test_disk_point_of_another_dim_exits_2(capsys):
    code, out, err = run_cli(capsys, "add", "--model", "poincare-disk",
                             "--u", "0.1,0.2,0.3", "--v", "0,0,0")
    assert (code, out) == (2, "")
    assert err == "error: model 'poincare-disk' requires dim = 2\n"
    code, out, err = run_cli(capsys, "convert", "--from", "mobius",
                             "--to", "poincare-disk", "0.1,0.2,0.3")
    assert (code, out) == (2, "")
    assert err == "error: disk conversions require dim = 2\n"


def test_add_dimension_mismatch_exits_2(capsys):
    code, _, _ = run_cli(capsys, "add", "--model", "einstein",
                         "--u", "0.1,0", "--v", "0.1,0,0")
    assert code == 2
    code, _, _ = run_cli(capsys, "add", "--model", "einstein", "--dim", "3",
                         "--u", "0.1,0", "--v", "0.2,0")
    assert code == 2


# --- dist --------------------------------------------------------------------

def test_dist_examples(capsys):
    code, out, _ = run_cli(capsys, "dist", "--model", "poincare-disk",
                           "--u", "0,0", "--v", "0.5,0")
    assert code == 0
    assert float(out) == pytest.approx(2 * math.atanh(0.5), abs=1e-12)

    code, out, _ = run_cli(capsys, "dist", "--model", "einstein",
                           "--gyronorm", "euclidean", "--u", "0,0", "--v", "0.5,0")
    assert code == 0 and float(out) == 0.5

    code, out, _ = run_cli(capsys, "dist", "--model", "einstein",
                           "--gyronorm", "rapidity", "--u", "-0.5,0", "--v", "0.5,0")
    assert code == 0
    assert float(out) == pytest.approx(math.atanh(0.8), abs=1e-12)


def test_dist_mobius_near_the_rim(capsys):
    # |v| = 1 - 1e-7: the Mobius rapidity atanh|v| equals the Einstein one.
    code, out, err = run_cli(capsys, "dist", "--model", "mobius",
                             "--u", "0,0", "--v", "0.9999999,0")
    assert (code, out, err) == (0, "8.4056213910223097\n", "")
    code, out, err = run_cli(capsys, "dist", "--model", "mobius",
                             "--u", "0,0", "--v", "0.999999999999,0")
    assert code == 3 and out == "" and "boundary guard" in err


def test_dist_einstein_euclidean_guards_the_sum(capsys):
    # Both points lie 1e-7 inside the rim; their sum neg u (+) v does not.
    code, out, err = run_cli(capsys, "dist", "--model", "einstein", "--gyronorm", "euclidean",
                             "--u=-0.9999999,0", "--v", "0.9999999,0")
    assert (code, out) == (3, "")
    assert err == ("error: point norm 0.9999999999999949 reaches the boundary guard"
                   " 1 - 1e-12\n")


def test_dist_unknown_gyronorm_exits_2(capsys):
    code, _, err = run_cli(capsys, "dist", "--model", "mobius",
                           "--gyronorm", "poincare", "--u", "0,0,0", "--v", "0.1,0,0")
    assert code == 2 and "rapidity" in err


def test_dist_bad_points_are_reported_before_an_unknown_gyronorm(capsys):
    code, out, err = run_cli(capsys, "dist", "--model", "mobius", "--gyronorm", "poincare",
                             "--u", "0,0", "--v", "0.999999999999,0")
    assert (code, out) == (3, "") and "boundary guard" in err
    code, out, err = run_cli(capsys, "dist", "--model", "mobius", "--gyronorm", "poincare",
                             "--u", "0,0,0", "--v", "0.1")
    assert (code, out, err) == (2, "", "error: points have mismatched dimensions: [1, 3]\n")


def test_dist_overflow_exits_2(capsys):
    code, out, err = run_cli_no_warnings(capsys, "dist", "--model", "group",
                                         "--u", "1e308,0", "--v", "-1e308,0")
    assert code == 2
    assert out == ""
    assert err == "error: result inf is not finite\n"


# --- convert -----------------------------------------------------------------

def test_convert_examples(capsys):
    code, out, _ = run_cli(capsys, "convert", "--from", "mobius",
                           "--to", "einstein", "0.5,0")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [0.8, 0.0], atol=1e-15)

    code, out, _ = run_cli(capsys, "convert", "--from", "einstein",
                           "--to", "mobius", "0.8,0")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [0.5, 0.0], atol=1e-12)


def test_convert_rejects_a_point_outside_the_ball(capsys):
    # phi maps [2, 0] inside the ball; the command checks the point first.
    code, out, err = run_cli(capsys, "convert", "--from", "mobius",
                             "--to", "einstein", "2,0")
    assert code == 3 and out == "" and "boundary guard" in err


def test_convert_round_trip(capsys):
    point = "0.123456789012345,-0.3,0.44"
    code, out, _ = run_cli(capsys, "convert", "--from", "mobius",
                           "--to", "einstein", point)
    code2, out2, _ = run_cli(capsys, "convert", "--from", "einstein",
                             "--to", "mobius", out.strip())
    assert code == code2 == 0
    assert np.allclose(parse_point(out2.strip()), parse_point(point), atol=1e-12)


@pytest.mark.parametrize("order", ["point-last", "point-first", "after-double-dash"])
def test_convert_negative_point_in_any_order(capsys, order):
    point = "-0.3,0.2"
    flags = ["--from", "mobius", "--to", "einstein"]
    argv = {
        "point-last": flags + [point],
        "point-first": [point] + flags,
        "after-double-dash": flags + ["--", point],
    }[order]
    code, out, err = run_cli(capsys, "convert", *argv)
    assert code == 0, err
    assert np.allclose(parse_point(out.strip()), phi(np.array([-0.3, 0.2])), atol=1e-15)


def test_convert_negative_multi_coordinate_point(capsys):
    point = "-0.25,-0.5,-.125,0.0625"
    code, out, err = run_cli(capsys, "convert", "--from", "einstein",
                             "--to", "mobius", point)
    assert code == 0, err
    assert np.allclose(parse_point(out.strip()), phi_inv(parse_point(point)), atol=1e-15)
    code, out, _ = run_cli(capsys, "convert", "--from", "poincare-disk",
                           "--to", "mobius", "-0.3-0.4i")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [-0.3, -0.4], atol=1e-15)


def test_convert_unsupported_route_exits_2(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "einstein",
                           "--to", "poincare-disk", "0.1,0.2")
    assert code == 2 and "route" in err


# --- gyr ---------------------------------------------------------------------

def test_gyr_examples(capsys):
    code, out, _ = run_cli(capsys, "gyr", "--model", "einstein",
                           "--a", "0,0", "--b", "0.3,0", "--c", "0.1,0.2")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [0.1, 0.2], atol=1e-12)

    code, out, _ = run_cli(capsys, "gyr", "--model", "poincare-disk",
                           "--a", "0.5,0", "--b", "0,0.5", "--c", "0.3,0")
    assert code == 0
    result = parse_point(out.strip())
    assert np.linalg.norm(result) == pytest.approx(0.3, abs=1e-12)
    assert abs(result[1]) > 0.1  # genuinely rotated

    code, out, _ = run_cli(capsys, "gyr", "--model", "mobius",
                           "--a", "0.2,0", "--b", "0.4,0", "--c", "0,0.3")
    assert code == 0
    assert np.allclose(parse_point(out.strip()), [0.0, 0.3], atol=1e-12)


# --- check -------------------------------------------------------------------

def test_check_pass_exits_0(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "einstein",
                           "--suite", "axioms", "--samples", "300", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "axioms" and doc["model"] == "einstein"
    assert doc["seed"] == 42 and doc["samples"] == 300
    assert all(p["status"] == "pass" for p in doc["properties"])


def test_check_failure_exits_1_with_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "poincare-disk",
                           "--suite", "klee", "--samples", "300")
    assert code == 1
    doc = json.loads(out)
    failing = [p for p in doc["properties"] if p["status"] == "fail"]
    assert failing and failing[0]["failures"]
    witness = failing[0]["failures"][0]
    assert {"inputs", "lhs", "rhs", "diff"} <= set(witness)


def test_check_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "--model", "einstein",
                           "--suite", "nosuch")
    assert code == 2 and "nosuch" in err


def test_check_unknown_model_exits_2(capsys):
    code, _, _ = run_cli(capsys, "check", "--model", "bogus", "--suite", "axioms")
    assert code == 2


def test_check_structured_output_is_byte_identical(capsys):
    argv = ("check", "--model", "mobius", "--suite", "gyronorm",
            "--samples", "300", "--seed", "7")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_check_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("GYRO_SEED", "123")
    _, out, _ = run_cli(capsys, "check", "--model", "group", "--suite", "axioms",
                        "--samples", "100")
    assert json.loads(out)["seed"] == 123
    # explicit flag wins over the environment
    _, out, _ = run_cli(capsys, "check", "--model", "group", "--suite", "axioms",
                        "--samples", "100", "--seed", "9")
    assert json.loads(out)["seed"] == 9


def test_check_text_output(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "group", "--suite",
                           "axioms", "--samples", "100", "--output", "text")
    assert code == 0
    assert "PASS" in out and "G1-left-identity" in out


def test_check_text_output_prints_counterexamples(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "poincare-disk", "--suite",
                           "klee", "--samples", "500", "--output", "text")
    assert code == 1
    # One block per property: its status line and its counterexample lines.
    fails = [b for b in re.split(r"\n(?=  [A-Z]+ )", out) if b.startswith("  FAIL ")]
    assert fails
    assert all(b.count("\n          counterexample: inputs=") <= 3 for b in fails)
    assert any("\n          counterexample: inputs=" in b for b in fails)


def test_check_text_output_prints_notes(capsys):
    code, out, _ = run_cli(capsys, "check", "--model", "group", "--suite",
                           "homogeneity-isotropy", "--samples", "100", "--output", "text")
    assert code == 0
    assert "  SKIPPED isotropy-fixes-p (checked 0) -- all sampled gyrations are the " \
           "identity map; " in out


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


# --- the parser: every command named, only the dispatched one built ---------

COMMANDS = ["add", "gyr", "dist", "convert", "check"]
ROOT_USAGE = "usage: gyroball [-h] {add,gyr,dist,convert,check} ...\n"
POINTS = ["--model", "mobius", "--u", "0.1,0", "--v", "0.2,0"]

# One argv per command that parses, and the command's arguments in usage order.
PARSED = {
    "add": ["add", *POINTS],
    "gyr": ["gyr", "--model", "group", "--a", "0.1,0", "--b", "0,0.2", "--c", "0.3,0"],
    "dist": ["dist", "--gyronorm", "rapidity", *POINTS],
    "convert": ["convert", "--from", "mobius", "--to", "einstein", "0.1,0"],
    "check": ["check", "--model", "group", "--suite", "axioms", "--samples", "50"],
}
ARGUMENTS = {
    "add": ["--model", "--dim", "--u", "--v"],
    "gyr": ["--model", "--dim", "--a", "--b", "--c"],
    "dist": ["--model", "--dim", "--gyronorm", "--u", "--v"],
    "convert": ["--from", "--to", "point"],
    "check": ["--model", "--dim", "--suite", "--gyronorm", "--samples", "--seed",
              "--tol-abs", "--tol-rel", "--output"],
}


def subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def arguments(parser):
    return [a.option_strings[-1] if a.option_strings else a.dest for a in parser._actions]


def eager_parser():
    """A reference parser, built by stock argparse with every command's
    arguments added before parsing."""
    root = build_parser()
    parser = argparse.ArgumentParser(prog=root.prog, description=root.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, _) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in ARGUMENTS[name]:
            p.add_argument(arg, **cli._OPTIONS[arg])
        p.set_defaults(func=func)
    return parser


@pytest.mark.parametrize("command", COMMANDS)
def test_build_parser_registers_every_command(command):
    # Every command is registered, and none is built; parsing builds the one
    # argparse dispatches to, with its arguments in usage order, and the
    # other four stay unbuilt.
    parser = build_parser()
    assert list(subparsers(parser).items()) == [(name, None) for name in COMMANDS]
    parser.parse_args(PARSED[command])
    commands = subparsers(parser)
    assert list(commands) == COMMANDS
    for name, p in commands.items():
        if name == command:
            assert arguments(p) == ["--help"] + ARGUMENTS[name]
        else:
            assert p is None


def test_a_call_builds_the_root_parser_and_the_dispatched_command_only(capsys, monkeypatch):
    # Each call builds the root parser; a command's parser is built on the
    # first call that dispatches to it in the process and reused after.
    cli._command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv, parsers in ((PARSED["add"], ["gyroball", "gyroball add"]),
                          (PARSED["add"], ["gyroball"]),
                          (PARSED["dist"], ["gyroball", "gyroball dist"])):
        built.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert built == parsers
    built.clear()
    build_parser().parse_args(PARSED["add"])
    assert built == ["gyroball"]


def test_a_reused_parser_gives_the_outcomes_of_fresh_ones(capsys, monkeypatch):
    # Two calls of one command, then one of each other command, then help,
    # through one parser: each command is built once.
    monkeypatch.setenv("COLUMNS", "100")
    argvs = [PARSED["add"], ["add", "--model", "einstein", "--u=-0.3,0", "--v", "0.2,0.1"],
             *(PARSED[name] for name in COMMANDS[1:]), ["add", "-h"], ["check", "-h"]]
    fresh = [run_cli(capsys, *argv) for argv in argvs]
    parser = build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh


# argv, exit code, the stream that holds the text and how the text starts.
PARSER_SHAPED = {
    "empty": ([], 2, "err", ROOT_USAGE),
    "help": (["-h"], 0, "out", ROOT_USAGE),
    "help-before-command": (["-h", "add"], 0, "out", ROOT_USAGE),
    "unknown-command": (["bogus"], 2, "err", ROOT_USAGE),
    "unknown-before-command": (["bogus", "add"], 2, "err", ROOT_USAGE),
    "command-help": (["add", "-h"], 0, "out", "usage: gyroball add [-h] --model"),
    "gyr-help": (["gyr", "-h"], 0, "out", "usage: gyroball gyr [-h] --model"),
    "dist-help": (["dist", "-h"], 0, "out", "usage: gyroball dist [-h] --model"),
    "convert-help": (["convert", "-h"], 0, "out", "usage: gyroball convert [-h] --from"),
    "check-help": (["check", "-h"], 0, "out", "usage: gyroball check [-h] --model"),
    "unknown-option-after": (["add", *POINTS, "--bogus"], 2, "err",
                             ROOT_USAGE + "gyroball: error: unrecognized arguments: --bogus\n"),
    "unknown-option-before": (["--bogus", "add", *POINTS], 2, "err",
                              ROOT_USAGE + "gyroball: error: unrecognized arguments: --bogus\n"),
    # argparse reads a leading "--" as the command name (Python 3.10 to 3.13).
    "double-dash-first": (["--", "add", *POINTS], 2, "err",
                          ROOT_USAGE + "gyroball: error: argument command: invalid choice: '--'"),
    "command-as-value": (["dist", "--model", "add", "--u", "0,0", "--v", "0,0"], 2, "err",
                         "usage: gyroball dist [-h] --model"),
    "trailing-command": (["add", *POINTS, "gyr"], 2, "err",
                         ROOT_USAGE + "gyroball: error: unrecognized arguments: gyr\n"),
}


@pytest.mark.parametrize("argv,code,stream,text", PARSER_SHAPED.values(), ids=PARSER_SHAPED)
def test_outcome_does_not_depend_on_which_arguments_are_built(capsys, monkeypatch, argv,
                                                               code, stream, text):
    # argparse's dispatch builds one command only; with stock argparse and
    # every command built before parsing, the exit code and both streams
    # are the same.
    monkeypatch.setenv("COLUMNS", "100")
    outcome = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "build_parser", eager_parser)
    assert run_cli(capsys, *argv) == outcome
    assert outcome[0] == code
    assert outcome[1 if stream == "out" else 2].startswith(text)


def test_outcomes_do_not_depend_on_which_commands_the_process_built(capsys, monkeypatch):
    # Every parser-shaped and parsing argv, forward and then reversed with
    # every command's parser already built in this process: each outcome is
    # that of stock argparse with every command built afresh.
    monkeypatch.setenv("COLUMNS", "100")
    argvs = [argv for argv, *_ in PARSER_SHAPED.values()] + list(PARSED.values())
    argvs += argvs[::-1]
    cached = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", eager_parser)
    assert cached == [run_cli(capsys, *argv) for argv in argvs]
    # Help wraps to COLUMNS when it is printed, not when its parser was built.
    helps = []
    for columns in ("100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        outcomes = []
        for parser in (build_parser, eager_parser):
            monkeypatch.setattr(cli, "build_parser", parser)
            outcomes.append(run_cli(capsys, "add", "-h"))
        assert outcomes[0] == outcomes[1]
        helps.append(outcomes[0])
    assert helps[0] != helps[1]


# --- rejected inputs: exit 2 and a message, never a traceback ---------------

@pytest.mark.parametrize("extra", [
    ["--model", "group", "--dim", "-3"],
    ["--model", "einstein", "--dim", "0"],
    ["--model", "einstein", "--samples", "-5"],
    ["--model", "einstein", "--samples", "0"],
    ["--model", "einstein", "--seed", "-1"],
    ["--model", "einstein", "--tol-abs", "nan"],
], ids=["dim-negative", "dim-zero", "samples-negative", "samples-zero",
        "seed-negative", "tol-abs-nan"])
def test_check_rejects_bad_config_with_exit_2(capsys, extra):
    code, out, err = run_cli(capsys, "check", "--suite", "axioms", *extra)
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_check_rejects_non_integer_seed_env_with_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("GYRO_SEED", "abc")
    code, out, err = run_cli(capsys, "check", "--model", "group", "--suite", "axioms",
                             "--samples", "100")
    assert code == 2
    assert out == "" and "GYRO_SEED" in err


@pytest.mark.parametrize("point", ["nan,0", "inf,0", "1e999,0", "-inf,0", "-NaN,0"])
def test_add_rejects_non_finite_point_with_exit_2(capsys, point):
    code, out, err = run_cli(capsys, "add", "--model", "einstein",
                             "--u", point, "--v", "0.1,0")
    assert code == 2
    assert out == "" and "non-finite" in err


def test_check_out_of_memory_exits_2_without_traceback(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.5 TiB for an array")

    monkeypatch.setattr("gyroball.cli.run_suite", no_memory)
    code, out, err = run_cli(capsys, "check", "--model", "mobius", "--suite", "axioms",
                             "--samples", "3000000000")
    assert code == 2
    assert out == "" and err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err
