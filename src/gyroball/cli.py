"""Command-line front end.

Exit codes: 0 success, 1 property failure, 2 usage/parse/lookup error, a
non-finite result or out of memory, 3 boundary error, 4 sampling-health
failure.  Structured reports go to standard output; diagnostics go to
standard error.  Each call registers every command by name and help, and
builds only the command that argparse dispatches to.
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from .engine import CheckConfig, run_suite, SUITE_NAMES
from .errors import (
    BoundaryError,
    DimensionMismatchError,
    DomainError,
    GyroError,
    SamplingHealthError,
    UnknownNameError,
)
from .registry import (
    COMPLEX_MODELS,
    CONVERSIONS,
    GYRONORMS,
    MODEL_NAMES,
    check_points,
    get_model,
    resolve_gyronorm,
)

_COMPLEX_FORM = re.compile(
    r"^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*"
    r"(?P<im>[+-]\s*(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*i\s*$"
)


class PointParseError(GyroError, ValueError):
    pass


def parse_point(text, model_name=None):
    """Parse "x1,x2,..." (any model) or "a+bi" (models on the complex plane)."""
    m = _COMPLEX_FORM.match(text) if model_name in COMPLEX_MODELS else None
    if m:
        coords = [float(m.group("re")) if m.group("re") else 0.0,
                  float(m.group("im").replace(" ", ""))]
    else:
        try:
            coords = [float(part) for part in text.split(",")]
        except ValueError:
            raise PointParseError(f"cannot parse point {text!r}") from None
    if not all(map(math.isfinite, coords)):
        raise PointParseError(f"point {text!r} has non-finite coordinates")
    return np.array(coords)


def format_point(v):
    return ",".join(f"{x:.17g}" for x in np.atleast_1d(v))


def _parse_points(args, *texts):
    """Parse the points of add, gyr or dist; points that share one dim must
    share it with --dim, if given."""
    points = [parse_point(t, args.model) for t in texts]
    dim = points[0].shape[-1]
    if args.dim not in (None, dim) and all(p.shape[-1] == dim for p in points):
        raise DimensionMismatchError(
            f"--dim {args.dim} disagrees with point dimension {dim}"
        )
    return points


def _model_points(args, *texts):
    """The parsed points, once they are points of the model, and the model
    of their dim."""
    points = check_points(args.model, *_parse_points(args, *texts))
    return get_model(args.model, dim=points[0].shape[-1]), points


def _prints_result(command):
    """Print the point or distance that ``command`` returns.  numpy stays
    quiet while it runs, and a non-finite result, as when the group model's
    arithmetic overflows, is rejected instead of printed."""

    def run(args):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = command(args)
        if not np.all(np.isfinite(result)):
            raise DomainError(f"result {format_point(result)} is not finite")
        print(format_point(result))
        return 0

    return run


def _validated(model, result):
    if model.validate:
        model.validate(result)
    return result


@_prints_result
def _cmd_add(args):
    model, (u, v) = _model_points(args, args.u, args.v)
    return _validated(model, model.add(u, v))


@_prints_result
def _cmd_gyr(args):
    model, (a, b, c) = _model_points(args, args.a, args.b, args.c)
    return _validated(model, model.gyr(a, b, c))


# Both tables are read at call time: (model, gyronorm) -> metric(u, v), and
# (from, to) -> conversion map.
_METRICS = {key: g.metric for key, g in GYRONORMS.items()}
_ROUTES = CONVERSIONS


@_prints_result
def _cmd_dist(args):
    # The metric checks the points; a bad point is reported before an
    # unknown gyronorm.
    u, v = _parse_points(args, args.u, args.v)
    try:
        name = resolve_gyronorm(args.model, args.gyronorm)
    except UnknownNameError:
        check_points(args.model, u, v)
        raise
    return _METRICS[args.model, name](u, v)


@_prints_result
def _cmd_convert(args):
    try:
        route = _ROUTES[(args.src, args.dst)]
    except KeyError:
        raise UnknownNameError(
            f"unsupported conversion route {args.src} -> {args.dst}; supported: "
            + ", ".join(f"{a}->{b}" for a, b in _ROUTES)
        ) from None
    p = parse_point(args.point, args.src)
    # Mapped before the point checks: a disk route rejects a point of the
    # wrong dim first.
    result = route(p)
    check_points(args.src, p)
    check_points(args.dst, result)
    return result


def _cmd_check(args):
    seed = args.seed
    if seed is None:
        env = os.environ.get("GYRO_SEED", str(CheckConfig.seed))
        try:
            seed = int(env)
        except ValueError:
            raise DomainError(f"GYRO_SEED must be an integer, got {env!r}") from None
    cfg = CheckConfig(samples=args.samples, seed=seed,
                      atol=args.tol_abs, rtol=args.tol_rel)
    try:
        report = run_suite(args.model, args.suite, cfg=cfg, dim=args.dim,
                           gyronorm=args.gyronorm)
    except SamplingHealthError as exc:
        if args.output == "structured":
            print(exc.report.to_json())
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.output == "structured":
        print(report.to_json())
    else:
        print(f"suite {report.suite} on {report.model} (dim {report.dim}, "
              f"gyronorm {report.gyronorm}, seed {report.seed}, "
              f"samples {report.samples})")
        for prop in report.properties:
            line = f"  {prop.status.upper():7s} {prop.name} (checked {prop.checked})"
            if prop.note:
                line += f" -- {prop.note}"
            print(line)
            for c in prop.failures[:3]:
                print(f"          counterexample: inputs={c.inputs} "
                      f"lhs={c.lhs} rhs={c.rhs} diff={c.diff}")
    return 0 if report.passed else 1


# Each option's add_argument keywords.
_OPTIONS = {
    "--model": dict(required=True, choices=MODEL_NAMES),
    "--dim": dict(type=int),
    **{flag: dict(required=True) for flag in ("--u", "--v", "--a", "--b", "--c", "--suite")},
    "--gyronorm": {},
    "--from": dict(dest="src", required=True, choices=MODEL_NAMES),
    "--to": dict(dest="dst", required=True, choices=MODEL_NAMES),
    "point": {},
    "--samples": dict(type=int, default=CheckConfig.samples),
    "--seed": dict(type=int),
    "--tol-abs": dict(type=float, default=CheckConfig.atol),
    "--tol-rel": dict(type=float, default=CheckConfig.rtol),
    "--output": dict(choices=("structured", "text"), default="structured"),
}

# The commands, in usage order: name -> (help, handler, its _OPTIONS in
# usage order).
_COMMANDS = {
    "add": ("gyroaddition of two points", _cmd_add, "--model --dim --u --v"),
    "gyr": ("apply the gyration gyr[a,b] to c", _cmd_gyr, "--model --dim --a --b --c"),
    "dist": ("distance between two points", _cmd_dist, "--model --dim --gyronorm --u --v"),
    "convert": ("convert a point between models", _cmd_convert, "--from --to point"),
    "check": ("run a property suite", _cmd_check,
              "--model --dim --suite --gyronorm --samples --seed --tol-abs --tol-rel --output"),
}


class _Commands(argparse._SubParsersAction):
    """The commands' subparsers action.  A command is registered by name and
    help alone, with None in place of its parser; argparse's dispatch to it
    builds its parser, arguments and handler there, once per root parser."""

    def add_parser(self, name, help):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = None

    def __call__(self, parser, namespace, values, *args):
        name = values[0]
        if self._name_parser_map[name] is None:
            command = self._name_parser_map[name] = self._parser_class(
                prog=f"{self._prog_prefix} {name}")
            for option in _COMMANDS[name][2].split():
                command.add_argument(option, **_OPTIONS[option])
            command.set_defaults(func=_COMMANDS[name][1])
        super().__call__(parser, namespace, values, *args)


def build_parser():
    """The root parser.  Every command is registered with its name and help,
    so root usage, help and errors name all of them; only the command
    argparse dispatches to is built."""
    parser = argparse.ArgumentParser(
        prog="gyroball",
        description="Gyrogroup algebra on the unit ball: compute, convert, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)
    for name, (text, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=text)
    return parser


# A token that starts with "-" and a digit, "." or a non-finite float name
# is a point or a number, not an option.
_NEGATIVE_POINT = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


def _merge_point_flags(argv):
    """Keep points and numbers that start with a minus sign away from
    argparse, which would read "-0.3,0.2" as an option: one that follows a
    long option is joined with it ("--u=-0.3,0.2", "--dim=-3"), and a bare
    one (the operand of ``convert``) is moved behind "--", so it parses
    before or after the options."""
    if argv is None:
        argv = sys.argv[1:]
    out, operands = [], []
    for i, tok in enumerate(argv):
        if tok == "--":
            operands += argv[i + 1:]
            break
        prev = out[-1] if out else ""
        if not _NEGATIVE_POINT.match(tok):
            out.append(tok)
        elif prev.startswith("--") and "=" not in prev and prev != "--help":
            out[-1] = f"{prev}={tok}"
        else:
            operands.append(tok)
    return out + ["--"] + operands if operands else out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_merge_point_flags(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BoundaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PointParseError, DomainError, DimensionMismatchError,
            UnknownNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
