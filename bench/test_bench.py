"""Small-scale self-test of the benchmark.

    python3 -m pytest bench -q

Runs every workload at a few hundred samples or calls, untraced and traced.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import kernels  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {"samples": 200, "pool_size": 300, "setup_reps": 1}
SEED = 5


@pytest.fixture(scope="module")
def runs():
    """(result, extras) per (workload, trace) at small scale."""
    saved = kernels.SIZES
    kernels.SIZES = ((200, "10k", 2), (400, "320k", 1))
    try:
        return {(wl, trace): measure.run(wl, SEED, 0.1, trace, **SMALL)
                for wl in run.WORKLOADS for trace in (0, 1)}
    finally:
        kernels.SIZES = saved


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_present_with_unit(runs, workload, trace):
    result, _ = runs[workload, trace]
    specs = SPEC["per_layer" if trace else "end_to_end"]
    metrics = run.with_units(result["metrics"], specs)
    assert list(metrics) == [s["name"] for s in specs]
    assert all(metrics[s["name"]]["unit"] == s["unit"] for s in specs)
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
    assert result["correct"]
    assert 1 <= result["attempted"]
    assert 0 <= result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_get_same_inputs(runs, workload):
    _, plain = runs[workload, 0]
    _, traced = runs[workload, 1]
    # The traced run makes untraced, traced and untraced passes over its inputs.
    assert set(traced["inputs"].values()) == {3}
    assert list(plain["inputs"]) == list(traced["inputs"])


def test_inputs_depend_only_on_seed():
    assert w.cli_pool(SEED, 50) == w.cli_pool(SEED, 50)
    assert w.cli_pool(SEED, 50) != w.cli_pool(SEED + 1, 50)
    assert w.suite_ops(w.SWEEP_FLOAT, SEED) == w.suite_ops(w.SWEEP_FLOAT, SEED)
    assert w.suite_ops(w.SWEEP_FLOAT, SEED) != w.suite_ops(w.SWEEP_FLOAT, SEED + 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_depend_only_on_inputs(runs, workload):
    # Each distinct input counts once, however often the measurement repeats it.
    result, extras = runs[workload, 0]
    size = SMALL["pool_size"] if workload == "cli-points" else len(
        w.VERIFY_BALL if workload == "verify-ball" else w.SWEEP_FLOAT)
    assert result["attempted"] == len(extras["inputs"]) == size


def _hits_convert_defect(call):
    """A convert call whose point starts with '-' but is not a negative
    number to argparse, and which should not exit 2 anyway."""
    point = call.argv[-1]
    return (call.argv[0] == "convert" and call.exit != 2 and point.startswith("-")
            and not re.fullmatch(r"-\d+|-\d*\.\d+", point))


def test_cli_mix_is_the_same_for_every_seed():
    def shape(call):
        names = [a for a, before in zip(call.argv[1:], call.argv) if a.startswith("--")
                 or before in ("--model", "--from", "--to", "--gyronorm")]
        return call.argv[0], names, call.exit

    pools = [w.cli_pool(seed, 400) for seed in (SEED, SEED + 1)]
    assert sorted(map(shape, pools[0])) == sorted(map(shape, pools[1]))
    assert [c.argv for c in pools[0]] != [c.argv for c in pools[1]]
    hits = [sum(map(_hits_convert_defect, pool)) for pool in pools]
    assert hits[0] == hits[1] > 0


def _one_wrong(model, suite, prop, verdict):
    def expect(m, s, p):
        return verdict if (m, s, p) == (model, suite, prop) else w.expected_status(m, s, p)
    return expect


@pytest.mark.parametrize("wrong, silent", (
    # The program falsifies klee-condition on einstein; expecting a pass
    # makes that a failed (but flagged) operation.
    (("einstein", "klee", "klee-condition", "pass"), False),
    # The group satisfies it; expecting a failure makes the program's pass
    # a silently wrong answer.
    (("group", "klee", "klee-condition", "fail"), True),
))
def test_wrong_expected_verdict_is_counted(runs, wrong, silent):
    base, _ = runs["sweep-float", 0]
    result, extras = measure.run("sweep-float", SEED, 0.1, 0, expect=_one_wrong(*wrong), **SMALL)
    assert result["attempted"] == base["attempted"]
    assert result["failed"] == base["failed"] + 1
    assert result["correct"] is (base["correct"] and not silent)
    assert any("klee-condition: status" in p for p in extras["problems"])


def test_cli_outcome_checks():
    call = w.cli_pool(SEED, 1)[0]
    assert w.check_cli(call, call.exit, call.stdout) == (False, False)
    assert w.check_cli(call, 2 if call.exit != 2 else 3, "") == (True, False)
    assert w.check_cli(call, 0, "0.5\n" + call.stdout) == (True, True)


def test_cli_pool_mix():
    pool = w.cli_pool(SEED)
    convert = sum(c.argv[0] == "convert" for c in pool) / len(pool)
    rejected = sum(c.exit != 0 for c in pool) / len(pool)
    assert abs(convert - 0.25) < 0.03
    assert abs(rejected - w.REJECT_FRAC) < 0.02
    assert {c.exit for c in pool} == {0, 2, 3}


def test_reference_helper_is_stopped():
    with reference.Reference("cli") as ref:
        ref.sample()
    assert ref.samples[0] > 0
    assert ref._proc.returncode == 0
