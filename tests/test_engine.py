import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gyroball import (
    CheckConfig,
    apply_isometry,
    Gyration,
    GyrogroupModel,
    GyronormedModel,
    IsometrySpec,
    LeftTranslation,
    SamplingHealthError,
    UnknownNameError,
    einstein_add,
    euclidean_norm,
    get_normed,
    run_suite,
    sample_ball_points,
)
from gyroball import cli, registry
from gyroball.core import gyr_via_gyrator_identity, isotropy_spec
from gyroball.engine import BLOCK_ELEMENTS, MAX_FAILURES, _SuiteRun
from gyroball.rng import make_rng

FAST = CheckConfig(samples=500)

CONTINUOUS = ("einstein", "mobius", "poincare-disk")

PASSING_SUITES = ("axioms", "table1", "gyronorm", "metric", "left-invariance",
                  "isometry", "mazur-ulam", "homogeneity-isotropy")

FAILING_SUITES = ("klee", "commutative-like")


def _dim(model):
    return 2 if model == "poincare-disk" else 3


@pytest.mark.parametrize("model", CONTINUOUS)
@pytest.mark.parametrize("suite", PASSING_SUITES)
def test_continuous_models_pass(model, suite):
    report = run_suite(model, suite, FAST, dim=_dim(model))
    assert report.passed, [p.name for p in report.properties if p.status == "fail"]


@pytest.mark.parametrize("model", CONTINUOUS)
@pytest.mark.parametrize("suite", FAILING_SUITES)
def test_hyperbolic_models_fail_right_invariance(model, suite):
    report = run_suite(model, suite, FAST, dim=_dim(model))
    assert not report.passed
    failed = [p for p in report.properties if p.status == "fail"]
    assert all(p.failures for p in failed if p.name != "equivalence-consistency")
    verdict = next(p for p in report.properties if p.name == "equivalence-consistency")
    assert verdict.status == "pass"


@pytest.mark.parametrize("suite", PASSING_SUITES + FAILING_SUITES)
def test_group_model_passes_everything(suite):
    report = run_suite("group", suite, FAST, dim=3)
    assert report.passed
    # _record merges a property's blocks by name, so names must be unique.
    names = [p.name for p in report.properties]
    assert len(names) == len(set(names)), names
    if suite == "homogeneity-isotropy":
        skipped = {p.name for p in report.properties if p.status == "skipped"}
        assert "isotropy-fixes-p" in skipped
        note = next(p.note for p in report.properties if p.status == "skipped")
        assert "degenerate" in note


def test_group_discrete_gyronorm_suites():
    for suite in ("gyronorm", "metric", "left-invariance", "klee"):
        report = run_suite("group", suite, FAST, dim=3, gyronorm="discrete")
        assert report.passed, (suite, [p.name for p in report.properties
                                       if p.status == "fail"])


def test_unknown_names_raise_lookup_errors():
    with pytest.raises(UnknownNameError, match="einstein"):
        run_suite("bogus", "axioms", FAST)
    with pytest.raises(UnknownNameError, match="axioms"):
        run_suite("einstein", "nosuch", FAST)
    with pytest.raises(UnknownNameError, match="einstein"):
        run_suite("mobius", "topology", FAST)
    with pytest.raises(UnknownNameError, match="rapidity"):
        run_suite("einstein", "axioms", FAST, gyronorm="poincare")


def test_reports_are_byte_identical():
    a = run_suite("mobius", "gyronorm", FAST, dim=3)
    b = run_suite("mobius", "gyronorm", FAST, dim=3)
    assert a.to_json() == b.to_json()
    c = run_suite("poincare-disk", "klee", FAST, dim=2)
    d = run_suite("poincare-disk", "klee", FAST, dim=2)
    assert c.to_json() == d.to_json()


def test_seed_changes_samples_but_not_shape():
    a = run_suite("einstein", "axioms", CheckConfig(samples=200, seed=1))
    b = run_suite("einstein", "axioms", CheckConfig(samples=200, seed=2))
    assert a.to_json() != b.to_json() or a.seed != b.seed
    assert [p.name for p in a.properties] == [p.name for p in b.properties]


def test_report_schema():
    report = run_suite("einstein", "axioms", CheckConfig(samples=100))
    doc = report.to_dict()
    assert list(doc) == ["suite", "model", "gyronorm", "dim", "seed", "samples",
                         "tolerance", "skipped", "properties"]
    assert doc["tolerance"] == {"abs": 1e-9, "rel": 1e-9}
    prop = doc["properties"][0]
    assert list(prop) == ["name", "status", "checked", "failed", "failures"]


def test_counterexample_replay():
    nm = get_normed("poincare-disk", dim=2)
    report = run_suite("poincare-disk", "klee", CheckConfig(samples=2000), dim=2)
    prop = next(p for p in report.properties
                if p.name == "right-gyrotranslation-inequality")
    assert prop.status == "fail" and prop.failures
    c = prop.failures[0]
    x, y, a = (np.array(c.inputs[k]) for k in ("x", "y", "a"))
    m = nm.model
    lhs = float(nm.distance(m.add(x, a), m.add(y, a)))
    rhs = float(nm.distance(x, y))
    assert lhs == pytest.approx(c.lhs, rel=1e-12)
    assert rhs == pytest.approx(c.rhs, rel=1e-12)
    assert lhs > rhs + 1e-9


# The first witness of a falsified flat check and of a falsified probe check,
# as the recorder wrote them when it broadcast every operand to the check's
# leading axes: reading rows in place must keep every recorded value.
PINNED_WITNESSES = (
    ("klee", {}, "klee-condition", 0, {
        "inputs": {
            "x": [0.47917693245504644, -0.6000314844699023, 0.09816328375672098],
            "y": [-0.8032410699459549, 0.12409575554611835, 0.35185240916012717],
            "a": [-0.7437390387651723, 0.14988385420360228, 0.3268689223784967],
            "b": [-0.4129223286477723, 0.20483056185824322, 0.17035186195441437]},
        "lhs": 3.1014875052281763, "rhs": 3.050959388086507, "diff": 0.05052811714166916}),
    ("table1", {"atol": 1e-15, "rtol": 0.0}, "composition-law", 3488, {
        "inputs": {
            "a": [0.18401186021471433, -0.029363287459200804, 0.7990995498071717],
            "b": [0.4457943702871426, -0.19788106522507432, -0.5698863267743686],
            "x": [-0.7294357441821049, 0.361837379464542, 0.30093005046361]},
        "lhs": [0.09157449107327217, 0.23272825363733263, 0.1502034926593495],
        "rhs": [0.09157449107327183, 0.23272825363733263, 0.15020349265935065],
        "diff": 1.1379786002407855e-15}),
)


@pytest.mark.parametrize("suite,tol,name,index,witness", PINNED_WITNESSES)
def test_recorded_witnesses_keep_their_values(suite, tol, name, index, witness):
    report = run_suite("mobius", suite, CheckConfig(samples=200, seed=3, **tol))
    c = next(p for p in report.properties if p.name == name).failures[0]
    assert c.sample_index == index
    assert c.to_dict() == witness


def test_failure_recording_is_capped():
    report = run_suite("poincare-disk", "klee", CheckConfig(samples=5000), dim=2)
    for prop in report.properties:
        assert len(prop.failures) <= 10
        if prop.name == "right-gyrotranslation-inequality":
            assert prop.failed > 10


def _broken_model(dim=2):
    """Einstein addition with the output clamped; breaks gyroassociativity."""

    def clamped_add(a, b):
        return np.clip(einstein_add(a, b), -0.5, 0.5)

    return GyrogroupModel(
        name="broken",
        dim=dim,
        add=clamped_add,
        neg=np.negative,
        sample=lambda rng, count: sample_ball_points(dim, count, rng),
    )


def test_broken_model_fails_axioms_with_witness(monkeypatch):
    nm = GyronormedModel(_broken_model(), "euclidean", euclidean_norm)
    monkeypatch.setattr("gyroball.engine.get_normed",
                        lambda name, dim=None, gyronorm=None: nm)
    report = run_suite("einstein", "axioms", CheckConfig(samples=500))
    g3 = next(p for p in report.properties if p.name == "G3-left-gyroassociative")
    assert g3.status == "fail"
    assert g3.failures and g3.failures[0].diff > 1e-9
    assert set(g3.failures[0].inputs) == {"a", "b", "c"}


def test_unhealthy_sampling_raises(monkeypatch):
    def nan_add(a, b):
        out = einstein_add(a, b)
        bad = euclidean_norm(np.asarray(a, dtype=float)) > 0.5
        return np.where(np.asarray(bad)[..., None], np.nan, out)

    model = GyrogroupModel(
        name="einstein",
        dim=3,
        add=nan_add,
        neg=np.negative,
        sample=lambda rng, count: sample_ball_points(3, count, rng),
    )
    nm = GyronormedModel(model, "euclidean", euclidean_norm)
    monkeypatch.setattr("gyroball.engine.get_normed",
                        lambda name, dim=3, gyronorm=None: nm)
    with pytest.raises(SamplingHealthError) as exc:
        run_suite("einstein", "metric", CheckConfig(samples=500))
    assert exc.value.report is not None
    assert exc.value.report.skipped > 5


@pytest.mark.parametrize("every,skipped", [(99, 102), (100, 100), (102, 99)])
def test_sampling_health_gate_admits_at_most_one_percent_of_skips(monkeypatch, every, skipped):
    # left-invariance records one row per sample, and a norm that is NaN on
    # every k-th row of each batch skips rows 0, k, 2k, ... of 10000.
    key = ("einstein", "rapidity")
    gyronorm = registry.GYRONORMS[key]

    def holed(v):
        out = gyronorm.norm(v)
        out[::every] = np.nan
        return out

    monkeypatch.setitem(registry.GYRONORMS, key, gyronorm._replace(norm=holed))
    cfg = CheckConfig(samples=10_000)
    if skipped > 100:
        with pytest.raises(SamplingHealthError) as exc:
            run_suite("einstein", "left-invariance", cfg)
        report = exc.value.report
    else:
        report = run_suite("einstein", "left-invariance", cfg)
    assert (report.skipped, report.properties[0].checked) == (skipped, 10_000 - skipped)


@pytest.mark.parametrize("suite", ["gyronorm", "metric"])
def test_nan_gyronorm_fails_the_sampling_health_gate(monkeypatch, suite):
    # Properties whose every row is non-finite are reported as skipped, but
    # only skips declared through skip_property are exempt from the gate.
    model = get_normed("einstein", dim=3).model
    nm = GyronormedModel(model, "rapidity", lambda v: np.full(np.shape(v)[:-1], np.nan))
    monkeypatch.setattr("gyroball.engine.get_normed",
                        lambda name, dim=3, gyronorm=None: nm)
    with pytest.raises(SamplingHealthError) as exc:
        run_suite("einstein", suite, FAST)
    assert exc.value.report.properties
    assert all(p.status == "skipped" and p.checked == 0
               for p in exc.value.report.properties)
    assert cli.main(["check", "--model", "einstein", "--suite", suite,
                     "--samples", "500"]) == 4


def test_table1_skips_the_homomorphism_check_of_a_model_without_one(monkeypatch):
    nm = get_normed("mobius", dim=3)
    nm = dataclasses.replace(nm, model=dataclasses.replace(nm.model, hom=None))
    monkeypatch.setattr("gyroball.engine.get_normed",
                        lambda name, dim=None, gyronorm=None: nm)
    report = run_suite("mobius", "table1", FAST)
    hom = next(p for p in report.properties if p.name == "gyration-preservation-hom")
    assert (hom.status, hom.checked, hom.note) == (
        "skipped", 0, "model registers no reference homomorphism")
    assert report.passed


def test_topology_suite_runs_on_einstein():
    report = run_suite("einstein", "topology", CheckConfig(samples=1000))
    assert report.passed
    names = [p.name for p in report.properties]
    assert "ball-inclusion-eps-0.5" in names
    assert "gyrometric-below-rapidity-eps-1.0" in names


def test_topology_runs_on_every_model_that_registers_both_gyronorms(monkeypatch):
    # The admitted models and the two compared norms come from the registry.
    monkeypatch.setitem(registry.GYRONORMS, ("mobius", "euclidean"),
                        registry.GYRONORMS["einstein", "euclidean"])
    report = run_suite("mobius", "topology", CheckConfig(samples=1000))
    assert report.model == "mobius" and report.passed
    assert [p.name for p in report.properties] == [
        p.name for p in run_suite("einstein", "topology", CheckConfig(samples=1000)).properties]
    with pytest.raises(UnknownNameError,
                       match="^suite 'topology' is defined only for model 'einstein' or 'mobius'$"):
        run_suite("group", "topology", FAST)


@pytest.mark.parametrize("model", ("einstein", "mobius"))
def test_ball_isotropy_is_a_declared_skip_at_dim_1(model):
    # At dim 1 every ball gyration is the identity map, as the registry says.
    report = run_suite(model, "homogeneity-isotropy", FAST, dim=1)
    assert report.passed
    skipped = [(p.name, p.checked, p.skipped) for p in report.properties
               if p.status == "skipped"]
    assert skipped == [(name, 0, FAST.samples) for name in (
        "isotropy-fixes-p", "isotropy-witness-isometry", "isotropy-moves-a-probe")]
    assert all("degenerate" in p.note for p in report.properties if p.status == "skipped")


def test_homogeneity_isotropy_checks_the_core_witnesses(monkeypatch):
    # A witness that skips its L_{neg x} (or its final L_p) step no longer
    # maps x to y (or fixes p), and the suite must say so.
    def failing(report):
        return {p.name for p in report.properties if p.status == "fail"}

    assert failing(run_suite("einstein", "homogeneity-isotropy", FAST)) == set()
    monkeypatch.setattr("gyroball.engine.homogeneity_witness",
                        lambda m, x, y: IsometrySpec((LeftTranslation(y),)))
    monkeypatch.setattr("gyroball.engine.isotropy_spec",
                        lambda m, p, a, b: IsometrySpec((LeftTranslation(m.neg(p)),
                                                         Gyration(a, b))))
    assert failing(run_suite("einstein", "homogeneity-isotropy", FAST)) == {
        "homogeneity-maps-x-to-y", "isotropy-fixes-p"}


# --- the recorder on synthetic rows -----------------------------------------

def _recorded(*checks):
    """Results of ``less_equal(name, lhs, 0)`` for each (name, lhs), then of
    the equivalence verdict on the last two."""
    run = _SuiteRun(get_normed("einstein"), FAST)
    for name, lhs in checks:
        run.less_equal(name, {"x": lhs}, lhs, np.zeros_like(lhs))
    if len(checks) > 1:
        run.equivalence_verdict()
    return run.results


def test_a_single_failing_row_fails_its_property():
    lhs = np.zeros(100)
    lhs[37] = 1e-6
    (res,) = _recorded(("p", lhs))
    assert (res.status, res.checked, res.failed) == ("fail", 100, 1)
    assert [c.sample_index for c in res.failures] == [37]


@pytest.mark.parametrize("first,second", [(0, 0), (0, 3), (2, 0), (1, 4)])
def test_equivalence_consistency_fails_when_one_condition_alone_is_violated(first, second):
    rows = []
    for violations in (first, second):
        lhs = np.zeros(100)
        lhs[:violations] = 1.0
        rows.append(lhs)
    *conditions, verdict = _recorded(("first", rows[0]), ("second", rows[1]))
    assert [c.failed for c in conditions] == [first, second]
    assert verdict.name == "equivalence-consistency"
    assert verdict.status == ("pass" if (first > 0) == (second > 0) else "fail")


# Rows of a synthetic check: (lhs, rhs) per row, and the expected outcome
# per mode: "skip", "fail" or "pass".  Two finite pairs overflow their
# difference: 1e308 - (-1e308) is +inf, which fails both modes, and
# -1e308 - 1e308 is -inf, which fails "eq" and passes "le".
NON_FINITE_ROWS = [
    ((0.0, 0.0), {"eq": "pass", "le": "pass"}),
    ((-1e308, 1e308), {"eq": "fail", "le": "pass"}),
    ((np.nan, 0.0), {"eq": "skip", "le": "skip"}),
    ((1e308, -1e308), {"eq": "fail", "le": "fail"}),
    ((np.inf, 0.0), {"eq": "skip", "le": "skip"}),
    ((1.0, 0.0), {"eq": "fail", "le": "fail"}),
    ((-np.inf, 0.0), {"eq": "skip", "le": "skip"}),
]


def _synthetic_rows(side, block):
    """(lhs, rhs) of NON_FINITE_ROWS, the non-finite value on ``side``.
    As 1-D rows, or as (2, 4, 2) block rows, one row per (block, probe)
    index whose coordinate 1 carries the pair and coordinate 0 agrees; the
    eighth row passes."""
    pairs = [pair if side == "lhs" or np.isfinite(pair[0]) else (pair[1], pair[0])
             for pair, _ in NON_FINITE_ROWS]
    lhs, rhs = (np.array([p[k] for p in pairs]) for k in (0, 1))
    if not block:
        return lhs, rhs
    lhs, rhs = (np.stack([np.full(8, 0.5), np.append(v, 0.0)], axis=-1).reshape(2, 4, 2)
                for v in (lhs, rhs))
    return lhs, rhs


@pytest.mark.parametrize("block", (False, True), ids=("1-D", "block"))
@pytest.mark.parametrize("side", ("lhs", "rhs"))
@pytest.mark.parametrize("mode", ("eq", "le"))
def test_recorder_skips_non_finite_rows_and_checks_overflowed_ones(mode, side, block):
    lhs, rhs = _synthetic_rows(side, block)
    run = _SuiteRun(get_normed("einstein"), FAST)
    record = run.equal if mode == "eq" else run.less_equal
    # Recorded in two parts, as a probe check's blocks are.
    record("p", {"x": lhs[:1]}, lhs[:1], rhs[:1])
    record("p", {"x": lhs[1:]}, lhs[1:], rhs[1:])
    (res,) = run.results
    outcomes = [expected[mode] for _, expected in NON_FINITE_ROWS] + ["pass"] * block
    failing = [i for i, o in enumerate(outcomes) if o == "fail"]
    skipped = outcomes.count("skip")
    assert (res.status, res.checked, res.failed, res.skipped, run.skipped) == (
        "fail", len(outcomes) - skipped, len(failing), skipped, skipped)
    assert [c.sample_index for c in res.failures] == failing
    flat_lhs, flat_rhs = (v.reshape(len(outcomes), -1) for v in (lhs, rhs))
    for c in res.failures:
        i = c.sample_index
        row_lhs, row_rhs = flat_lhs[i].tolist(), flat_rhs[i].tolist()
        if not block:
            row_lhs, row_rhs = row_lhs[0], row_rhs[0]
        assert (c.inputs, c.lhs, c.rhs) == ({"x": row_lhs}, row_lhs, row_rhs)
        # A 1-D row's diff is its difference; a block row's is the largest
        # finite coordinate difference, so an overflowed coordinate gives 0.
        diff = 1.0
        if abs(flat_lhs[i, -1]) == 1e308:
            diff = 0.0 if block else np.inf
        assert c.diff == diff


@pytest.mark.parametrize("side", ("lhs", "rhs"))
@pytest.mark.parametrize("mode", ("eq", "le"))
@pytest.mark.parametrize("operand", ("probe", "pair"))
def test_recorder_skips_the_rows_of_a_broadcast_non_finite_operand(monkeypatch, operand,
                                                                   mode, side):
    # A full (B, P, n) block against a smaller operand: a (1, P, n) one with
    # a NaN at one probe skips that probe's column of rows, a (B, 1, n) one
    # with an inf in one pair skips that pair's P rows.  Every other row
    # differs by 1 and fails, so each is checked.
    monkeypatch.setattr("gyroball.engine.MAX_FAILURES", 100)
    b, p, n = 4, 5, 3
    small = (1, p, n) if operand == "probe" else (b, 1, n)
    base = make_rng(2).integers(-4, 4, small) / 8.0
    full = np.broadcast_to(base, (b, p, n)) + 1.0
    if operand == "probe":
        base[0, 2, 1] = np.nan
    else:
        base[2, 0, 1] = np.inf
    lhs, rhs = (full, base) if side == "lhs" else (base, full)
    run = _SuiteRun(get_normed("einstein"), FAST)
    (run.equal if mode == "eq" else run.less_equal)("p", {}, lhs, rhs)
    (res,) = run.results
    skipped = [i * p + 2 for i in range(b)] if operand == "probe" else list(range(2 * p, 3 * p))
    checked = [k for k in range(b * p) if k not in skipped]
    assert (res.checked, res.skipped, run.skipped) == (len(checked), len(skipped), len(skipped))
    # A less-equal row fails only with lhs above rhs.
    failing = checked if mode == "eq" or side == "lhs" else []
    assert res.failed == len(failing)
    assert [c.sample_index for c in res.failures] == failing
    assert all(c.diff == 1.0 for c in res.failures)


# --- the recorder's fast path: every difference within atol ----------------
#
# A block whose differences all lie in [-atol, atol] ("le": are finite and at
# most atol) is tallied without the per-row rule.  These cases sit at its edge.

def _record_parts(cfg, mode, *parts):
    """One property's result after recording each (lhs, rhs) part in turn."""
    run = _SuiteRun(get_normed("einstein"), cfg)
    for lhs, rhs in parts:
        (run.equal if mode == "eq" else run.less_equal)("p", {"x": lhs}, lhs, rhs)
    (res,) = run.results
    return res, run


@pytest.mark.parametrize("fast_first", (True, False))
@pytest.mark.parametrize("mode", ("eq", "le"))
def test_recorder_counts_a_within_atol_block_recorded_in_two_parts(mode, fast_first):
    # A (4, 5, 3) block within atol/2 of rhs and a (2, 5, 3) block whose row
    # 7 is off by 1: every row is counted and the witness index runs on
    # across the parts.
    atol = FAST.atol
    near = np.full((4, 5, 3), 0.25) + atol / 2 * make_rng(3).choice([-1.0, 1.0], (4, 5, 3))
    far = np.full((2, 5, 3), 0.25)
    far.reshape(-1, 3)[7, 1] += 1.0
    parts = [(near, np.full((1, 1, 3), 0.25)), (far, np.full((2, 5, 3), 0.25))]
    if not fast_first:
        parts.reverse()
    res, run = _record_parts(FAST, mode, *parts)
    assert (res.status, res.checked, res.failed, res.skipped, run.skipped) == (
        "fail", 30, 1, 0, 0)
    assert [c.sample_index for c in res.failures] == [20 * fast_first + 7]
    assert res.failures[0].diff == 1.0


def test_recorder_fails_an_eq_row_at_minus_two_atol():
    # Every other difference is 0, so hi <= atol; lo = -2 atol rules the
    # fast path out for "eq" and the full rule fails the row.  In "le" mode
    # the same block is within the fast path and passes.
    cfg = dataclasses.replace(FAST, atol=1e-9, rtol=0.0)
    lhs = np.zeros((3, 4, 2))
    lhs[1, 2, 0] = -2e-9
    res, _ = _record_parts(cfg, "eq", (lhs, np.zeros((1, 4, 2))))
    assert (res.status, res.checked, res.failed) == ("fail", 12, 1)
    assert [(c.sample_index, c.diff) for c in res.failures] == [(6, 2e-9)]
    res, _ = _record_parts(cfg, "le", (lhs, np.zeros((1, 4, 2))))
    assert (res.status, res.checked, res.failed) == ("pass", 12, 0)


@pytest.mark.parametrize("side", ("lhs", "rhs"))
def test_recorder_skips_the_one_infinite_row_of_a_le_block(side):
    # lhs = -inf or rhs = +inf gives a difference of -inf, which is at most
    # atol: lo is not finite, so the full rule runs and skips exactly that
    # row; every other row passes.
    lhs, rhs = np.zeros((3, 4, 2)), np.full((3, 4, 2), 0.5)
    if side == "lhs":
        lhs[2, 1, 1] = -np.inf
    else:
        rhs[2, 1, 1] = np.inf
    res, run = _record_parts(FAST, "le", (lhs, rhs))
    assert (res.status, res.checked, res.failed, res.skipped, run.skipped) == (
        "pass", 11, 0, 1, 1)


@pytest.mark.parametrize("mode", ("eq", "le"))
def test_recorder_passes_rows_beyond_atol_within_rtol_scale(mode):
    # Differences of 1e-10 at scale 1 exceed atol 1e-12, so the fast path
    # does not apply, but are within atol + rtol * 1 and pass by the full
    # rule; with rtol 0 the same rows fail.
    lhs = 1.0 + 1e-10 * np.arange(1, 6)
    rhs = np.ones(5)
    cfg = dataclasses.replace(FAST, atol=1e-12, rtol=1e-9)
    res, _ = _record_parts(cfg, mode, (lhs, rhs))
    assert (res.status, res.checked, res.failed) == ("pass", 5, 0)
    res, _ = _record_parts(dataclasses.replace(cfg, rtol=0.0), mode, (lhs, rhs))
    assert (res.status, res.checked, res.failed) == ("fail", 5, 5)


@pytest.mark.parametrize("mode", ("eq", "le"))
def test_recorder_with_atol_zero(mode):
    # With atol 0 only exact equality, and for "le" any finite lhs at or
    # below rhs, takes the fast path; a difference of one ulp needs rtol.
    cfg = dataclasses.replace(FAST, atol=0.0, rtol=0.0)
    rhs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    res, _ = _record_parts(cfg, mode, (rhs.copy(), rhs))
    assert (res.status, res.checked, res.failed) == ("pass", 3, 0)
    below = np.nextafter(rhs, -np.inf)
    res, _ = _record_parts(cfg, mode, (below, rhs))
    assert (res.status, res.checked, res.failed) == (
        ("fail", 3, 3) if mode == "eq" else ("pass", 3, 0))
    above = np.nextafter(rhs, np.inf)
    res, _ = _record_parts(cfg, mode, (above, rhs))
    assert (res.status, res.checked, res.failed) == ("fail", 3, 3)
    res, _ = _record_parts(dataclasses.replace(cfg, rtol=1e-15), mode, (above, rhs))
    assert (res.status, res.checked, res.failed) == ("pass", 3, 0)


def _oracle_row(lhs, rhs, mode, cfg, by_row):
    """Outcome of one row by the recorder's rule, coordinate by coordinate
    in Python floats: ("skip", None) or ("pass" | "fail", diff).  A 1-D
    row's diff is its difference, a block row's the largest finite one."""
    if not all(math.isfinite(v) for v in (*lhs, *rhs)):
        return "skip", None
    errs, ok = [], True
    for x, y in zip(lhs, rhs):
        err = x - y
        if mode == "eq":
            err, scale = abs(err), max(abs(x), abs(y))
        else:
            scale = abs(y)
        ok = ok and err <= scale * cfg.rtol + cfg.atol
        errs.append(err)
    diff = max(e if math.isfinite(e) else 0.0 for e in errs) if by_row else errs[0]
    return ("pass" if ok else "fail"), diff


@st.composite
def _recorder_checks(draw):
    """(cfg, mode, by_row, lhs, rhs, split): a 1-D or broadcast (B, P, n)
    check with values at the fast path's edges, recorded in two parts split
    at ``split`` along axis 0; either part may hold no row."""
    atol = draw(st.sampled_from((1e-9, 2.0 ** -30, 0.0)))
    cfg = dataclasses.replace(FAST, atol=atol, rtol=draw(st.sampled_from((0.0, 1e-9))))
    values = st.sampled_from([0.0, atol / 2, -atol / 2, atol, -atol, 2 * atol, -2 * atol,
                              1 + 1e-10, 1 - 1e-10, 1e308, -1e308, np.inf, -np.inf,
                              np.nan])
    # Mostly zeros, so that many checks lie within atol.
    elements = st.one_of(st.just(0.0), st.just(0.0), values)
    if draw(st.booleans()):
        n_rows = draw(st.integers(1, 12))
        shapes = [(n_rows,), (n_rows,)]
        by_row, lead = False, n_rows
    else:
        b, p, n = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
        options = [(b, p, n), (1, p, n), (b, 1, n)]
        shapes = [(b, p, n), draw(st.sampled_from(options))]
        if draw(st.booleans()):
            shapes.reverse()
        by_row, lead = True, b
    lhs, rhs = (draw(hnp.arrays(float, shape, elements=elements)) for shape in shapes)
    mode = draw(st.sampled_from(("eq", "le")))
    return cfg, mode, by_row, lhs, rhs, draw(st.integers(0, lead))


@settings(max_examples=400, deadline=None, database=None)
@given(_recorder_checks())
def test_recorder_matches_a_per_row_oracle(check):
    cfg, mode, by_row, lhs, rhs, split = check
    b = max(lhs.shape[0], rhs.shape[0])

    def part(v, sl):
        return v[sl] if v.shape[0] == b else v

    parts = (slice(None, split), slice(split, None))
    with np.errstate(all="raise"):
        res, run = _record_parts(cfg, mode, *[(part(lhs, sl), part(rhs, sl)) for sl in parts])
    full_lhs, full_rhs = np.broadcast_arrays(lhs, rhs)
    width = full_lhs.shape[-1] if by_row else 1
    rows = [_oracle_row(x, y, mode, cfg, by_row)
            for x, y in zip(*(v.reshape(-1, width).tolist() for v in (full_lhs, full_rhs)))]
    failing = [(i, diff) for i, (outcome, diff) in enumerate(rows) if outcome == "fail"]
    skipped = sum(outcome == "skip" for outcome, _ in rows)
    assert (res.checked, res.failed, res.skipped, run.skipped) == (
        len(rows) - skipped, len(failing), skipped, skipped)
    assert [(c.sample_index, c.diff) for c in res.failures] == failing[:len(res.failures)]
    assert len(res.failures) == min(len(failing), MAX_FAILURES)


# --- probe checks: broadcast (N, 1, n) x (1, P, n) rows ----------------------

BROADCAST_MODELS = (("einstein", 1), ("einstein", 3), ("einstein", 5),
                    ("mobius", 3), ("mobius", 5), ("mobius", 7), ("einstein", 8),
                    ("mobius", 16), ("poincare-disk", 2), ("group", 3))


@pytest.mark.parametrize("model,dim", BROADCAST_MODELS)
def test_kernels_are_bitwise_equal_under_broadcasting(model, dim):
    # The probe checks rely on this: (a, b) rows of shape (N, 1, n) against
    # probes of shape (1, P, n) give the same bits as materialised rows, and
    # a block of rows a[i:j] gives the same bits as rows i..j of the whole.
    m = get_normed(model, dim=dim).model
    rng = make_rng(5)
    a, b, probes = m.sample(rng, 40), m.sample(rng, 40), m.sample(rng, 7)
    n, p = len(a), len(probes)
    flat = (np.repeat(a, p, axis=0), np.repeat(b, p, axis=0), np.tile(probes, (n, 1)))
    wide = (a[:, None], b[:, None], probes[None])
    kernels = {
        "add": lambda a, b, x: m.add(a, x),
        "add-pair": lambda a, b, x: m.add(m.add(a, b), x),
        "neg": lambda a, b, x: m.add(m.neg(a), m.neg(x)),
        "gyr": lambda a, b, x: m.gyr(a, b, x),
        "gyr-of-sum": lambda a, b, x: m.gyr(m.add(a, b), b, x),
        "gyr-of-negs": lambda a, b, x: m.gyr(m.neg(a), m.neg(b), x),
        # A full (N, P, n) w against (N, 1, n) pairs, as in inversive-symmetry.
        "gyr-of-gyr": lambda a, b, x: m.gyr(b, a, m.gyr(a, b, x)),
        "gyr-identity": lambda a, b, x: gyr_via_gyrator_identity(m, a, b, x),
    }
    for name, f in kernels.items():
        whole = np.broadcast_to(f(*wide), (n, p, dim))
        assert np.array_equal(whole.reshape(n * p, dim), f(*flat)), name
        for i, j in ((0, 1), (1, 17), (17, n)):
            part = f(a[i:j, None], b[i:j, None], probes[None])
            assert np.array_equal(np.broadcast_to(part, (j - i, p, dim)), whole[i:j]), (name, i, j)


@pytest.mark.parametrize("model,dim", [(m, d) for m in registry.MODEL_NAMES
                                       for d in ((2,) if m in registry.COMPLEX_MODELS
                                                 else (1, 2, 3, 7, 8, 16))])
def test_gyration_rows_keep_their_bits_when_probes_are_rolled_or_sliced(model, dim):
    # The row contract that the axioms suite relies on when it rolls
    # gyr[a, b]x into gyr[a, b]y, and that the isotropy scan relies on when
    # it gyrates probe 0 alone and then the other probes of some pairs.
    m = get_normed(model, dim=dim).model
    rng = make_rng(17)
    aP, bP = m.sample(rng, 50)[:, None], m.sample(rng, 50)[:, None]
    xP = m.sample(rng, 9)[None]
    full = m.gyr(aP, bP, xP)
    assert full.shape == (50, 9, dim)
    rolled = m.gyr(aP, bP, np.roll(xP, 1, axis=1))
    assert np.array_equal(rolled, np.roll(full, 1, axis=1))
    assert np.array_equal(m.gyr(aP, bP, xP[:, :1]), full[:, :1])
    k = make_rng(18).random(50) < 0.3
    assert np.array_equal(m.gyr(aP[k], bP[k], xP[:, 1:]), full[k][:, 1:])


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("model,dim", [(m, d) for m in registry.MODEL_NAMES
                                       for d in ((2,) if m in registry.COMPLEX_MODELS
                                                 else (1, 2, 3, 7, 8, 16))])
def test_stacked_vectors_keep_the_bits_of_their_own_calls(model, dim):
    # The row contract that table1 and homogeneity-isotropy rely on when
    # they stack the vectors that one gyrator turns: w may have more leading
    # axes than a and b, and each slice has the bits of a call of its own.
    m = get_normed(model, dim=dim).model
    rng = make_rng(19)
    a, b, c, d, p, u, v = (m.sample(rng, 60) for _ in range(7))
    stacked = m.gyr(a, b, np.stack([c, d]))
    for k, w in enumerate((c, d)):
        _assert_same_bits(stacked[k], m.gyr(a, b, w))
    spec = isotropy_spec(m, p, a, b)
    stacked = apply_isometry(m, spec, np.stack([p, u, v]))
    for k, w in enumerate((p, u, v)):
        _assert_same_bits(stacked[k], apply_isometry(m, spec, w))


@pytest.mark.parametrize("model,dim", [*((m, d) for m in ("einstein", "mobius")
                                         for d in (2, 3, 5, 16)), ("poincare-disk", 2)])
@pytest.mark.parametrize("suite", ("table1", "homogeneity-isotropy"))
def test_a_shared_gyration_moves_no_report_byte(monkeypatch, suite, model, dim):
    # The suites turn several vectors by one gyration, stacked on a new
    # leading axis.  A gyration that turns each slice in a call of its own
    # must give the same reports, also at a tolerance that fails rows and
    # records their values.
    configs = (CheckConfig(samples=500), CheckConfig(samples=500, atol=1e-17, rtol=0.0))
    want = [run_suite(model, suite, cfg, dim=dim).to_json() for cfg in configs]
    nm = get_normed(model, dim=dim)
    m = nm.model
    splits = []

    def gyr(a, b, w):
        w = np.asarray(w, dtype=float)
        if w.ndim > max(np.ndim(a), np.ndim(b)):
            splits.append(len(w))
            return np.stack([gyr(a, b, x) for x in w])
        return m.closed_gyr(a, b, w)

    nm = dataclasses.replace(nm, model=dataclasses.replace(m, closed_gyr=gyr))
    monkeypatch.setattr("gyroball.engine.get_normed",
                        lambda name, dim=None, gyronorm=None: nm)
    assert [run_suite(model, suite, cfg, dim=dim).to_json() for cfg in configs] == want
    assert splits


def _isotropy_row_moved(monkeypatch, fixed):
    """The isotropy-moves-a-probe result of mobius at dim 3 when its
    gyrations leave the probes that ``fixed(probe_index)`` names in place and
    move the others, and the per-pair result of a scan of every probe."""
    cfg = CheckConfig(samples=300, seed=5)
    nm = get_normed("mobius", dim=3)
    m = nm.model
    # The suite draws x, y, u, v, a, b and p, then the probes.
    rng = make_rng(cfg.seed)
    _, _, _, _, a, b, _ = (m.sample(rng, cfg.samples) for _ in range(7))
    probes = m.sample(rng, cfg.probes)
    kept = probes[[j for j in range(cfg.probes) if fixed(j)]]

    def gyr(a, b, x):
        x = np.asarray(x, dtype=float)
        keep = (x[..., None, :] == kept).all(axis=-1).any(axis=-1)[..., None]
        return np.where(keep, x, m.closed_gyr(a, b, x))

    nm = dataclasses.replace(nm, model=dataclasses.replace(m, closed_gyr=gyr))
    monkeypatch.setattr("gyroball.engine.get_normed",
                        lambda name, dim=None, gyronorm=None: nm)
    report = run_suite("mobius", "homogeneity-isotropy", cfg)
    prop = next(p for p in report.properties if p.name == "isotropy-moves-a-probe")
    moved = gyr(a[:, None], b[:, None], probes[None]) != probes[None]
    return prop, moved.any(axis=-1).any(axis=-1)


def test_isotropy_scan_finds_a_later_probe_when_probe_0_is_fixed(monkeypatch):
    prop, full_scan = _isotropy_row_moved(monkeypatch, lambda j: j == 0)
    assert full_scan.all()
    assert (prop.status, prop.checked, prop.failed) == ("pass", 300, 0)


def test_isotropy_scan_fails_gyrations_that_fix_every_probe(monkeypatch):
    prop, full_scan = _isotropy_row_moved(monkeypatch, lambda j: True)
    assert not full_scan.any()
    assert (prop.status, prop.checked, prop.failed) == ("fail", 300, 300)
    assert {c.lhs for c in prop.failures} == {0.0}


PROBE_PROPERTIES = {
    "axioms": ("G4-left-loop", "gyr-automorphism"),
    "table1": ("even-property", "inversive-symmetry", "composition-law"),
}


@pytest.mark.parametrize("model,dim", (("einstein", 3), ("mobius", 3), ("poincare-disk", 2)))
@pytest.mark.parametrize("suite", ("axioms", "table1"))
def test_probe_witnesses_index_pairs_and_probes(model, dim, suite):
    cfg = CheckConfig(samples=300, seed=11, atol=1e-17, rtol=0.0)
    report = run_suite(model, suite, cfg, dim=dim)
    # At this tolerance rounding fails probe rows; each witness must name the
    # inputs of row i * P + j: (a[i], b[i], probes[j]), as both suites draw
    # a, b, c and then the probes from the seed's stream.
    m = get_normed(model, dim=dim).model
    rng = make_rng(cfg.seed)
    a, b, _ = (m.sample(rng, cfg.samples) for _ in range(3))
    probes = m.sample(rng, cfg.probes)
    expected_inputs = {
        "a": lambda i: a[i // cfg.probes],
        "b": lambda i: b[i // cfg.probes],
        "x": lambda i: probes[i % cfg.probes],
        "y": lambda i: np.roll(probes, 1, axis=0)[i % cfg.probes],
    }
    probe_props = [p for p in report.properties if p.name in PROBE_PROPERTIES[suite]]
    assert len(probe_props) == len(PROBE_PROPERTIES[suite])
    assert any(p.failures for p in probe_props)
    for prop in probe_props:
        assert prop.checked == cfg.samples * cfg.probes
        for c in prop.failures:
            assert 0 <= c.sample_index < cfg.samples * cfg.probes
            for key, value in c.inputs.items():
                assert value == expected_inputs[key](c.sample_index).tolist(), (prop.name, key)


# --- probe checks run in blocks of pairs -------------------------------------

def _witness_rows(report):
    return [(p.name, [c.sample_index for c in p.failures]) for p in report.properties]


@pytest.mark.parametrize("pairs", (1, 7))
@pytest.mark.parametrize("model,dim", (("einstein", 3), ("mobius", 5), ("mobius", 16),
                                       ("poincare-disk", 2), ("group", 3)))
@pytest.mark.parametrize("suite", ("axioms", "table1", "homogeneity-isotropy"))
def test_blocked_probe_checks_match_one_block(monkeypatch, suite, model, dim, pairs):
    # At this tolerance rounding fails probe rows.  With two probes per pair
    # and three witnesses per property, blocks of one pair put witnesses, and
    # the cutoff after the third, into different blocks; blocks of seven
    # leave a short last block.
    monkeypatch.setattr("gyroball.engine.MAX_FAILURES", 3)
    monkeypatch.setattr(CheckConfig, "probes", 2)
    cfg = CheckConfig(samples=40, seed=3, atol=1e-17, rtol=0.0)
    whole = run_suite(model, suite, cfg, dim=dim)
    monkeypatch.setattr("gyroball.engine.BLOCK_ELEMENTS", pairs * cfg.probes * dim)
    blocked = run_suite(model, suite, cfg, dim=dim)
    assert blocked.to_json() == whole.to_json()
    assert _witness_rows(blocked) == _witness_rows(whole)
    if pairs == 1 and model != "group" and suite in PROBE_PROPERTIES:
        rows = [i for name, idx in _witness_rows(whole)
                if name in PROBE_PROPERTIES[suite] for i in idx]
        assert any(i >= pairs * cfg.probes for i in rows), rows


@pytest.mark.parametrize("model,suite,dim", [
    *((m, s, d) for m in ("einstein", "mobius") for s in ("axioms", "table1", "homogeneity-isotropy")
      for d in (2, 3, 7, 8)),
    ("poincare-disk", "table1", 2)])
def test_report_bytes_do_not_depend_on_sample_layout(monkeypatch, model, suite, dim):
    # Below SHORT_AXIS (8) samples come back coordinate-major, and every
    # kernel does the same elementwise operations on any strides, so
    # C-ordered samples give the same reports, also at a tolerance that
    # fails rows and records their values.
    configs = (CheckConfig(samples=500), CheckConfig(samples=500, atol=1e-17, rtol=0.0))
    want = [run_suite(model, suite, cfg, dim=dim).to_json() for cfg in configs]
    sample = registry.sample_ball_points
    monkeypatch.setattr(registry, "sample_ball_points",
                        lambda *args, **kwargs: np.ascontiguousarray(sample(*args, **kwargs)))
    assert registry.get_model(model, dim=dim).sample(make_rng(0), 5).flags.c_contiguous
    assert [run_suite(model, suite, cfg, dim=dim).to_json() for cfg in configs] == want


def _rim_points(n, count, rng):
    """Points whose distance 1 - |z| to the rim is log-uniform in
    [1e-3, 1e-1], in uniformly random directions (normalized Gaussian
    deviates)."""
    z = rng.standard_normal((count, n))
    z /= euclidean_norm(z)[:, None]
    z *= 1.0 - 10.0 ** rng.uniform(-3.0, -1.0, (count, 1))
    return z


@pytest.mark.parametrize("model,dim", [*((m, d) for m in ("mobius", "einstein")
                                         for d in (2, 3, 5, 16)), ("poincare-disk", 2)])
def test_suites_pass_on_the_rim_stratum(monkeypatch, model, dim):
    # Samples 1e-3 to 1e-1 from the rim, where 1 - |u|^2 is small and a
    # denominator that cancels terms of size 1 loses its digits, so a kernel
    # wrong only near the rim fails here.  The tolerance is 1e-6, as one ulp
    # of a coordinate is worth up to eps / (1 - |z|) of rapidity there.
    monkeypatch.setattr(registry, "sample_ball_points", _rim_points)
    cfg = CheckConfig(samples=2000, seed=7, atol=1e-6, rtol=1e-6)
    failed = {}
    for suite in ("axioms", "table1", "gyronorm", "left-invariance", "isometry",
                  "homogeneity-isotropy"):
        names = [p.name for p in run_suite(model, suite, cfg, dim=dim).properties
                 if p.status == "fail"]
        if names:
            failed[suite] = names
    assert not failed, failed


@pytest.mark.parametrize("model,dim", (("einstein", 1), ("poincare-disk", 2), ("mobius", 2),
                                       ("einstein", 3), ("mobius", 7), ("mobius", 8),
                                       ("mobius", 16), ("einstein", 64)))
def test_probe_blocks_hold_at_most_block_elements(model, dim):
    # One cap at every dim: a block holds as many pairs as fit in
    # BLOCK_ELEMENTS elements of pair x probe x coordinate, 256 KiB of float64.
    cfg = CheckConfig(samples=3000)
    p = cfg.probes
    a = np.zeros((cfg.samples, dim))
    run = _SuiteRun(get_normed(model, dim=dim), cfg)
    pairs = [aP.shape[0] for aP, _, _ in run.probe_blocks(a, a)]
    assert sum(pairs) == cfg.samples
    assert pairs[0] == max(1, BLOCK_ELEMENTS // (p * dim))
    assert len(set(pairs[:-1])) == 1 and pairs[-1] <= pairs[0]
    assert BLOCK_ELEMENTS * np.dtype(np.float64).itemsize <= 256 * 2**10


def test_probe_check_memory_stays_bounded():
    # Probe checks materialise (block, P, n) arrays of at most 256 KiB, not
    # (N, P, n) ones: at dim 64 the latter are 31.25 MiB each and the suite
    # peaked at 194 MiB; with blocks it peaks at about 9 MiB.
    tracemalloc.start()
    try:
        report = run_suite("mobius", "axioms", CheckConfig(samples=2000), dim=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 * 2**20, peak / 2**20
