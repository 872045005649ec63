import dataclasses
import tracemalloc

import numpy as np
import pytest

from gyroball import (
    CheckConfig,
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
from gyroball import cli
from gyroball.core import gyr_via_gyrator_identity
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
    from gyroball import registry
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


def test_probe_check_memory_stays_bounded():
    # Probe checks materialise (block, P, n) arrays of at most 2 MiB, not
    # (N, P, n) ones: at dim 64 the latter are 31.25 MiB each and the suite
    # peaked at 194 MiB; with blocks it peaks at about 17 MiB.
    tracemalloc.start()
    try:
        report = run_suite("mobius", "axioms", CheckConfig(samples=2000), dim=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 * 2**20, peak / 2**20
