"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion, visible in the
normal pytest output, and fails loudly with details when the bar is missed.
"""

import json
import math
import time

import numpy as np
import pytest

from gyroball import (
    CheckConfig,
    DegeneracyError,
    apply_isometry,
    cmobius_add,
    einstein_add,
    euclidean_norm,
    get_normed,
    gyrometric_de,
    gyronorm_M,
    isotropy_witness,
    make_rng,
    mazur_ulam_decompose,
    mobius_add,
    phi,
    phi_inv,
    poincare_metric,
    rapidity_metric_dE,
    rapidity_metric_dM,
    run_suite,
    sample_ball_points,
)
from gyroball.cli import main
from gyroball.engine import random_isometry_spec

FULL = CheckConfig(samples=10_000, seed=42, atol=1e-9, rtol=1e-9)

TIME_BUDGET = 10.0  # seconds per suite run


def _verdict(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"{label}: {detail}"


def _failed_names(report):
    return [p.name for p in report.properties if p.status == "fail"]


def test_criterion_01_axiom_suites(capsys):
    bad = []
    targets = [("einstein", d) for d in range(1, 6)]
    targets += [("mobius", d) for d in range(1, 6)]
    targets += [("poincare-disk", 2)]
    for model, dim in targets:
        start = time.perf_counter()
        report = run_suite(model, "axioms", FULL, dim=dim)
        elapsed = time.perf_counter() - start
        if not report.passed or elapsed >= TIME_BUDGET:
            bad.append((model, dim, _failed_names(report), elapsed))
    _verdict(capsys, "criterion 1: axiom suites pass for both ball models in "
                     "dims 1-5 and the disk, 10k samples, each under 10 s",
             not bad, str(bad))


def test_criterion_02_identity_table(capsys):
    bad = []
    for model, dim in (("einstein", 3), ("mobius", 3), ("poincare-disk", 2),
                       ("group", 3)):
        report = run_suite(model, "table1", FULL, dim=dim)
        hom = next(p for p in report.properties
                   if p.name == "gyration-preservation-hom")
        if not report.passed or hom.status != "pass" or hom.checked != FULL.samples:
            bad.append((model, _failed_names(report), hom.status))
    _verdict(capsys, "criterion 2: all nine table identities, including "
                     "homomorphism gyration preservation on 10k triples, pass "
                     "on every model",
             not bad, str(bad))


def test_criterion_03_gyronorm_suites(capsys):
    bad = []
    for model, dim, norm in (("einstein", 3, "rapidity"),
                             ("einstein", 3, "euclidean"),
                             ("mobius", 3, "rapidity"),
                             ("poincare-disk", 2, "poincare"),
                             ("group", 3, "euclidean"),
                             ("group", 3, "discrete")):
        report = run_suite(model, "gyronorm", FULL, dim=dim, gyronorm=norm)
        if not report.passed:
            bad.append((model, norm, _failed_names(report)))
    _verdict(capsys, "criterion 3: every registered gyronorm passes the "
                     "four-axiom gyronorm suite",
             not bad, str(bad))


def test_criterion_04_metric_and_left_invariance(capsys):
    bad = []
    for model, dim, norm in (("einstein", 3, "rapidity"),
                             ("einstein", 3, "euclidean"),
                             ("mobius", 3, "rapidity"),
                             ("poincare-disk", 2, "poincare")):
        for suite in ("metric", "left-invariance"):
            report = run_suite(model, suite, FULL, dim=dim, gyronorm=norm)
            if not report.passed:
                bad.append((model, norm, suite, _failed_names(report)))
    _verdict(capsys, "criterion 4: all four induced metrics satisfy the metric "
                     "axioms and left-translation invariance on 10k triples",
             not bad, str(bad))


def test_criterion_05_exact_fixtures(capsys):
    e_sum = einstein_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    m_sum = mobius_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    e_neg = einstein_add(np.array([-0.5, 0.0]), np.array([-0.5, 0.0]))
    m_neg = mobius_add(np.array([-0.5, 0.0]), np.array([-0.5, 0.0]))
    dP = poincare_metric(np.zeros(2), np.array([0.5, 0.0]))
    ph = phi(np.array([0.5, 0.0]))
    v = sample_ball_points(3, 1000, make_rng(8))
    ok = (abs(e_sum[0] - 0.8) <= 1e-15 and abs(m_sum[0] - 0.8) <= 1e-15
          and abs(e_neg[0] + 0.8) <= 1e-15 and abs(m_neg[0] + 0.8) <= 1e-15
          and abs(dP - 2 * math.atanh(0.5)) <= 1e-12
          and np.max(np.abs(ph - [0.8, 0.0])) <= 1e-12
          and np.max(np.abs(phi_inv(phi(v)) - v)) <= 1e-12)
    _verdict(capsys, "criterion 5: collinear sums, disk distance, and the "
                     "model conversion map match their analytic values exactly",
             ok)


def test_criterion_06_closed_form_identities(capsys):
    v = sample_ball_points(3, 10_000, make_rng(9))
    # gyronorm_M is atanh|v|; the paper defines it as the pull-back through
    # phi of half the Einstein rapidity, so compare with that too.
    norm_err = max(np.max(np.abs(gyronorm_M(v) - np.arctanh(euclidean_norm(v)))),
                   np.max(np.abs(gyronorm_M(v) - 0.5 * np.arctanh(euclidean_norm(phi(v))))))
    u2 = sample_ball_points(2, 10_000, make_rng(10))
    w2 = sample_ball_points(2, 10_000, make_rng(11))
    cross_err = np.max(np.abs(poincare_metric(u2, w2)
                              - 2 * rapidity_metric_dM(u2, w2)))
    ok = norm_err <= 1e-12 and cross_err <= 1e-10
    _verdict(capsys, "criterion 6: the disk-model gyronorm closed form holds "
                     "to 1e-12 and the disk metric is twice the vector-model "
                     "metric to 1e-10 on 10k samples",
             ok, f"norm_err={norm_err:.3g} cross_err={cross_err:.3g}")


def test_criterion_07_metric_ordering_and_topology(capsys):
    u = sample_ball_points(3, 10_000, make_rng(12))
    w = sample_ball_points(3, 10_000, make_rng(13))
    violations = int(np.count_nonzero(gyrometric_de(u, w) > rapidity_metric_dE(u, w)))
    # The topology suite's matched ball inclusions, with no tolerance.
    cfg = CheckConfig(samples=10_000, seed=12, atol=0.0, rtol=0.0)
    topo = run_suite("einstein", "topology", cfg, dim=3)
    topo_ok = topo.passed and all(p.checked == cfg.samples for p in topo.properties)
    ok = violations == 0 and topo_ok
    _verdict(capsys, "criterion 7: the Euclidean gyrometric never exceeds the "
                     "rapidity metric (0 violations in 10k) and the matched "
                     "ball inclusions hold for eps in {0.1, 0.5, 1.0}",
             ok, f"violations={violations} topo_ok={topo_ok}")


def test_criterion_08_falsification_with_witness(capsys):
    report = run_suite("poincare-disk", "klee", FULL, dim=2)
    right = next(p for p in report.properties
                 if p.name == "right-gyrotranslation-inequality")
    klee = next(p for p in report.properties if p.name == "klee-condition")
    suite_ok = (right.status == "fail" and right.failures
                and klee.status == "fail" and klee.failures)

    # directed witness x = 0, y = 0.5, a = 0.5i against a hand-derived oracle:
    # the translated distance is 2 atanh of r(1+s^2)/sqrt((1-s^2)^2 + 4r^2s^2)
    r, s = 0.5, 0.5
    oracle = 2 * math.atanh(r * (1 + s * s)
                            / math.sqrt((1 - s * s) ** 2 + 4 * r * r * s * s))
    x, y, a = np.zeros(2), np.array([r, 0.0]), np.array([0.0, s])
    measured = poincare_metric(cmobius_add(x, a), cmobius_add(y, a))
    witness_ok = (abs(measured - oracle) <= 1e-4
                  and measured > poincare_metric(x, y))

    group_report = run_suite("group", "klee", FULL, dim=3)
    group_ok = group_report.passed and all(
        p.failed == 0 for p in group_report.properties)

    ok = suite_ok and witness_ok and group_ok
    _verdict(capsys, "criterion 8: the disk falsifies the right-translation "
                     "and two-sided inequalities with recorded witnesses, the "
                     "directed witness matches an independent oracle to 1e-4, "
                     "and the plain group passes both exactly",
             ok, f"suite_ok={suite_ok} witness_ok={witness_ok} group_ok={group_ok}")


def test_criterion_09_isometry_decomposition(capsys):
    nm = get_normed("einstein", dim=2)
    m, d = nm.model, nm.distance
    rng = make_rng(16)
    worst_fix = 0.0
    worst_dev = 0.0
    for _ in range(100):
        f = random_isometry_spec(m, rng)
        t, rho = mazur_ulam_decompose(nm, f)
        worst_fix = max(worst_fix,
                        float(euclidean_norm(apply_isometry(m, rho, m.identity))))
        x = m.sample(rng, 1000)
        y = m.sample(rng, 1000)
        dev = np.max(np.abs(d(apply_isometry(m, rho, x),
                              apply_isometry(m, rho, y)) - d(x, y)))
        worst_dev = max(worst_dev, float(dev))
    ok = worst_fix <= 1e-9 and worst_dev <= 1e-8
    _verdict(capsys, "criterion 9: 100 random isometry compositions decompose "
                     "into a translation and an identity-fixing isometry "
                     "within tolerance",
             ok, f"worst_fix={worst_fix:.3g} worst_dev={worst_dev:.3g}")


def test_criterion_10_homogeneity_and_isotropy(capsys):
    bad = []
    for model, dim in (("einstein", 3), ("mobius", 3), ("poincare-disk", 2)):
        nm = get_normed(model, dim=dim)
        m, d = nm.model, nm.distance
        rng = make_rng(17)
        x, y = m.sample(rng, 1000), m.sample(rng, 1000)
        mapped = m.add(y, m.add(m.neg(x), x))
        if np.max(euclidean_norm(mapped - y)) > 1e-9:
            bad.append((model, "homogeneity-map"))
        u, v = m.sample(rng, 1000), m.sample(rng, 1000)
        Tu = m.add(y, m.add(m.neg(x), u))
        Tv = m.add(y, m.add(m.neg(x), v))
        if np.max(np.abs(d(Tu, Tv) - d(u, v))) > 1e-8:
            bad.append((model, "homogeneity-isometry"))
        for _ in range(100):
            pts = m.sample(rng, 3)
            w = isotropy_witness(m, pts[0], pts[1], pts[2])
            if euclidean_norm(apply_isometry(m, w, pts[0]) - pts[0]) > 1e-9:
                bad.append((model, "isotropy-fix"))
                break

    group = get_normed("group", dim=3)
    with pytest.raises(DegeneracyError):
        isotropy_witness(group.model, np.zeros(3), np.array([0.1, 0, 0]),
                         np.array([0, 0.1, 0]))
    group_report = run_suite("group", "homogeneity-isotropy", FULL, dim=3)
    skipped = {p.name for p in group_report.properties if p.status == "skipped"}
    if not group_report.passed or "isotropy-fixes-p" not in skipped:
        bad.append(("group", "degeneracy-skip"))

    _verdict(capsys, "criterion 10: homogeneity witnesses map and preserve "
                     "distance, isotropy witnesses fix their point on every "
                     "continuous model, and the plain group skips isotropy "
                     "with a degeneracy notice",
             not bad, str(bad))


def test_criterion_11_deterministic_reports(capsys):
    outputs = []
    for _ in range(2):
        code = main(["check", "--model", "einstein", "--suite", "gyronorm",
                     "--samples", "2000", "--seed", "42"])
        captured = capsys.readouterr()
        outputs.append((code, captured.out))
    codes_ok = outputs[0][0] == outputs[1][0] == 0
    bytes_ok = outputs[0][1] == outputs[1][1]
    json.loads(outputs[0][1])

    fail_outputs = []
    for _ in range(2):
        main(["check", "--model", "poincare-disk", "--suite", "klee",
              "--samples", "2000", "--seed", "7"])
        fail_outputs.append(capsys.readouterr().out)
    ok = codes_ok and bytes_ok and fail_outputs[0] == fail_outputs[1]
    _verdict(capsys, "criterion 11: repeated check invocations with identical "
                     "flags emit byte-identical structured reports",
             ok)
