import math

import numpy as np
import pytest

import mp_oracle
from gyroball import (
    BoundaryError,
    CheckConfig,
    einstein_add,
    euclidean_norm,
    get_model,
    get_normed,
    gyrometric_de,
    gyronorm_E,
    make_rng,
    phi_inv,
    rapidity_metric_dE,
    run_suite,
    sample_ball_points,
)


def scalar_einstein_add(r, s):
    """Independent oracle: Einstein addition on the interval (-1, 1)."""
    return (r + s) / (1.0 + r * s)


def test_zero_is_identity():
    v = np.array([0.3, -0.2, 0.1])
    assert np.allclose(einstein_add(np.zeros(3), v), v, atol=1e-15)
    assert np.allclose(einstein_add(v, -v), 0.0, atol=1e-15)


def test_collinear_addition_is_scalar_addition():
    out = einstein_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    assert out[0] == pytest.approx(0.8, abs=1e-15)
    assert out[1] == 0.0


def test_orthogonal_addition():
    # direct substitution: <u,v> = 0, so u + v/gamma_u
    out = einstein_add(np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    gamma = 1 / math.sqrt(0.75)
    assert np.allclose(out, [0.5, 0.5 / gamma], atol=1e-15)
    assert out[1] == pytest.approx(0.43301270189221924)


def test_collinear_restriction_property():
    rng = make_rng(21)
    direction = np.array([3.0, 4.0]) / 5.0
    for _ in range(200):
        r, s = rng.uniform(-0.9, 0.9, 2)
        expected = scalar_einstein_add(r, s) * direction
        assert np.allclose(einstein_add(r * direction, s * direction),
                           expected, atol=1e-12)


def test_gyronorm_examples():
    assert gyronorm_E(np.zeros(2)) == 0.0
    assert gyronorm_E(np.array([0.3, 0.4])) == pytest.approx(math.atanh(0.5))


def test_rapidity_metric_examples():
    v = np.array([0.5, 0.0])
    assert rapidity_metric_dE(v, v) == pytest.approx(0.0, abs=1e-12)
    assert rapidity_metric_dE(np.zeros(2), v) == pytest.approx(0.5493061443340548)
    assert rapidity_metric_dE(np.array([-0.5, 0.0]), v) == pytest.approx(1.0986122886681098)


def test_gyrometric_examples():
    v = np.array([0.5, 0.0])
    assert gyrometric_de(v, v) == pytest.approx(0.0, abs=1e-15)
    assert gyrometric_de(np.zeros(2), v) == 0.5
    assert gyrometric_de(np.array([-0.5, 0.0]), v) == pytest.approx(0.8, abs=1e-12)


def test_rapidity_metric_boundary_error():
    u = np.array([0.999999, 0.0])
    with pytest.raises(BoundaryError):
        rapidity_metric_dE(-u, u)


def test_gyrometric_never_exceeds_rapidity():
    rng = make_rng(31)
    u = sample_ball_points(3, 10_000, rng)
    v = sample_ball_points(3, 10_000, rng)
    assert np.all(gyrometric_de(u, v) <= rapidity_metric_dE(u, v) + 1e-15)


def test_two_step_subadditivity_chain():
    # |u + v| <= |u| (+) |v| <= |u| + |v| with (+) the scalar addition
    rng = make_rng(32)
    u = sample_ball_points(3, 5000, rng)
    v = sample_ball_points(3, 5000, rng)
    left = euclidean_norm(einstein_add(u, v))
    nu, nv = euclidean_norm(u), euclidean_norm(v)
    middle = (nu + nv) / (1 + nu * nv)
    assert np.all(left <= middle + 1e-12)
    assert np.all(middle <= nu + nv + 1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_topology_ball_inclusion(dim):
    # d_e(u, w) < tanh(eps) forces d_E(u, w) <= eps, and d_e <= d_E, for eps
    # in {0.1, 0.5, 1.0} and with no tolerance at all.
    for seed in (1, 12, 42, 77):
        cfg = CheckConfig(samples=10_000, seed=seed, atol=0.0, rtol=0.0)
        report = run_suite("einstein", "topology", cfg, dim=dim)
        assert report.passed, report.to_json()
        assert all(p.checked == cfg.samples for p in report.properties)


def test_topology_check_is_deterministic():
    cfg = CheckConfig(samples=100, seed=1, atol=0.0, rtol=0.0)
    a = run_suite("einstein", "topology", cfg, dim=2)
    b = run_suite("einstein", "topology", cfg, dim=2)
    assert a.to_json() == b.to_json()


def test_left_invariance_of_both_metrics():
    nm = get_normed("einstein", dim=3)
    m = nm.model
    rng = make_rng(40)
    a, x, y = (sample_ball_points(3, 2000, rng) for _ in range(3))
    assert np.allclose(rapidity_metric_dE(m.add(a, x), m.add(a, y)),
                       rapidity_metric_dE(x, y), atol=1e-9)
    assert np.allclose(gyrometric_de(m.add(a, x), m.add(a, y)),
                       gyrometric_de(x, y), atol=1e-9)


@pytest.mark.parametrize("cap", [0.95, 1 - 1e-6, 1 - 1e-9])
# Up to dim 7 gyrations take the matrix form, from dim 8 the vector form.
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 7, 8])
def test_closed_form_gyration_matches_oracle(dim, cap):
    m = get_model("einstein", dim=dim)
    rng = make_rng(70 + dim)
    a, b, c = (sample_ball_points(dim, 60, rng, cap=cap) for _ in range(3))
    out = m.gyr(a, b, c)
    assert np.max(np.abs(out - mp_oracle.gyr("einstein", a, b, c))) <= 1e-14
    assert np.max(np.abs(euclidean_norm(out) - euclidean_norm(c))) <= 1e-14


def test_gyration_is_the_mobius_gyration_through_phi_inv():
    e, mob = get_model("einstein", dim=3), get_model("mobius", dim=3)
    rng = make_rng(41)
    a, b, c = (sample_ball_points(3, 2000, rng) for _ in range(3))
    assert np.array_equal(e.gyr(a, b, c), mob.gyr(phi_inv(a), phi_inv(b), c))
