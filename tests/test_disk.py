import math

import numpy as np
import pytest

from gyroball import (
    BoundaryError,
    cmobius_add,
    cmobius_gyr_factor,
    euclidean_norm,
    get_normed,
    make_rng,
    poincare_metric,
    sample_ball_points,
)


def complex_add(a, b):
    """Independent oracle using python complex arithmetic."""
    za = complex(a[0], a[1])
    zb = complex(b[0], b[1])
    out = (za + zb) / (1 + za.conjugate() * zb)
    return np.array([out.real, out.imag])


def complex_metric(w, z):
    zw = complex(w[0], w[1])
    zz = complex(z[0], z[1])
    return 2 * math.atanh(abs((zw - zz) / (1 - zw.conjugate() * zz)))


def test_addition_examples():
    assert np.allclose(cmobius_add([0.0, 0.0], [0.3, 0.1]), [0.3, 0.1], atol=1e-15)
    out = cmobius_add([0.5, 0.0], [0.0, 0.5])
    assert np.allclose(out, [0.5882352941176471, 0.35294117647058826], atol=1e-15)
    assert np.allclose(out, complex_add([0.5, 0.0], [0.0, 0.5]), atol=1e-15)


def test_addition_against_complex_oracle():
    rng = make_rng(60)
    a = sample_ball_points(2, 1000, rng)
    b = sample_ball_points(2, 1000, rng)
    got = cmobius_add(a, b)
    for i in range(1000):
        assert np.allclose(got[i], complex_add(a[i], b[i]), atol=1e-14)


def test_gyr_factor_example():
    factor = cmobius_gyr_factor(np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    assert np.allclose(factor, [0.8823529411764706, -0.47058823529411764],
                       atol=1e-15)
    assert euclidean_norm(factor) == pytest.approx(1.0, abs=1e-15)


def test_gyr_factor_is_unimodular():
    rng = make_rng(61)
    a = sample_ball_points(2, 2000, rng)
    b = sample_ball_points(2, 2000, rng)
    assert np.allclose(euclidean_norm(cmobius_gyr_factor(a, b)), 1.0, atol=1e-12)


def test_closed_form_gyration_matches_generic():
    nm = get_normed("poincare-disk", dim=2)
    m = nm.model
    rng = make_rng(62)
    a, b, c = (sample_ball_points(2, 2000, rng) for _ in range(3))
    from gyroball import gyr_via_gyrator_identity
    assert np.allclose(m.gyr(a, b, c), gyr_via_gyrator_identity(m, a, b, c),
                       atol=1e-9)


def test_poincare_metric_examples():
    o = np.array([0.0, 0.0])
    z = np.array([0.5, 0.0])
    assert poincare_metric(o, o) == 0.0
    assert poincare_metric(o, z) == pytest.approx(2 * math.atanh(0.5), abs=1e-12)
    assert poincare_metric(o, z) == pytest.approx(1.0986122886681098)
    assert poincare_metric(z, o) == poincare_metric(o, z)


def test_poincare_metric_against_complex_oracle():
    rng = make_rng(63)
    w = sample_ball_points(2, 500, rng)
    z = sample_ball_points(2, 500, rng)
    got = poincare_metric(w, z)
    for i in range(500):
        assert got[i] == pytest.approx(complex_metric(w[i], z[i]), abs=1e-12)


def test_poincare_metric_boundary_error():
    with pytest.raises(BoundaryError):
        poincare_metric([1.0, 0.0], [0.0, 0.0])


def test_gyronorm_examples():
    norm = get_normed("poincare-disk").norm
    assert norm(np.array([0.0, 0.0])) == 0.0
    assert norm(np.array([0.5, 0.0])) == pytest.approx(2 * math.atanh(0.5))
    assert norm(np.array([0.0, -0.5])) == norm(np.array([0.5, 0.0]))


def test_transformation_is_isometry():
    rng = make_rng(64)
    a = np.array([0.3, -0.2])
    w = sample_ball_points(2, 2000, rng)
    z = sample_ball_points(2, 2000, rng)
    assert np.allclose(poincare_metric(cmobius_add(a, w),
                                       cmobius_add(a, z)),
                       poincare_metric(w, z), atol=1e-9)


def test_right_translation_is_not_isometry():
    # the directed witness: translating x = 0 and y = 0.5 on the right by
    # a = 0.5i stretches their distance
    x = np.array([0.0, 0.0])
    y = np.array([0.5, 0.0])
    a = np.array([0.0, 0.5])
    before = poincare_metric(x, y)
    after = poincare_metric(cmobius_add(x, a), cmobius_add(y, a))
    assert before == pytest.approx(1.0986122886681098)
    assert after == pytest.approx(1.7088543001100782, abs=1e-9)
    assert after > before + 0.5


def test_right_translation_witness_magnitude_formula():
    # hand-derived closed form for |((y + a) - a) / (1 - conj(y + a) a)| style
    # displacement magnitude when y = r is real and a = si is imaginary:
    # r (1 + s^2) / sqrt((1 - s^2)^2 + 4 r^2 s^2)
    r, s = 0.5, 0.5
    mag = r * (1 + s * s) / math.sqrt((1 - s * s) ** 2 + 4 * r * r * s * s)
    assert mag == pytest.approx(0.6933752452815365, abs=1e-15)
    x = np.array([0.0, 0.0])
    y = np.array([r, 0.0])
    a = np.array([0.0, s])
    after = poincare_metric(cmobius_add(x, a), cmobius_add(y, a))
    assert after == pytest.approx(2 * math.atanh(mag), abs=1e-12)


def test_collinear_gyration_is_trivial():
    # real a and b commute, so the rotation factor is 1
    factor = cmobius_gyr_factor(np.array([0.2, 0.0]), np.array([0.4, 0.0]))
    assert np.allclose(factor, [1.0, 0.0], atol=1e-15)
