import warnings

import numpy as np
import pytest

from gyroball import (
    DegeneracyError,
    Gyration,
    IsometrySpec,
    LeftInvarianceError,
    LeftTranslation,
    apply_isometry,
    get_model,
    get_normed,
    gyr_via_gyrator_identity,
    gyronorm_from_metric,
    homogeneity_witness,
    isotropy_witness,
    make_rng,
    mazur_ulam_decompose,
    poincare_metric,
    euclidean_norm,
)
from gyroball.core import INVARIANCE_SAMPLES


@pytest.fixture
def einstein2():
    return get_normed("einstein", dim=2)


@pytest.fixture
def disk():
    return get_normed("poincare-disk", dim=2)


def test_gyration_at_identity_is_identity(einstein2):
    m = einstein2.model
    b = np.array([0.3, 0.0])
    c = np.array([0.1, 0.4])
    assert np.allclose(gyr_via_gyrator_identity(m, m.identity, b, c), c, atol=1e-12)


def test_einstein_gyration_preserves_euclidean_norm(einstein2):
    m = einstein2.model
    out = m.gyr(np.array([0.5, 0.0]), np.array([0.3, 0.0]), np.array([0.0, 0.4]))
    assert euclidean_norm(out) == pytest.approx(0.4, abs=1e-12)


def test_einstein_collinear_gyration_is_identity(einstein2):
    m = einstein2.model
    a = np.array([0.5, 0.0])
    b = np.array([0.3, 0.0])
    for c in ([0.2, 0.6], [-0.4, 0.1]):
        assert np.allclose(m.gyr(a, b, np.array(c)), c, atol=1e-12)


def test_induced_metric_basics(einstein2):
    d = einstein2.distance
    x = np.array([0.5, 0.0])
    assert d(x, x) == pytest.approx(0.0, abs=1e-12)
    assert d(einstein2.model.identity, x) == pytest.approx(einstein2.norm(x))
    assert d(x, einstein2.model.identity) == pytest.approx(np.arctanh(0.5))


def test_group_adapter_is_plain_vector_arithmetic():
    nm = get_normed("group", dim=2)
    m = nm.model
    assert np.array_equal(m.add([1, 2], [3, 4]), [4, 6])
    c = np.array([0.7, -0.2])
    assert np.array_equal(m.gyr([0.1, 0.2], [0.3, 0.4], c), c)
    assert nm.distance([1.0, 0.0], [4.0, 4.0]) == pytest.approx(5.0)


def test_group_gyration_is_a_read_only_view_of_c():
    # Every gyration of a group is the identity map, so gyr[a, b]c is c
    # itself, broadcast against a and b and not copied.
    m = get_model("group", dim=3)
    rng = make_rng(4)
    a, b = m.sample(rng, 6)[:, None], m.sample(rng, 6)[:, None]
    c = m.sample(rng, 5)[None]
    g = m.gyr(a, b, c)
    assert g.shape == (6, 5, 3)
    assert np.array_equal(g, np.broadcast_to(c, g.shape))
    assert not g.flags.writeable
    assert np.shares_memory(g, c)


def test_discrete_gyronorm_is_discrete_metric():
    nm = get_normed("group", dim=3, gyronorm="discrete")
    e = nm.model.identity
    assert nm.norm(e) == 0.0
    assert nm.norm(np.array([0.2, 0.0, 0.0])) == 1.0
    x = np.array([0.1, 0.2, 0.3])
    assert nm.distance(x, x) == 0.0
    assert nm.distance(x, e) == 1.0


def test_apply_isometry_and_witnesses(einstein2):
    m = einstein2.model
    x = np.array([0.3, 0.0])
    y = np.array([0.0, 0.4])
    assert np.array_equal(apply_isometry(m, IsometrySpec(), x), x)
    a = np.array([0.2, 0.1])
    assert np.allclose(apply_isometry(m, IsometrySpec((LeftTranslation(a),)), m.identity), a)
    spec = IsometrySpec((LeftTranslation(m.neg(x)), LeftTranslation(y)))
    assert np.allclose(apply_isometry(m, spec, x), y, atol=1e-12)


def test_apply_isometry_rejects_an_unknown_step(einstein2):
    with pytest.raises(TypeError, match="unknown isometry step"):
        apply_isometry(einstein2.model, IsometrySpec(("reflect",)), np.zeros(2))


def test_homogeneity_witness_maps_and_preserves(einstein2):
    m, d = einstein2.model, einstein2.distance
    x = np.array([0.3, 0.0])
    y = np.array([0.0, 0.4])
    w = homogeneity_witness(m, x, y)
    assert np.allclose(apply_isometry(m, w, x), y, atol=1e-9)
    assert np.allclose(apply_isometry(m, homogeneity_witness(m, x, x), x), x, atol=1e-9)
    rng = make_rng(3)
    u = m.sample(rng, 100)
    v = m.sample(rng, 100)
    assert np.allclose(d(apply_isometry(m, w, u), apply_isometry(m, w, v)),
                       d(u, v), atol=1e-9)


def test_isotropy_witness_fixes_point(einstein2):
    m = einstein2.model
    p = np.array([0.2, 0.1])
    w = isotropy_witness(m, p, np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    assert np.allclose(apply_isometry(m, w, p), p, atol=1e-9)


def test_isotropy_witness_degeneracy_error():
    m = get_normed("group", dim=2).model
    with pytest.raises(DegeneracyError):
        isotropy_witness(m, np.array([0.1, 0.1]), np.array([0.3, 0.0]),
                         np.array([0.0, 0.3]))


def test_isotropy_witness_on_disk(disk):
    m = disk.model
    a = np.array([0.5, 0.0])
    b = np.array([0.0, 0.5])
    w = isotropy_witness(m, m.identity, a, b)
    assert np.allclose(apply_isometry(m, w, m.identity), 0.0, atol=1e-12)
    moved = apply_isometry(m, w, np.array([0.3, 0.0]))
    assert euclidean_norm(moved - np.array([0.3, 0.0])) > 1e-3


def test_mazur_ulam_decompose_trivial_cases(einstein2):
    m = einstein2.model
    a = np.array([0.3, 0.1])
    t, rho = mazur_ulam_decompose(einstein2, IsometrySpec((LeftTranslation(a),)))
    assert np.allclose(t, a)
    assert np.allclose(apply_isometry(m, rho, m.identity), 0.0, atol=1e-12)

    g = IsometrySpec((Gyration(np.array([0.4, 0.0]), np.array([0.0, 0.4])),))
    t, rho = mazur_ulam_decompose(einstein2, g)
    assert np.allclose(t, 0.0, atol=1e-12)


def test_mazur_ulam_decompose_composite(einstein2):
    m, d = einstein2.model, einstein2.distance
    f = IsometrySpec((
        Gyration(np.array([0.4, 0.1]), np.array([-0.2, 0.3])),
        LeftTranslation(np.array([0.25, -0.3])),
    ))
    t, rho = mazur_ulam_decompose(einstein2, f)
    assert np.allclose(apply_isometry(m, rho, m.identity), 0.0, atol=1e-9)
    rng = make_rng(17)
    x = m.sample(rng, 1000)
    y = m.sample(rng, 1000)
    rx = apply_isometry(m, rho, x)
    ry = apply_isometry(m, rho, y)
    assert np.allclose(d(rx, ry), d(x, y), atol=1e-9)
    assert np.allclose(apply_isometry(m, f, x), m.add(t, rx), atol=1e-9)


def test_gyronorm_from_metric_recovers_poincare_norm(disk):
    m = disk.model
    norm = gyronorm_from_metric(m, poincare_metric, rng=make_rng(9))
    z = m.sample(make_rng(10), 500)
    assert np.allclose(norm(z), 2 * np.arctanh(euclidean_norm(z)), atol=1e-9)


def test_gyronorm_from_metric_round_trip(einstein2):
    d = einstein2.distance
    norm = gyronorm_from_metric(einstein2.model, d, rng=make_rng(4))
    x = einstein2.model.sample(make_rng(5), 500)
    assert np.array_equal(norm(x), einstein2.norm(x))


def test_gyronorm_from_metric_on_abelian_group():
    m = get_normed("group", dim=3).model
    norm = gyronorm_from_metric(m, lambda x, y: euclidean_norm(np.asarray(y) - np.asarray(x)))
    x = m.sample(make_rng(6), 200)
    assert np.allclose(norm(x), euclidean_norm(x))


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_gyronorm_from_metric_rejects_a_non_finite_metric(bad):
    # NaN > tolerance is False, so a NaN distance must count as a violation
    # on its own, and inf - inf must not warn on the way.
    m = get_model("einstein", dim=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LeftInvarianceError) as exc:
            gyronorm_from_metric(m, lambda x, y: np.full(np.shape(x)[:-1], bad))
    w = exc.value.witness
    assert np.array_equal([w["d_translated"], w["d_original"]], [bad, bad], equal_nan=True)
    assert w["a"] == m.sample(make_rng(0), INVARIANCE_SAMPLES)[0].tolist()  # row 0


def test_gyronorm_from_metric_rejects_non_invariant_metric():
    # Euclidean distance is not left-invariant under Einstein addition.
    m = get_model("einstein", dim=2)
    with pytest.raises(LeftInvarianceError) as exc:
        gyronorm_from_metric(m, lambda x, y: euclidean_norm(np.asarray(y) - np.asarray(x)),
                             rng=make_rng(2))
    assert {"a", "x", "y", "d_translated", "d_original"} <= set(exc.value.witness)
