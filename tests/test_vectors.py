import numpy as np
import pytest

from gyroball import (
    BoundaryError,
    DomainError,
    euclidean_norm,
    make_rng,
    sample_ball_points,
)
from gyroball.vectors import SHORT_AXIS, dot, ensure_in_ball


def test_inner_product_examples():
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert dot(np.array([0.5, 0.0]), np.array([0.5, 0.0])) == 0.25
    assert dot(np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.2, 0.1])) == pytest.approx(0.10)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", range(1, SHORT_AXIS))
def test_dot_is_bitwise_equal_to_numpy_sum_below_eight_coordinates(n, dtype):
    # Coordinates spread over 16 decades, so a change of summation order
    # changes the rounding of most rows.
    rng = make_rng(20 + n)
    u = (rng.standard_normal((300, 4, n)) * 10.0 ** rng.integers(-8, 8, (300, 4, n))).astype(dtype)
    v = rng.standard_normal((300, 4, n)).astype(dtype)
    assert np.array_equal(dot(u, v), np.sum(u * v, axis=-1))
    assert dot(u, v).dtype == dtype
    assert np.array_equal(dot(u[:, :1], v[:1]), np.sum(u[:, :1] * v[:1], axis=-1))


def test_euclidean_norm_examples():
    assert euclidean_norm([0, 0]) == 0.0
    assert euclidean_norm([0.6, 0.8]) == pytest.approx(1.0)
    assert euclidean_norm([0.5, 0, 0]) == 0.5


def test_ensure_in_ball_rejects_boundary():
    ensure_in_ball(np.array([0.999, 0.0]))
    with pytest.raises(BoundaryError):
        ensure_in_ball(np.array([1.0, 0.0]))
    # Non-finite coordinates are refused before the norm is compared, where
    # NaN would compare false with the guard.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            ensure_in_ball(np.array([[0.0, 0.0], [bad, 0.0]]))


def test_cauchy_schwarz_on_samples():
    rng = make_rng(11)
    u = sample_ball_points(4, 1000, rng)
    v = sample_ball_points(4, 1000, rng)
    lhs = dot(u, v) ** 2
    rhs = dot(u, u) * dot(v, v)
    assert np.all(lhs <= rhs + 1e-9)


def test_sampling_determinism_and_cap():
    a = sample_ball_points(2, 1, make_rng(123))
    b = sample_ball_points(2, 1, make_rng(123))
    assert np.array_equal(a, b)
    pts = sample_ball_points(5, 2000, make_rng(5))
    assert np.all(euclidean_norm(pts) <= 0.95)


def test_sampling_mean_radius():
    # analytic mean radius of the capped uniform ball: cap * n / (n + 1)
    pts = sample_ball_points(3, 10_000, make_rng(42))
    mean_r = float(np.mean(euclidean_norm(pts)))
    expected = 0.95 * 3 / 4
    assert abs(mean_r - expected) / expected < 0.05
