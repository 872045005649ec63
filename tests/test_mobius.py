import math

import numpy as np
import pytest

import mp_oracle
from gyroball import (
    CheckConfig,
    cmobius_add,
    cmobius_gyr_factor,
    einstein_add,
    euclidean_norm,
    get_model,
    get_normed,
    gyr_via_gyrator_identity,
    gyronorm_M,
    make_rng,
    mobius_add,
    phi,
    phi_inv,
    poincare_metric,
    rapidity_metric_dM,
    run_suite,
    sample_ball_points,
)
from gyroball.disk import rotation_gyr
from gyroball.einstein import einstein_gyr
from gyroball.mobius import mobius_gyr
from gyroball.vectors import SHORT_AXIS, dot


def brute_force_mobius_add(u, v):
    """Independent elementwise evaluation of the displayed formula."""
    ip = sum(ui * vi for ui, vi in zip(u, v))
    usq = sum(ui * ui for ui in u)
    vsq = sum(vi * vi for vi in v)
    den = 1 + 2 * ip + usq * vsq
    return [((1 + 2 * ip + vsq) * ui + (1 - usq) * vi) / den for ui, vi in zip(u, v)]


def test_identity_and_inverse():
    v = np.array([0.3, -0.1, 0.2])
    assert np.allclose(mobius_add(np.zeros(3), v), v, atol=1e-15)
    assert np.allclose(mobius_add(v, -v), 0.0, atol=1e-15)


def test_collinear_addition():
    out = mobius_add(np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    assert out[0] == pytest.approx(0.8, abs=1e-15)
    assert out[1] == 0.0


def test_against_brute_force_oracle():
    rng = make_rng(50)
    u = sample_ball_points(3, 500, rng)
    v = sample_ball_points(3, 500, rng)
    for i in range(500):
        assert np.allclose(mobius_add(u[i], v[i]),
                           brute_force_mobius_add(u[i], v[i]), atol=1e-14)
    assert np.allclose(mobius_add(np.array([0.5, 0.0]), np.array([0.0, 0.5])),
                       brute_force_mobius_add([0.5, 0.0], [0.0, 0.5]), atol=1e-15)


def test_phi_examples():
    assert np.allclose(phi(np.zeros(2)), 0.0)
    assert np.allclose(phi(np.array([0.5, 0.0])), [0.8, 0.0], atol=1e-15)
    assert np.allclose(phi(-np.array([0.3, 0.2])), -phi(np.array([0.3, 0.2])))


def test_phi_inv_examples():
    assert np.allclose(phi_inv(np.zeros(2)), 0.0)
    assert np.allclose(phi_inv(np.array([0.8, 0.0])), [0.5, 0.0], atol=1e-15)
    tiny = np.array([1e-10, 0.0])
    assert np.allclose(phi_inv(tiny), tiny / 2, atol=1e-25)


def test_phi_inv_matches_oracle_from_origin_to_rim():
    # phi_inv amplifies input rounding by 1 / sqrt(1 - |w|^2) near the rim,
    # so the bound is a few ulps times that condition number; near 0 it is
    # a few ulps, where the old radical form lost up to 1e-2 to cancellation.
    radii = np.geomspace(1e-12, 1 - 1e-9, 200)
    dirs = sample_ball_points(3, 200, make_rng(58))
    w = dirs / euclidean_norm(dirs)[:, None] * radii[:, None]
    ref = mp_oracle.phi_inv(w)
    rel = euclidean_norm(phi_inv(w) - ref) / euclidean_norm(ref)
    assert np.all(rel <= 4 * np.finfo(float).eps / np.sqrt(1 - radii ** 2))
    assert np.all(rel[radii < 0.5] <= 2.5e-16)


def test_phi_round_trip():
    v = sample_ball_points(3, 10_000, make_rng(51))
    assert np.allclose(phi_inv(phi(v)), v, atol=1e-12)
    assert np.allclose(phi(phi_inv(v)), v, atol=1e-12)


def test_phi_is_a_homomorphism():
    rng = make_rng(52)
    u = sample_ball_points(3, 10_000, rng)
    v = sample_ball_points(3, 10_000, rng)
    assert np.allclose(phi(mobius_add(u, v)), einstein_add(phi(u), phi(v)),
                       atol=1e-9)


def test_gyronorm_examples():
    assert gyronorm_M(np.zeros(2)) == 0.0
    # phi radius 0.8, halved rapidity
    assert gyronorm_M(np.array([0.5, 0.0])) == pytest.approx(0.5 * math.atanh(0.8))
    assert gyronorm_M(np.array([0.5, 0.0])) == pytest.approx(0.5493061443340548)


def test_gyronorm_closed_form():
    # hyperbolic double angle: half the rapidity of phi(v) is atanh |v|
    v = sample_ball_points(4, 10_000, make_rng(53))
    assert np.allclose(gyronorm_M(v), np.arctanh(euclidean_norm(v)), atol=1e-12)
    pulled_back = 0.5 * np.arctanh(euclidean_norm(phi(v)))
    assert np.allclose(gyronorm_M(v), pulled_back, rtol=0, atol=1e-12)


# atanh|v| amplifies the rounding of |v| by |v| / ((1 - |v|^2) atanh|v|),
# about 5e7 at radius 1 - 1e-9.  Worst relative errors measured here:
# 6.1e-16, 9.6e-12 and 6.6e-9; each bound is about ten times that.
RIM_RAPIDITY_BOUNDS = {0.95: 1e-13, 1 - 1e-6: 1e-10, 1 - 1e-9: 1e-7}


@pytest.mark.parametrize("radius", RIM_RAPIDITY_BOUNDS)
@pytest.mark.parametrize("dim", [2, 3, 5, 10])
def test_gyronorm_and_metric_match_oracle_at_the_rim(dim, radius):
    dirs = sample_ball_points(dim, 50, make_rng(110 + dim))
    v = dirs / euclidean_norm(dirs)[:, None] * radius
    ref = mp_oracle.rapidity(v)
    for got in (gyronorm_M(v), rapidity_metric_dM(np.zeros(dim), v)):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref) / ref) <= RIM_RAPIDITY_BOUNDS[radius]



@pytest.mark.parametrize("suite", ["metric", "left-invariance", "isometry", "mazur-ulam",
                                   "homogeneity-isotropy"])
def test_metric_suites_pass_at_tolerance_1e_12(suite):
    # The gyronorm atanh|v| and the addition are accurate to a few ulps, so
    # the suites built on the metric resolve far below the default tolerance
    # 1e-9.  homogeneity-isotropy failed here on witness-isometry rows while
    # the addition's denominator cancelled terms of size 1.
    cfg = CheckConfig(samples=10_000, seed=42, atol=1e-12, rtol=1e-12)
    report = run_suite("mobius", suite, cfg, dim=3)
    assert report.passed, report.to_json()


@pytest.mark.parametrize("suite,dim,seed,samples,tol", [
    ("mazur-ulam", 16, 2, 500, None),
    ("mazur-ulam", 5, 29, 500, None),
    ("table1", 2, 13, 2000, 1e-12),
])
def test_translations_near_the_rim_pass(suite, dim, seed, samples, tol):
    # Runs that failed on correct code while the addition's denominator was
    # 1 + 2 u.v + |u|^2 |v|^2, which cancels terms of size 1 near the rim:
    # rho-isometry in mazur-ulam, by up to 1.6e-6 at dim 16 where a
    # translation t = f(e) has |t| = 0.999968, and cancellation-chain in
    # table1 at 1e-12.
    tols = {} if tol is None else {"atol": tol, "rtol": tol}
    report = run_suite("mobius", suite, CheckConfig(samples=samples, seed=seed, **tols), dim=dim)
    assert report.passed, report.to_json()


def test_rapidity_metric_examples():
    v = np.array([0.5, 0.0])
    assert rapidity_metric_dM(v, v) == pytest.approx(0.0, abs=1e-12)
    assert rapidity_metric_dM(np.zeros(2), v) == pytest.approx(math.atanh(0.5))


def test_metric_left_invariance():
    rng = make_rng(54)
    a, x, y = (sample_ball_points(3, 2000, rng) for _ in range(3))
    assert np.allclose(rapidity_metric_dM(mobius_add(a, x), mobius_add(a, y)),
                       rapidity_metric_dM(x, y), atol=1e-9)


def test_matches_half_poincare_metric_in_dim_2():
    rng = make_rng(55)
    u = sample_ball_points(2, 10_000, rng)
    v = sample_ball_points(2, 10_000, rng)
    assert np.allclose(rapidity_metric_dM(u, v), 0.5 * poincare_metric(u, v),
                       atol=1e-10)


def test_phi_preserves_gyrations():
    nm_m = get_normed("mobius", dim=3)
    nm_e = get_normed("einstein", dim=3)
    rng = make_rng(56)
    a, b, c = (sample_ball_points(3, 5000, rng) for _ in range(3))
    lhs = phi(nm_m.model.gyr(a, b, c))
    rhs = nm_e.model.gyr(phi(a), phi(b), phi(c))
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_mobius_gyration_preserves_euclidean_norm():
    nm = get_normed("mobius", dim=3)
    rng = make_rng(57)
    a, b, w = (sample_ball_points(3, 5000, rng) for _ in range(3))
    assert np.allclose(euclidean_norm(nm.model.gyr(a, b, w)),
                       euclidean_norm(w), atol=1e-9)


@pytest.mark.parametrize("cap", [0.95, 1 - 1e-6, 1 - 1e-9])
# Up to dim 7 gyrations take the matrix form, from dim 8 the vector form.
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 7, 8])
def test_closed_form_gyration_matches_oracle(dim, cap):
    m = get_model("mobius", dim=dim)
    rng = make_rng(60 + dim)
    a, b, c = (sample_ball_points(dim, 60, rng, cap=cap) for _ in range(3))
    out = m.gyr(a, b, c)
    assert np.max(np.abs(out - mp_oracle.gyr("mobius", a, b, c))) <= 1e-14
    assert np.max(np.abs(euclidean_norm(out) - euclidean_norm(c))) <= 1e-14


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_gyration_of_antiparallel_rim_pairs_matches_oracle(dim):
    # With v = -s u near the rim, D = 1 + 2 u.v + |u|^2 |v|^2 nears 0 and the
    # rotation angle is sensitive to input rounding in proportion to
    # 1 / (1 + u.v); the closed form must stay within a few ulps of that.
    rng = make_rng(90 + dim)
    u = sample_ball_points(dim, 200, rng, cap=1 - 1e-9)
    v = -u * rng.uniform(0.9, 1.0, (200, 1))
    w = sample_ball_points(dim, 200, rng)
    err = np.max(np.abs(get_model("mobius", dim=dim).gyr(u, v, w)
                        - mp_oracle.gyr("mobius", u, v, w)), axis=1)
    assert np.all(err <= 4 * np.finfo(float).eps / (1 + np.sum(u * v, axis=1)))


@pytest.mark.parametrize("model", ["einstein", "mobius"])
def test_gyration_in_dim_1_returns_w_exactly(model):
    # In dim 1 every pair is collinear, so L = u v^T - v u^T is exactly 0
    # and G = I, also for antiparallel pairs at the rim.
    rng = make_rng(96)
    u = sample_ball_points(1, 500, rng, cap=1 - 1e-9)
    v = np.concatenate([sample_ball_points(1, 250, rng), -u[:250]])
    w = np.concatenate([sample_ball_points(1, 499, rng), [[-0.0]]])
    assert np.array_equal(get_model(model, dim=1).gyr(u, v, w), w)


# Worst absolute errors measured over 5 seeds x 200 samples per (cap, dim):
# einstein 6.9e-16 (cap 0.95), 3.6e-15 (1 - 1e-6), 4.1e-15 (1 - 1e-9);
# mobius 8.9e-16, 3.6e-15 and 4.2e-15.  The Mobius denominator is summed from
# nonnegative terms, so nearly antiparallel pairs near the rim, where
# 1 + 2 u.v + |u|^2 |v|^2 cancels terms of size 1, cost it no accuracy.  Each
# bound is about 2.5 times the worst measured error.
ADD_ORACLE_BOUNDS = {
    ("einstein", 0.95): 2e-15, ("einstein", 1 - 1e-6): 1e-14,
    ("einstein", 1 - 1e-9): 1e-14,
    ("mobius", 0.95): 2e-15, ("mobius", 1 - 1e-6): 1e-14,
    ("mobius", 1 - 1e-9): 1e-14,
}


@pytest.mark.parametrize("model,cap", ADD_ORACLE_BOUNDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_addition_matches_oracle(model, cap, dim):
    # From dim 8 on, the inner products go through einsum instead of being
    # summed coordinate by coordinate.
    rng = make_rng(100 + dim)
    u, v = (sample_ball_points(dim, 100, rng, cap=cap) for _ in range(2))
    out = get_model(model, dim=dim).add(u, v)
    assert np.max(np.abs(out - mp_oracle.add(model, u, v))) <= ADD_ORACLE_BOUNDS[model, cap]


# The float64 gyrator identity, the oracle of the table1 gyrator-identity
# property, against the 60-digit one.  Worst absolute errors measured over
# 10 seeds x 200 samples per (cap, dim): einstein 6.8e-14 (cap 0.95) and
# 5.2e-10 (1 - 1e-6); mobius 1.1e-13 and 1.3e-9.  Near the rim a + b lands
# closer to it than a or b (2.5e-7 from it in the worst mobius row), and
# rounding the three inner sums to float64, with the rest exact, already
# costs 2.4e-10 there.  Each bound is about 2.5 times the worst measured error.
GYR_IDENTITY_BOUNDS = {
    ("einstein", 0.95): 2e-13, ("einstein", 1 - 1e-6): 1.3e-9,
    ("mobius", 0.95): 3e-13, ("mobius", 1 - 1e-6): 3e-9,
}


@pytest.mark.parametrize("model,cap", GYR_IDENTITY_BOUNDS)
@pytest.mark.parametrize("dim", [2, 3, 5, 10])
def test_gyrator_identity_matches_oracle(model, cap, dim):
    m = get_model(model, dim=dim)
    rng = make_rng(120 + dim)
    a, b, c = (sample_ball_points(dim, 100, rng, cap=cap) for _ in range(3))
    out = gyr_via_gyrator_identity(m, a, b, c)
    assert out.dtype == np.float64
    err = np.max(np.abs(out - mp_oracle.gyr(model, a, b, c)))
    assert err <= GYR_IDENTITY_BOUNDS[model, cap]


def _einstein_add_expression(u, v):
    ip = dot(u, v)[..., None]
    gamma = 1.0 / np.sqrt(1.0 - dot(u, u)[..., None])
    return (u + v / gamma + (gamma / (1.0 + gamma)) * ip * u) / (1.0 + ip)


def _mobius_add_expression(u, v):
    s = u + v
    ssq = dot(s, s)[..., None]
    pu, pv = 1.0 - dot(u, u)[..., None], 1.0 - dot(v, v)[..., None]
    return ((ssq + pu) * u + pu * v) / (ssq + pu * pv)


def _assert_same_bits(got, want):
    """Same dtype, shape and values, and the same sign on every entry that
    is not NaN, so that a signed zero counts."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))


def _coordinate_major(x):
    """A copy of x whose coordinate planes x[..., j] are each contiguous."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def _sliced(x):
    """A copy of x that is a strided view, every other entry of every axis of
    an array twice its size, so that neither x nor its planes are contiguous."""
    view = np.empty(tuple(2 * k for k in x.shape), x.dtype)[(slice(None, None, 2),) * x.ndim]
    view[...] = x
    return view


def _layouts(*operands):
    """The same operands in every memory layout a kernel may meet: each one
    C-ordered, coordinate-major, sliced, and the three mixed in turn."""
    forms = (np.ascontiguousarray, _coordinate_major, _sliced)
    same = [tuple(f(x) for x in operands) for f in forms]
    return same + [tuple(forms[i % 3](x) for i, x in enumerate(operands))]


def _operand_shapes(rng, dim, dtypes):
    """(u, v) pairs as the kernels meet them: probe blocks (50, 1, n) x
    (1, 8, n), flat batches and single points, then operands of unequal
    ndim, as in ``m.add(m.identity, a)``: a single point against a flat
    batch and against a (50, 1, n) block, and a flat batch against a single
    point; in the given dtypes, each in every layout of _layouts."""
    u = sample_ball_points(dim, 50, rng)
    v = sample_ball_points(dim, 50, rng)
    pairs = ((u[:, None], v[None, :8]), (u, v), (u[0], v[0]),
             (u[0], v), (v[1], u[:, None]), (u, v[2]))
    return [p for a, b in pairs for p in _layouts(a.astype(dtypes[0]), b.astype(dtypes[1]))]


# Every kernel works in float64; test_kernels_return_float64 covers other
# operand dtypes, which the kernels cast on entry.
DTYPE_MIXES = [(np.float64, np.float64)]


@pytest.mark.parametrize("add,expression", [(einstein_add, _einstein_add_expression),
                                            (mobius_add, _mobius_add_expression)],
                         ids=["einstein", "mobius"])
@pytest.mark.parametrize("dtypes", DTYPE_MIXES)
def test_addition_equals_its_expression_form(add, expression, dtypes):
    # The kernels fill a coordinate-major output below SHORT_AXIS (8) and a
    # C-ordered one from 8 on, in place, with the operations of the whole
    # expression in the same order, so the bits must not move on either
    # side of the split, nor with the operands' memory layout or ndim.
    rng = make_rng(7)
    for dim in (1, 2, 3, 4, 5, 6, 7, 8, 64):
        for u, v in _operand_shapes(rng, dim, dtypes):
            got, want = add(u, v), expression(u, v)
            _assert_same_bits(got, want)


def _mobius_gyr_expression(u, v, w):
    """The gyration operator as per-row n x n matrices, each entry summed in
    index order, with no BLAS: the arithmetic mobius_gyr must keep below
    SHORT_AXIS.  From SHORT_AXIS on, the vector form w + (c Lw + 2 L(Lw)) / D
    on the whole trailing axis."""
    n = u.shape[-1]
    s = u + v
    ssq = dot(s, s)[..., None]
    pu, pv = 1.0 - dot(u, u)[..., None], 1.0 - dot(v, v)[..., None]
    if n >= SHORT_AXIS:
        lw = dot(v, w)[..., None] * u - dot(u, w)[..., None] * v
        llw = dot(v, lw)[..., None] * u - dot(u, lw)[..., None] * v
        return w + ((ssq + pu + pv) * lw + 2.0 * llw) / (ssq + pu * pv)
    ssq, pu, pv = ssq[..., None], pu[..., None], pv[..., None]
    lm = u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]
    ll = lm[..., :, 0, None] * lm[..., None, 0, :]
    for k in range(1, n):
        ll = ll + lm[..., :, k, None] * lm[..., None, k, :]
    g = ((ssq + pu + pv) * lm + 2.0 * ll) / (ssq + pu * pv)
    for i in range(n):
        g[..., i, i] += 1.0
    out = g[..., :, 0] * w[..., None, 0]
    for j in range(1, n):
        out = out + g[..., :, j] * w[..., None, j]
    return out


def _gyration_operands(rng, dim):
    """(u, v, w) triples as the probe checks and the whole-sample checks meet
    gyrations: probe blocks (B, 1, n) x (B, 1, n) against probes (1, P, n) or
    a block-sized w, flat batches, single points and a w with more leading
    axes than u and v, then pairs of points with coordinates in
    {-0.0, 0.0, 0.25, -0.3} (scaled into the ball from dim 8 on), rotating w
    of either sign of zero; each in every layout of _layouts."""
    a, b, c = (sample_ball_points(dim, 40, rng) for _ in range(3))
    x = sample_ball_points(dim, 8, rng)
    grid = rng.choice([-0.0, 0.0, 0.25, -0.3], size=(2, 60, dim)) / max(1.0, np.sqrt(dim / 7))
    block_w = sample_ball_points(dim, 320, rng).reshape(40, 8, dim)
    triples = [(a[:, None], b[:, None], x[None]), (a[:, None], b[:, None], block_w),
               (a, b, c), (a[0], b[0], c[0]), (a[0], b[:8], c[:32].reshape(4, 8, dim)),
               (grid[0][:, None], grid[1][None, :8], -grid[0][None, :8]),
               (grid[0], grid[1], grid[1][::-1])]
    return [t for triple in triples for t in _layouts(*triple)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_gyration_equals_its_expression_form(dim):
    # Below SHORT_AXIS (8) every entry of the operator and of its product
    # with w is an elementwise pass in a fixed order, so the bits are those
    # of the matrix expression on every layout, signed zeros included, and
    # no BLAS kernel (FMA or not) can move them.  From 8 on they are those
    # of the vector form.  Einstein gyrations are Mobius gyrations of
    # phi_inv u, phi_inv v.
    rng = make_rng(40 + dim)
    for u, v, w in _gyration_operands(rng, dim):
        _assert_same_bits(mobius_gyr(u, v, w), _mobius_gyr_expression(u, v, w))
        _assert_same_bits(einstein_gyr(u, v, w),
                          _mobius_gyr_expression(phi_inv(u), phi_inv(v), w))


def _phi_expression(v):
    return 2.0 * v / (1.0 + dot(v, v)[..., None])


def _phi_inv_expression(w):
    return w / (1.0 + np.sqrt(1.0 - dot(w, w)[..., None]))


@pytest.mark.parametrize("dim", [1, 3, 7, 8, 64])
def test_phi_and_phi_inv_equal_their_expression_forms(dim):
    # Filled in place through coordinate-first views, with the operations
    # of the expressions in the same order.
    rng = make_rng(30 + dim)
    points = sample_ball_points(dim, 50, rng)
    zeros = rng.choice([-0.0, 0.0, 0.25, -0.3], size=(50, dim)) / np.sqrt(dim)
    block = sample_ball_points(dim, 400, rng).reshape(50, 8, dim)
    for x in (points, block, points[0], zeros):
        for (v,) in _layouts(x):
            _assert_same_bits(phi(v), _phi_expression(v))
            _assert_same_bits(phi_inv(v), _phi_inv_expression(v))


# Reference forms of the disk kernels: complex products, conjugates and
# quotients of stacked real pairs, whose bits the plane kernels must keep.
_ONE = np.array([1.0, 0.0])


def _cmul(a, b):
    re = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
    im = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return np.stack([re, im], axis=-1)


def _conj(a):
    return np.stack([a[..., 0], -a[..., 1]], axis=-1)


def _cdiv(a, b):
    return _cmul(a, _conj(b)) / dot(b, b)[..., None]


def _cmobius_add_expression(a, b):
    return _cdiv(a + b, _ONE + _cmul(_conj(a), b))


def _cmobius_gyr_factor_expression(a, b):
    return _cdiv(_ONE + _cmul(a, _conj(b)), _ONE + _cmul(_conj(a), b))


def _rotation_gyr_expression(a, b, w):
    return _cmul(_cmobius_gyr_factor_expression(a, b), w)


def _signed_zero_pairs():
    """Every pair of disk points with coordinates in {-0.0, 0.0, 0.3, -0.6}:
    the kernel's 0.0 + im turns a -0.0 into +0.0, as the stacked form did."""
    grid = np.array(np.meshgrid(*[[-0.0, 0.0, 0.3, -0.6]] * 4)).reshape(4, -1).T
    return grid[:, :2], grid[:, 2:]


@pytest.mark.parametrize("dtypes", DTYPE_MIXES)
def test_disk_kernels_equal_their_stacked_forms(dtypes):
    pairs = _operand_shapes(make_rng(8), 2, dtypes)
    zeros = _signed_zero_pairs()
    pairs += _layouts(zeros[0].astype(dtypes[0]), zeros[1].astype(dtypes[1]))
    grid_w = _layouts(zeros[1].astype(dtypes[1])[:, None, None])
    for k, (a, b) in enumerate(pairs):
        _assert_same_bits(cmobius_add(a, b), _cmobius_add_expression(a, b))
        _assert_same_bits(cmobius_gyr_factor(a, b), _cmobius_gyr_factor_expression(a, b))
        # Rotate b's points, and the signed-zero grid in each layout in turn,
        # by gyr[a, b].
        for w in (b, grid_w[k % len(grid_w)][0]):
            _assert_same_bits(rotation_gyr(a, b, w), _rotation_gyr_expression(a, b, w))


def test_disk_factor_numerator_keeps_the_bits_of_its_own_product():
    # The numerator 1 + a conj(b) is a product of its own, so signed zeros
    # and tiny products keep the bits of the stacked complex expression.
    values = [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 0.5, 0.7071, -0.9]
    grid = np.array(np.meshgrid(values, values)).reshape(2, -1).T
    a, b = np.repeat(grid, len(grid), axis=0), np.tile(grid, (len(grid), 1))
    rng = make_rng(26)
    u, v, w = (sample_ball_points(2, 64, rng) for _ in range(3))
    for a, b, w in ((a, b, b[::-1]), (u[:, None], v[:, None], w[None, :32]),
                    (u[:, None], w[None, :32], v[:, None])):
        _assert_same_bits(cmobius_gyr_factor(a, b), _cmobius_gyr_factor_expression(a, b))
        _assert_same_bits(rotation_gyr(a, b, w), _rotation_gyr_expression(a, b, w))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_kernels_return_coordinate_major_batches_below_short_axis(dim):
    # Below SHORT_AXIS (8) the next kernel reads a batch one coordinate plane
    # at a time, so every plane out[..., j] it gets from sampling or from a
    # kernel must be contiguous, for sampled and for C-ordered operands;
    # from 8 on, where the kernels work on the whole trailing axis, the
    # batch must be in C order.
    rng = make_rng(20 + dim)
    a, b, c = (sample_ball_points(dim, 40, rng) for _ in range(3))
    probes = sample_ball_points(dim, 8, rng)
    batches = [a, probes]
    for form in (np.asarray, np.ascontiguousarray):
        for u, v, w in ((a[:, None], b[:, None], probes[None]), (a, b, c), (a[0], b[:8], c[:8])):
            u, v, w = form(u), form(v), form(w)
            batches += [mobius_add(u, v), einstein_add(u, v), phi(v), phi_inv(v),
                        mobius_gyr(u, v, w), einstein_gyr(u, v, w)]
            if dim == 2:
                batches += [cmobius_add(u, v), cmobius_gyr_factor(u, v), rotation_gyr(u, v, w)]
    for out in batches:
        assert out.shape[-1] == dim and out.ndim >= 2
        if dim < SHORT_AXIS:
            assert all(out[..., j].flags.c_contiguous for j in range(dim))
        else:
            assert out.flags.c_contiguous


@pytest.mark.parametrize("dtype", [np.float32, np.longdouble, np.int64])
@pytest.mark.parametrize("kernel", [einstein_add, mobius_add, cmobius_add, cmobius_gyr_factor])
def test_kernels_return_float64(kernel, dtype):
    # One working precision: other operand dtypes are cast to float64 on
    # entry, so no result depends on the platform's longdouble.  (As int64
    # both points of each pair are 0.)
    u = np.array([[0.25, -0.5], [0.0, 0.0]]).astype(dtype)
    v = np.array([[0.5, 0.25], [-0.5, 0.0]]).astype(dtype)
    got = kernel(u, v)
    assert got.dtype == np.float64
    _assert_same_bits(got, kernel(u.astype(float), v.astype(float)))
