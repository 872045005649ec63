"""Scalar and vector kernels shared by every ball model.

All kernels operate on the trailing axis, so the same function serves a
single point of shape ``(n,)`` and a batch of shape ``(N, n)``.
"""

import numpy as np

from .errors import BoundaryError, DomainError

# Points with norm >= 1 - BOUNDARY_GUARD are rejected: atanh and the Lorentz
# factor blow up there, and silent clamping would corrupt metric checks.
BOUNDARY_GUARD = 1e-12

# Property suites sample inside this radius so that a single global tolerance
# covers all formulas; rim behavior gets dedicated directed tests.
SAMPLE_RADIUS_CAP = 0.95

# Trailing axes shorter than this are summed coordinate by coordinate (dot,
# mobius._rim_terms) and rotated by per-pair n x n operators built and
# applied entry by entry with elementwise ufuncs, no BLAS (mobius_gyr); from
# about 8 on, O(n) work on the whole trailing axis wins.  Below it, point
# batches are stored coordinate-major (planar_empty), so every plane those
# passes read or write is contiguous; from it on they stay in C order, as
# einsum's summation order there depends on the layout.
SHORT_AXIS = 8

# Values a and b agree when |a - b| <= DEFAULT_ATOL + DEFAULT_RTOL * max(|a|, |b|)
# unless a check is given other tolerances.
DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-9


def dot(u, v):
    """Inner product of arrays over their shared trailing axis.

    Below SHORT_AXIS coordinates they are summed one at a time, one
    elementwise pass each.  numpy's pairwise summation starts at 8 terms, so
    the bits equal ``np.sum(u * v, axis=-1)`` (but a sum of -0.0 stays -0.0).
    Longer axes go through einsum, which needs no product temporary.
    """
    n = u.shape[-1]
    if n >= SHORT_AXIS:
        return np.einsum("...i,...i->...", u, v)
    s = u[..., 0] * v[..., 0]
    for j in range(1, n):
        s += u[..., j] * v[..., j]
    return s


# The axis orders that move the trailing axis of a k-axis array to the front
# (TO_FRONT[k]) and back (TO_BACK[k]).
TO_FRONT = [(k - 1, *range(k - 1)) for k in range(65)]
TO_BACK = [(*range(1, k), 0) for k in range(65)]


def planar_empty(shape):
    """A new float array of ``shape`` (..., n), coordinate-major below
    SHORT_AXIS, so that each plane out[..., j] is contiguous, and in C order
    from it on."""
    if shape[-1] >= SHORT_AXIS:
        return np.empty(shape)
    return np.empty(shape[-1:] + shape[:-1]).transpose(TO_BACK[len(shape)])


def coordinate_views(shape, *arrays):
    """A new float array ``out`` of ``shape`` (..., n), laid out by
    planar_empty, then the coordinate-first views (n, ...) of ``out`` and of
    each of ``arrays``, every array padded first to len(shape) axes so that
    its leading axes broadcast against out's.  A kernel fills ``out``
    through its view with one ufunc call per operation, per-row
    coefficients broadcasting across the coordinates.  Each entry gets the
    same operations whatever the strides of the arrays, so the bits do not
    depend on the layout."""
    out = planar_empty(shape)
    front = TO_FRONT[len(shape)]
    return out, out.transpose(front), *[x[(None,) * (len(shape) - x.ndim)].transpose(front)
                                        for x in arrays]


def euclidean_norm(v):
    v = np.asarray(v, dtype=float)
    return np.sqrt(dot(v, v))


def ensure_finite(v) -> None:
    """Raise DomainError if any coordinate is NaN or infinite."""
    if not np.all(np.isfinite(v)):
        raise DomainError("point has non-finite coordinates")


def ensure_in_ball(v) -> None:
    """Raise DomainError if any coordinate is not finite, and BoundaryError
    if any point has norm >= 1 - BOUNDARY_GUARD; a norm that overflows is inf."""
    ensure_finite(v)
    with np.errstate(over="ignore"):
        nrm = euclidean_norm(v)
    if np.any(nrm >= 1.0 - BOUNDARY_GUARD):
        worst = float(np.max(nrm))
        raise BoundaryError(
            f"point norm {worst!r} reaches the boundary guard 1 - {BOUNDARY_GUARD}"
        )


def sample_ball_points(n, count, rng, cap=SAMPLE_RADIUS_CAP):
    """Draw ``count`` points of dimension ``n`` with norm <= cap.

    Direction is uniform on the sphere (normalized Gaussian deviates);
    radius is cap * u**(1/n) for u uniform in [0, 1), which is the uniform
    distribution on the capped ball.  Deterministic given the generator
    state.  Below SHORT_AXIS the C-ordered (count, n) draw is copied
    coordinate-major, as planar_empty stores batches (for two axes that is
    Fortran order), so the values and the generator stream do not change.
    """
    z = rng.standard_normal((count, n))
    if n < SHORT_AXIS:
        z = np.asfortranarray(z)
    lengths = np.sqrt(dot(z, z))[:, None]
    lengths[lengths == 0.0] = 1.0
    u = rng.random((count, 1))
    z /= lengths
    z *= cap * u ** (1.0 / n)
    return z
