"""Scalar and vector kernels shared by every ball model.

All kernels operate on the trailing axis, so the same function serves a
single point of shape ``(n,)`` and a batch of shape ``(N, n)``.

The arrays the kernels return, and their block-sized scratch, come from
planar_empty, which reuses the memory of arrays that nothing references
any more (see _POOL).  A kernel writes every entry of such an array before
it reads it, so the reuse moves no bit of any result.
"""

import math
import sys
import threading

import numpy as np

from .errors import BoundaryError, DomainError

# Points with norm >= 1 - BOUNDARY_GUARD are rejected: atanh and the Lorentz
# factor blow up there, and silent clamping would corrupt metric checks.
BOUNDARY_GUARD = 1e-12

# Property suites sample inside this radius so that a single global tolerance
# covers all formulas; rim behavior gets dedicated directed tests.
SAMPLE_RADIUS_CAP = 0.95

# Trailing axes shorter than this are summed coordinate by coordinate (dot)
# and rotated by per-pair n x n operators built and applied entry by entry
# with elementwise ufuncs, no BLAS (mobius_gyr); from about 8 on, O(n) work
# on the whole trailing axis wins.  Below it, point batches are stored
# coordinate-major (planar_empty), so every plane those passes read or write
# is contiguous; from it on they stay in C order, as einsum's summation order
# there depends on the layout.
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


# Probe checks run on blocks of pairs whose (block, P, n) arrays hold at most
# BLOCK_ELEMENTS elements, 256 KiB of float64 (engine.probe_blocks).
BLOCK_ELEMENTS = 1 << 15

# planar_empty takes arrays of _POOL_FLOOR bytes or more from a pool of at
# most _POOL_CAP bytes, six float64 probe-block arrays; smaller ones, such
# as single points, come straight from np.empty.
_POOL_FLOOR = 1 << 16
_POOL_CAP = 6 * 8 * BLOCK_ELEMENTS


def _refcount(held, i):
    """The reference count of ``held[i]``.  The pool reads every count here,
    so that each carries the same references of this function's own."""
    return sys.getrefcount(held[i])


# The count of a buffer that only a list references: read, not fixed, as
# interpreters differ in the references they borrow.
_IDLE_REFS = _refcount([np.empty(0)], 0)


class _Pool(threading.local):
    """The float64 buffers that planar_empty has handed out, held so that it
    can hand them out again once they are idle.  As a threading.local, it
    shows each thread its own list ``held``, least recently handed out first.

    A buffer is idle when nothing but the pool references it.  Every numpy
    view holds its base array, so a buffer is idle exactly when its
    reference count is _IDLE_REFS, whether it was handed out as it is or as
    a view.  A request takes the most recently handed out idle buffer of
    its shape, as that is the likeliest to be in cache.  The held buffers
    total at most _POOL_CAP bytes: a new buffer no larger than that first
    evicts idle ones, least recently handed out first, and is not held if
    it still does not fit.  What is evicted or never held is freed as numpy
    frees any array.
    """

    def __init__(self):
        self.held = []

    def take(self, shape):
        """A C-ordered float64 array of ``shape`` that nothing else
        references, idle or new."""
        held = self.held
        for i in range(len(held) - 1, -1, -1):
            if held[i].shape == shape and _refcount(held, i) == _IDLE_REFS:
                held.append(held.pop(i))
                return held[-1]
        buf, i = np.empty(shape), 0
        excess = sum(b.nbytes for b in held) + buf.nbytes - _POOL_CAP
        while excess > 0 and buf.nbytes <= _POOL_CAP and i < len(held):
            if _refcount(held, i) == _IDLE_REFS:
                excess -= held.pop(i).nbytes
            else:
                i += 1
        if excess <= 0:
            held.append(buf)
        return buf


_POOL = _Pool()


def planar_empty(shape):
    """A new float array of ``shape`` (..., n), coordinate-major below
    SHORT_AXIS, so that each plane out[..., j] is contiguous, and in C order
    from it on.  Its entries are arbitrary: from _POOL_FLOOR bytes on it
    comes from this thread's pool (_POOL) and may hold the values of an
    array dropped before."""
    new = np.empty if 8 * math.prod(shape) < _POOL_FLOOR else _POOL.take
    if shape[-1] >= SHORT_AXIS:
        return new(shape)
    return new(shape[-1:] + shape[:-1]).transpose(TO_BACK[len(shape)])


def coordinate_views(shape, *arrays):
    """A new float array ``out`` of ``shape`` (..., n), laid out by
    planar_empty, then the coordinate-first views (n, ...) of ``out`` and of
    each of ``arrays``, every array padded first to len(shape) axes so that
    its leading axes broadcast against out's.  A kernel fills ``out``
    through its view with one ufunc call per operation, per-row
    coefficients broadcasting across the coordinates.  Each entry gets the
    same operations whatever the strides of the arrays, so the bits do not
    depend on the layout.  With no arrays, the view of ``out`` is a scratch
    buffer in the layout of an output's view."""
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
