"""Scalar and vector kernels shared by every ball model.

All kernels operate on the trailing axis, so the same function serves a
single point of shape ``(n,)`` and a batch of shape ``(N, n)``.

The arrays the kernels return, and their block-sized scratch, come from
planar_empty, which reuses the memory of arrays that nothing references
any more (see _Pool).  A kernel writes every entry of such an array before
it reads it, so the reuse moves no bit of any result.
"""

import math
import sys
import threading
from collections import OrderedDict

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


# Probe checks run on blocks of pairs whose (block, P, n) arrays hold at most
# BLOCK_ELEMENTS elements, 256 KiB of float64 (engine.probe_blocks).
BLOCK_ELEMENTS = 1 << 15

# planar_empty takes arrays of _POOL_FLOOR bytes or more from a pool of at
# most _POOL_CAP bytes, six float64 probe-block arrays; smaller ones, such
# as single points, come straight from np.empty.
_POOL_FLOOR = 1 << 16
_POOL_CAP = 6 * 8 * BLOCK_ELEMENTS


def _refcount(held, key):
    """The reference count of ``held[key]``.  The pool reads every count
    here, its calibration included, so that each count carries the same
    references of this function's own."""
    return sys.getrefcount(held[key])


class _Pool:
    """The float64 buffers that planar_empty has handed out on one thread,
    held so that it can hand them out again once they are idle.

    A buffer is idle when nothing but the pool references it.  Every numpy
    view holds its base array, so a buffer is idle exactly when its
    reference count is the one the pool itself gives it, ``idle_refs``,
    whether it was handed out as it is or as a view.  That count is read
    once, on a buffer that only the pool holds, rather than fixed, as
    interpreters differ in the references they borrow.

    ``held`` maps id(buffer) to buffer, least recently handed out first,
    and ``shapes`` maps a shape to the ids of the held buffers of that
    shape, in the same order.  A request scans only the buffers of its
    shape, most recently handed out first, as those are the likeliest to
    be in cache.  The held buffers total at most _POOL_CAP bytes: a new
    buffer first evicts idle ones, least recently handed out first, and is
    not held if it still does not fit.  What is evicted or never held is
    freed as numpy frees any array.
    """

    def __init__(self):
        self.held = OrderedDict()
        self.shapes = {}
        self.nbytes = 0
        self.held[0] = np.empty(0)
        self.idle_refs = _refcount(self.held, 0)
        self.held.clear()

    def take(self, shape):
        """A C-ordered float64 array of ``shape`` that nothing else
        references, idle or new."""
        held, keys = self.held, self.shapes.get(shape, ())
        for i in range(len(keys) - 1, -1, -1):
            if _refcount(held, keys[i]) == self.idle_refs:
                key = keys.pop(i)
                keys.append(key)
                held.move_to_end(key)
                return held[key]
        buf = np.empty(shape)
        if buf.nbytes <= _POOL_CAP:
            self._evict(self.nbytes + buf.nbytes - _POOL_CAP)
        if self.nbytes + buf.nbytes <= _POOL_CAP:
            held[id(buf)] = buf
            self.shapes.setdefault(shape, []).append(id(buf))
            self.nbytes += buf.nbytes
        return buf

    def _evict(self, nbytes):
        """Stop holding idle buffers of at least ``nbytes`` bytes in all,
        least recently handed out first, or every idle buffer if they hold
        fewer."""
        for key in list(self.held):
            if nbytes <= 0:
                return
            if _refcount(self.held, key) == self.idle_refs:
                buf = self.held.pop(key)
                keys = self.shapes[buf.shape]
                keys.remove(key)
                if not keys:
                    del self.shapes[buf.shape]
                self.nbytes -= buf.nbytes
                nbytes -= buf.nbytes


class _Threads(threading.local):
    """Each thread's own pool, made on the thread's first request."""

    def __init__(self):
        self.pool = _Pool()


_THREADS = _Threads()


def planar_empty(shape):
    """A new float array of ``shape`` (..., n), coordinate-major below
    SHORT_AXIS, so that each plane out[..., j] is contiguous, and in C order
    from it on.  Its entries are arbitrary: from _POOL_FLOOR bytes on it
    comes from this thread's pool (_Pool) and may hold the values of an
    array dropped before."""
    new = np.empty if 8 * math.prod(shape) < _POOL_FLOOR else _THREADS.pool.take
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
