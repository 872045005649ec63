"""Complex Mobius gyrogroup on the unit disk.

Disk points are real pairs (re, im), so the carrier stays a float array like
the ball models.  The complex arithmetic is written out on the two coordinate
planes, each filled in place, so the kernels build no stacked pairs: the sum
1 + conj(a) b adds 0.0 to its imaginary part, which turns -0.0 into +0.0 as
the complex sum does, and a quotient n / d is n conj(d) / |d|^2.
"""

import numpy as np

from .errors import DimensionMismatchError
from .mobius import rapidity_norm_unchecked
from .vectors import planar_empty


def _one_plus_conj_times(a, b):
    """The planes (re, im) of 1 + conj(a) b."""
    re = a[..., 0] * b[..., 0]
    re += a[..., 1] * b[..., 1]
    re += 1.0
    im = a[..., 0] * b[..., 1]
    im -= a[..., 1] * b[..., 0]
    im += 0.0
    return re, im


def _quotient(n, d):
    """(n0 + i n1) / (d0 + i d1) for plane pairs n, d of one shape, as a new
    coordinate-major (..., 2) array (planar_empty)."""
    (n0, n1), (d0, d1) = n, d
    den = d0 * d0
    den += d1 * d1
    out = planar_empty(np.shape(d0) + (2,))
    re, im = out[..., 0], out[..., 1]
    np.multiply(n0, d0, out=re)
    re += n1 * d1
    re /= den
    np.multiply(n1, d0, out=im)
    im -= n0 * d1
    im /= den
    return out


def cmobius_add(a, b):
    """Disk addition (a + b) / (1 + conj(a) b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = (a[..., 0] + b[..., 0], a[..., 1] + b[..., 1])
    return _quotient(s, _one_plus_conj_times(a, b))


def cmobius_gyr_factor(a, b):
    """Unimodular rotation factor (1 + a conj(b)) / (1 + conj(a) b), its
    numerator computed as 1 + conj(b) a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _quotient(_one_plus_conj_times(b, a), _one_plus_conj_times(a, b))


def rotation_gyr(a, b, w):
    """Closed-form disk gyration: multiplication by the rotation factor."""
    f = cmobius_gyr_factor(a, b)
    w = np.asarray(w, dtype=float)
    out = planar_empty(np.broadcast_shapes(f.shape, w.shape))
    re, im = out[..., 0], out[..., 1]
    np.multiply(f[..., 0], w[..., 0], out=re)
    re -= f[..., 1] * w[..., 1]
    np.multiply(f[..., 0], w[..., 1], out=im)
    im += f[..., 1] * w[..., 0]
    return out


def poincare_norm_unchecked(z):
    """Engine-facing disk gyronorm 2 atanh|z|; no boundary guard."""
    return 2.0 * rapidity_norm_unchecked(z)


def ball_coordinates(p):
    """The carrier identification x + iy <-> (x, y) between the disk and the
    2-dimensional vector Mobius ball, an isomorphism; the identity on
    coordinates, defined for 2-vectors only.  An unchecked kernel, like phi:
    it checks the dim but no point; ``gyroball convert`` checks them."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 2:
        raise DimensionMismatchError("disk conversions require dim = 2")
    return p
