"""Complex Mobius gyrogroup on the unit disk.

Disk points are real pairs (re, im); the complex product and conjugation are
explicit kernels so the carrier stays a float array like the ball models and
the arithmetic is auditable.
"""

import numpy as np

from .errors import DimensionMismatchError
from .mobius import rapidity_norm_unchecked
from .vectors import dot, promote_float

_ONE = np.array([1.0, 0.0])


def cmul(a, b):
    """Complex product of real pairs."""
    a = promote_float(a)
    b = promote_float(b)
    re = a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
    im = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return np.stack([re, im], axis=-1)


def conj(a):
    a = promote_float(a)
    return np.stack([a[..., 0], -a[..., 1]], axis=-1)


def cdiv(a, b):
    b = promote_float(b)
    return cmul(a, conj(b)) / dot(b, b)[..., None]


def cmobius_add(a, b):
    """Disk addition (a + b) / (1 + conj(a) b)."""
    a = promote_float(a)
    b = promote_float(b)
    return cdiv(a + b, _ONE + cmul(conj(a), b))


def cmobius_gyr_factor(a, b):
    """Unimodular rotation factor (1 + a conj(b)) / (1 + conj(a) b)."""
    return cdiv(_ONE + cmul(a, conj(b)), _ONE + cmul(conj(a), b))


def rotation_gyr(a, b, w):
    """Closed-form disk gyration: multiplication by the rotation factor."""
    return cmul(cmobius_gyr_factor(a, b), w)


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
