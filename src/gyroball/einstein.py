"""Einstein gyrogroup on the open unit ball.

Gyrations, per-pair rotation operators below dim 8 built and applied from
elementwise passes with no BLAS, so with the same bits on every CPU, are
borrowed from the Mobius model: phi is radial and gyrations are orthogonal,
so gyr_E[u, v] = gyr_M[phi_inv u, phi_inv v].  So is the engine-facing rapidity
gyronorm atanh|v| (rapidity_norm_unchecked); the registry builds the guarded
gyronorm_E on it.
"""

import numpy as np

from .mobius import mobius_gyr, phi_inv, rapidity_norm_unchecked
from .vectors import coordinate_views, dot


def einstein_add(u, v):
    """Relativistic velocity addition of ball points (trailing axis):
    (u + v / gamma + (gamma / (1 + gamma)) (u.v) u) / (1 + u.v), gamma the
    Lorentz factor of u, evaluated in that order."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ip = dot(u, v)
    gamma = 1.0 / np.sqrt(1.0 - dot(u, u))
    coef = gamma / (1.0 + gamma) * ip
    out, o, ut, vt = coordinate_views(np.broadcast_shapes(u.shape, v.shape), u, v)
    np.divide(vt, gamma, out=o)
    o += ut
    # The product takes o's layout: from SHORT_AXIS on, where out is in C
    # order, numpy would lay it out coordinate-major, and the sum runs slower.
    o += np.multiply(coef, ut, out=coordinate_views(out.shape)[1])
    o /= 1.0 + ip
    return out


def einstein_gyr(u, v, w):
    """Closed-form gyration gyr[u, v]w, through the isomorphism phi."""
    return mobius_gyr(phi_inv(u), phi_inv(v), w)
