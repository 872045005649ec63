"""Einstein gyrogroup on the open unit ball.

Gyrations, per-pair rotation matrices below dim 8, are borrowed from the
Mobius model: phi is radial and gyrations are orthogonal, so
gyr_E[u, v] = gyr_M[phi_inv u, phi_inv v].
"""

import numpy as np

from .mobius import mobius_gyr, phi_inv
from .vectors import (
    arctanh_unchecked,
    atanh_guarded,
    dot,
    ensure_in_ball,
    euclidean_norm,
    promote_float,
)


def einstein_add(u, v):
    """Relativistic velocity addition of ball points (trailing axis)."""
    u = promote_float(u)
    v = promote_float(v)
    ip = dot(u, v)[..., None]
    gamma = 1.0 / np.sqrt(1.0 - dot(u, u)[..., None])
    out = v / gamma
    out += u
    out += (gamma / (1.0 + gamma)) * ip * u
    out /= 1.0 + ip
    return out


def einstein_gyr(u, v, w):
    """Closed-form gyration gyr[u, v]w, through the isomorphism phi."""
    return mobius_gyr(phi_inv(u), phi_inv(v), w)


def gyronorm_E(v):
    """Rapidity gyronorm atanh(|v|); raises near the rim."""
    v = np.asarray(v, dtype=float)
    ensure_in_ball(v)
    return atanh_guarded(euclidean_norm(v))


def rapidity_metric_dE(u, v):
    """Rapidity metric atanh(|neg u + v|), the Cayley-Klein distance."""
    u = np.asarray(u, dtype=float)
    ensure_in_ball(u)
    ensure_in_ball(np.asarray(v, dtype=float))
    return gyronorm_E(einstein_add(-u, v))


def gyrometric_de(u, v):
    """Euclidean-gyronorm metric |neg u + v|; always <= the rapidity metric."""
    u = np.asarray(u, dtype=float)
    ensure_in_ball(u)
    ensure_in_ball(np.asarray(v, dtype=float))
    return euclidean_norm(einstein_add(-u, v))


def rapidity_norm_unchecked(v):
    """Engine-facing rapidity norm; out-of-ball rows become non-finite."""
    return arctanh_unchecked(euclidean_norm(v))
