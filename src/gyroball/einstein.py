"""Einstein gyrogroup on the open unit ball.

Gyrations, per-pair rotation matrices below dim 8, are borrowed from the
Mobius model: phi is radial and gyrations are orthogonal, so
gyr_E[u, v] = gyr_M[phi_inv u, phi_inv v].
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .mobius import mobius_gyr, phi_inv
from .vectors import (
    arctanh_unchecked,
    atanh_guarded,
    dot,
    ensure_in_ball,
    euclidean_norm,
    promote_float,
    sample_ball_points,
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
    return gyronorm_E(einstein_add(-np.asarray(u, dtype=float), v))


def gyrometric_de(u, v):
    """Euclidean-gyronorm metric |neg u + v|; always <= the rapidity metric."""
    u = np.asarray(u, dtype=float)
    ensure_in_ball(u)
    ensure_in_ball(np.asarray(v, dtype=float))
    return euclidean_norm(einstein_add(-u, v))


def rapidity_norm_unchecked(v):
    """Engine-facing rapidity norm; out-of-ball rows become non-finite."""
    return arctanh_unchecked(euclidean_norm(v))


@dataclass
class InclusionCheck:
    """Outcome of a metric-ball inclusion run around one center."""

    eps: float
    trials: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def topology_ball_inclusion(u, eps, trials, rng) -> InclusionCheck:
    """Check that the two Einstein metrics generate the same topology at u.

    Samples points w with d_e(u, w) < tanh(eps) and asserts d_E(u, w) < eps
    (the tanh(eps) radius choice), and conversely that d_E(u, w) < eps forces
    d_e(u, w) < eps (d_e never exceeds d_E).  Violations are reported as
    counterexamples.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    u = np.asarray(u, dtype=float)
    ensure_in_ball(u)
    delta = np.tanh(eps)
    # d_e(u, u + s) = |s| by left cancellation, so sampling s directly gives
    # points in the d_e-ball of radius delta without rejection.
    s = sample_ball_points(u.shape[-1], trials, rng, cap=delta * (1.0 - 1e-9))
    w = einstein_add(u, s)
    de = gyrometric_de(u, w)
    dE = rapidity_metric_dE(u, w)
    forward_ok = (de < delta) & (dE < eps)
    reverse_ok = ~(dE < eps) | (de < eps)
    ordering_ok = de <= dE + 1e-15
    check = InclusionCheck(eps=float(eps), trials=int(trials))
    for i in np.flatnonzero(~(forward_ok & reverse_ok & ordering_ok)):
        check.violations.append({
            "w": w[i].tolist(),
            "d_e": float(de[i]),
            "d_E": float(dE[i]),
        })
    return check
