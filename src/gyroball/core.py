"""Abstract gyrogroup machinery.

A :class:`GyrogroupModel` bundles identity, addition, negation and (optionally)
a closed-form gyration over some carrier; gyrations default to the gyrator
identity, and closed forms are cross-checked against it by the table suite
rather than trusted.  A :class:`GyronormedModel` adds a length function, from
which the induced metric, witness isometries, and the decomposition of
isometries are built generically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegeneracyError, LeftInvarianceError
from .rng import make_rng
from .vectors import DEFAULT_ATOL, DEFAULT_RTOL, euclidean_norm

# Sampled triples (a, x, y) on which gyronorm_from_metric checks left invariance.
INVARIANCE_SAMPLES = 200


@dataclass(frozen=True, eq=False)
class GyrogroupModel:
    """A concrete gyrogroup over an array carrier.

    ``add``/``neg``/``closed_gyr`` operate on the trailing axis and must
    broadcast over the leading axes, so the engine can evaluate whole sample
    batches at once: the probe checks pass blocks of (a, b) pairs of shape
    (B, 1, n) with probe points of shape (1, P, n) and expect (B, P, n)
    results, row for row the bits of any other block.  The vectors that
    ``closed_gyr`` turns may have more leading axes than a and b: the suites
    stack the vectors that one gyrator turns, as (k, N, n) against (N, n)
    pairs, and slice i of the result must have the bits of a call on slice
    i alone.
    ``hom``, when present, is a pair ``(target_model, map)`` giving a
    reference gyrogroup homomorphism used by the gyration-preservation check.
    """

    name: str
    dim: int
    add: Callable
    neg: Callable
    sample: Callable  # sample(rng, count) -> (count, dim) array
    closed_gyr: Optional[Callable] = None
    hom: Optional[tuple] = None
    validate: Optional[Callable] = None

    @property
    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def gyr(self, a, b, c):
        """Gyration gyr[a, b]c; closed form when the model has one."""
        if self.closed_gyr is not None:
            return self.closed_gyr(a, b, c)
        return gyr_via_gyrator_identity(self, a, b, c)


def gyr_via_gyrator_identity(m: GyrogroupModel, a, b, c):
    """gyr[a, b]c computed from additions alone: the reference oracle.

    Every registered model has a closed-form gyration, so this path serves
    as the independent computation that the ``table1`` ``gyrator-identity``
    property and the tests compare those closed forms against, and as the
    fallback for models without one.  Evaluated in float64, as every kernel
    is: the ball additions keep their accuracy where a sum nears the rim, so
    at the sampling cap 0.95 this is within about 1e-13 of a 60-digit
    reference.  1e-6 from the rim, the rounding of the inner sums alone
    costs up to about 1e-10.
    """
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    return m.add(m.neg(m.add(a, b)), m.add(a, m.add(b, c)))


@dataclass(frozen=True, eq=False)
class GyronormedModel:
    """A gyrogroup model with a gyronorm attached."""

    model: GyrogroupModel
    norm_name: str
    norm: Callable

    def distance(self, x, y):
        """The induced metric d(x, y) = norm(neg(x) + y)."""
        m = self.model
        return self.norm(m.add(m.neg(x), y))


def gyronorm_from_metric(m, d, rng=None):
    """Recover the gyronorm x -> d(e, x) from a left-invariant metric.

    Left invariance is checked on sampled triples, not assumed; a violation
    beyond the default tolerance raises LeftInvarianceError carrying the
    witness.
    """
    rng = rng if rng is not None else make_rng(0)
    a = m.sample(rng, INVARIANCE_SAMPLES)
    x = m.sample(rng, INVARIANCE_SAMPLES)
    y = m.sample(rng, INVARIANCE_SAMPLES)
    lhs = np.asarray(d(m.add(a, x), m.add(a, y)), dtype=float)
    rhs = np.asarray(d(x, y), dtype=float)
    bound = DEFAULT_ATOL + DEFAULT_RTOL * np.maximum(np.abs(lhs), np.abs(rhs))
    with np.errstate(invalid="ignore"):
        excess = np.abs(lhs - rhs) - bound
    # A NaN or infinite distance violates the check; NaN > 0 would not.
    excess[~(np.isfinite(lhs) & np.isfinite(rhs))] = np.inf
    if np.any(excess > 0.0):
        i = int(np.argmax(excess))
        raise LeftInvarianceError(
            "metric is not invariant under left gyrotranslation on samples",
            witness={
                "a": a[i].tolist(),
                "x": x[i].tolist(),
                "y": y[i].tolist(),
                "d_translated": float(lhs[i]),
                "d_original": float(rhs[i]),
            },
        )
    e = m.identity

    def norm(z):
        return d(e, z)

    return norm


# --- isometry specifications -------------------------------------------------

@dataclass(frozen=True, eq=False)
class LeftTranslation:
    """x -> point + x."""

    point: np.ndarray


@dataclass(frozen=True, eq=False)
class Gyration:
    """x -> gyr[a, b]x."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class IsometrySpec:
    """Finite composition of primitive isometries, applied left to right.

    The empty sequence is the identity map.  Kept as explicit data (rather
    than an opaque callable) so decompositions can read off f(e) and extend
    a map by further steps.  Step points may be batches of shape (N, n), one
    map per row.
    """

    steps: tuple = ()


def apply_isometry(m: GyrogroupModel, spec: IsometrySpec, x):
    """Apply the steps of ``spec`` to ``x``, first step first."""
    for step in spec.steps:
        if isinstance(step, LeftTranslation):
            x = m.add(step.point, x)
        elif isinstance(step, Gyration):
            x = m.gyr(step.a, step.b, x)
        else:
            raise TypeError(f"unknown isometry step {step!r}")
    return x


def homogeneity_witness(m: GyrogroupModel, x, y) -> IsometrySpec:
    """Isometry mapping x to y: translate x to the identity, then to y."""
    return IsometrySpec((LeftTranslation(m.neg(np.asarray(x, dtype=float))),
                         LeftTranslation(np.asarray(y, dtype=float))))


def isotropy_spec(m: GyrogroupModel, p, a, b) -> IsometrySpec:
    """L_p o gyr[a, b] o L_{neg p}, an isometry fixing p; the identity map
    when gyr[a, b] is."""
    p = np.asarray(p, dtype=float)
    return IsometrySpec((LeftTranslation(m.neg(p)), Gyration(np.asarray(a, dtype=float),
                                                             np.asarray(b, dtype=float)),
                         LeftTranslation(p)))


def isotropy_witness(m: GyrogroupModel, p, a, b) -> IsometrySpec:
    """Nonidentity isometry fixing p, conjugating the gyration gyr[a, b].

    Raises DegeneracyError when gyr[a, b] is the identity map on 8 sampled
    probe points, as happens for every gyration of a plain group.
    """
    probes = m.sample(make_rng(0), 8)
    moved = euclidean_norm(m.gyr(a, b, probes) - probes)
    if np.all(moved <= DEFAULT_ATOL + DEFAULT_RTOL * euclidean_norm(probes)):
        raise DegeneracyError(
            "gyr[a, b] is the identity map on all probe points; "
            "no nonidentity isometry can be built from it"
        )
    return isotropy_spec(m, p, a, b)


def mazur_ulam_decompose(nm: GyronormedModel, f: IsometrySpec):
    """Split an isometry as a left translation by f(e) after a map fixing e.

    Returns (t, rho) with t = f(e) and rho = L_{neg t} o f; rho fixes the
    identity and is an isometry, and L_t o rho reproduces f.
    """
    m = nm.model
    t = apply_isometry(m, f, m.identity)
    rho = IsometrySpec(f.steps + (LeftTranslation(m.neg(t)),))
    return t, rho


# --- the plain group (R^n, +), a gyrogroup with trivial gyrations -----------

def group_add(a, b):
    return np.asarray(a, dtype=float) + np.asarray(b, dtype=float)


def group_gyr(a, b, c):
    """Every gyration of a group is the identity map: c broadcast against a
    and b, as a read-only view."""
    return np.broadcast_to(
        np.asarray(c, dtype=float),
        np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c)),
    )


def double(v):
    """v -> 2v, an automorphism of the group."""
    return 2.0 * np.asarray(v, dtype=float)


def discrete_norm(x):
    """Gyronorm that is 0 at the identity and 1 elsewhere; floating carriers
    need a threshold for "at the identity"."""
    return np.where(euclidean_norm(x) <= 1e-9, 0.0, 1.0)
