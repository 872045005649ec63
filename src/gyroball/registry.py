"""The registry: every per-model fact in one place, read by the property
engine, the CLI and the tests."""

from collections import namedtuple

import numpy as np

from . import core, disk, einstein, mobius
from .core import GyrogroupModel, GyronormedModel
from .errors import DimensionMismatchError, DomainError, UnknownNameError
from .vectors import ensure_finite, ensure_in_ball, euclidean_norm, sample_ball_points

# One row per model: its addition, closed-form gyration, whether it is a group
# (every gyration the identity), point check, reference homomorphism target,
# default dim and default gyronorm.  The plain group (R^n, +) has no boundary
# to guard, and its reference homomorphism is doubling.  Every model samples
# points in the capped unit ball, so the same tolerances apply to all of them.
_Model = namedtuple("_Model", "add gyr trivial_gyr validate hom_target dim gyronorm")

_MODELS = {
    "einstein": _Model(einstein.einstein_add, einstein.einstein_gyr, False, ensure_in_ball,
                       "mobius", 3, "rapidity"),
    "mobius": _Model(mobius.mobius_add, mobius.mobius_gyr, False, ensure_in_ball,
                     "einstein", 3, "rapidity"),
    "poincare-disk": _Model(disk.cmobius_add, disk.rotation_gyr, False, ensure_in_ball,
                            "mobius", 2, "poincare"),
    "group": _Model(core.group_add, core.group_gyr, True, None, "group", 3, "euclidean"),
}

MODEL_NAMES = tuple(_MODELS)
DEFAULT_DIM = {name: row.dim for name, row in _MODELS.items()}
DEFAULT_GYRONORM = {name: row.gyronorm for name, row in _MODELS.items()}

# Models on the complex plane: their dim is 2, and the CLI also reads their
# points in the form "a+bi".
COMPLEX_MODELS = ("poincare-disk",)

# One gyronorm of a model.  The suites verify the distance that the engine's
# unguarded ``norm`` induces, norm(neg u (+) v); ``metric(u, v)`` is that
# distance behind ``check_points``, the one `gyroball dist` prints.  Every
# metric follows one rim rule: it raises BoundaryError when u, v or the sum
# neg u (+) v lies within 1e-12 of the rim, and DomainError on a non-finite
# coordinate (the group, with no rim, checks only that).
Gyronorm = namedtuple("Gyronorm", "norm metric")


def _metric(name, norm):
    row = _MODELS[name]

    def metric(u, v):
        """d(u, v) = norm(neg u (+) v) behind the point check; see GYRONORMS."""
        u, v = check_points(name, u, v)
        z = row.add(-u, v)
        if row.validate:
            row.validate(z)
        return norm(z)

    return metric


def _gyronorm(name, norm):
    def gyronorm(v):
        """norm(v) behind the point check of check_points."""
        (v,) = check_points(name, v)
        return norm(v)

    return gyronorm


# Both ball rapidity norms are the atanh|v| of mobius.py, the disk's is twice it.
_NORMS = {
    ("einstein", "rapidity"): einstein.rapidity_norm_unchecked,
    ("einstein", "euclidean"): euclidean_norm,
    ("mobius", "rapidity"): mobius.rapidity_norm_unchecked,
    ("poincare-disk", "poincare"): disk.poincare_norm_unchecked,
    ("group", "euclidean"): euclidean_norm,
    ("group", "discrete"): core.discrete_norm,
}
GYRONORMS = {key: Gyronorm(norm, _metric(key[0], norm)) for key, norm in _NORMS.items()}

# The public gyronorms and metrics, documented in README's Python API section.
gyronorm_E = _gyronorm("einstein", _NORMS["einstein", "rapidity"])
gyronorm_M = _gyronorm("mobius", _NORMS["mobius", "rapidity"])
rapidity_metric_dE = GYRONORMS["einstein", "rapidity"].metric
gyrometric_de = GYRONORMS["einstein", "euclidean"].metric
rapidity_metric_dM = GYRONORMS["mobius", "rapidity"].metric
poincare_metric = GYRONORMS["poincare-disk", "poincare"].metric

# The suite `topology` compares the balls of these two gyronorms, and runs
# on every model that registers both.
TOPOLOGY_GYRONORMS = ("euclidean", "rapidity")

# (from, to) -> map.  A ball model's reference homomorphism, which the
# table1 suite checks, is its conversion onto its hom_target in _MODELS.
CONVERSIONS = {
    ("mobius", "einstein"): mobius.phi,
    ("einstein", "mobius"): mobius.phi_inv,
    ("poincare-disk", "mobius"): disk.ball_coordinates,
    ("mobius", "poincare-disk"): disk.ball_coordinates,
}

_HOMS = {**CONVERSIONS, ("group", "group"): core.double}


def _build(name, dim, hom):
    row = _MODELS[name]
    return GyrogroupModel(
        name=name,
        dim=dim,
        add=row.add,
        neg=np.negative,
        sample=lambda rng, count: sample_ball_points(dim, count, rng),
        closed_gyr=row.gyr,
        hom=hom,
        validate=row.validate,
    )


def trivial_gyrations(name, dim):
    """Whether every gyration of the model is the identity map: true of a
    group, and at dim 1, where a ball gyration has no plane to turn."""
    return dim == 1 or (name in _MODELS and _MODELS[name].trivial_gyr)


def _unknown_model(name):
    return UnknownNameError(
        f"unknown model '{name}'; valid models: {', '.join(MODEL_NAMES)}"
    )


def _model_dim(name, dim):
    """The model's dim, its default when ``dim`` is None, under the one dim
    rule: dim >= 1, and dim 2 on the complex plane."""
    if dim is not None and dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if name not in MODEL_NAMES:
        raise _unknown_model(name)
    dim = DEFAULT_DIM[name] if dim is None else dim
    if name in COMPLEX_MODELS and dim != 2:
        raise DimensionMismatchError(f"model '{name}' requires dim = 2")
    return dim


def check_points(name, *points):
    """The points as float arrays, once they are points of the model: one
    shared trailing dim under the model's dim rule, leading shapes that
    broadcast, and each point passing the model's point check
    (``ensure_finite`` for a model without one).  A 0-d point has dim 0."""
    points = [np.asarray(p, dtype=float) for p in points]
    dims = {p.shape[-1] if p.ndim else 0 for p in points}
    if len(dims) != 1:
        raise DimensionMismatchError(f"points have mismatched dimensions: {sorted(dims)}")
    try:
        np.broadcast_shapes(*(p.shape for p in points))
    except ValueError:
        raise DimensionMismatchError(
            f"point batches do not broadcast: {', '.join(str(p.shape) for p in points)}"
        ) from None
    _model_dim(name, dims.pop())
    check = _MODELS[name].validate or ensure_finite
    for p in points:
        check(p)
    return points


def get_model(name, dim=None) -> GyrogroupModel:
    """Build a registered gyrogroup model, at its default dim when ``dim`` is
    None, wiring its reference homomorphism."""
    dim = _model_dim(name, dim)
    target = _MODELS[name].hom_target
    return _build(name, dim, (_build(target, dim, None), _HOMS[name, target]))


def gyronorm_names(model_name):
    if model_name not in MODEL_NAMES:
        raise _unknown_model(model_name)
    return tuple(g for m, g in GYRONORMS if m == model_name)


def resolve_gyronorm(model_name, gyronorm):
    """``gyronorm`` if the model registers it, the model's default when None."""
    names = gyronorm_names(model_name)
    name = gyronorm or DEFAULT_GYRONORM[model_name]
    if name not in names:
        raise UnknownNameError(
            f"unknown gyronorm '{name}' for model '{model_name}'; valid: {', '.join(names)}"
        )
    return name


def get_normed(model_name, dim=None, gyronorm=None) -> GyronormedModel:
    """Model plus one of its registered gyronorms (model defaults when None)."""
    model = get_model(model_name, dim=dim)
    name = resolve_gyronorm(model_name, gyronorm)
    return GyronormedModel(model, name, GYRONORMS[model_name, name].norm)
