"""Model and gyronorm registry consumed by the property engine and the CLI."""

import numpy as np

from . import disk, einstein, mobius
from .core import GyrogroupModel, GyronormedModel, discrete_gyronorm, group_adapter
from .errors import DimensionMismatchError, DomainError, UnknownNameError
from .vectors import ensure_in_ball, euclidean_norm, sample_ball_points

MODEL_NAMES = ("einstein", "mobius", "poincare-disk", "group")


def _validate_ball(dim):
    def check(v):
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != dim:
            raise DimensionMismatchError(
                f"expected a point of dimension {dim}, got {v.shape[-1]}"
            )
        ensure_in_ball(v)
        return v

    return check


def _einstein_model(dim):
    return GyrogroupModel(
        name="einstein",
        dim=dim,
        add=einstein.einstein_add,
        neg=np.negative,
        sample=lambda rng, count: sample_ball_points(dim, count, rng),
        closed_gyr=einstein.einstein_gyr,
        validate=_validate_ball(dim),
    )


def _mobius_model(dim):
    return GyrogroupModel(
        name="mobius",
        dim=dim,
        add=mobius.mobius_add,
        neg=np.negative,
        sample=lambda rng, count: sample_ball_points(dim, count, rng),
        closed_gyr=mobius.mobius_gyr,
        validate=_validate_ball(dim),
    )


def _disk_model():
    return GyrogroupModel(
        name="poincare-disk",
        dim=2,
        add=disk.cmobius_add,
        neg=np.negative,
        sample=lambda rng, count: sample_ball_points(2, count, rng),
        closed_gyr=disk.rotation_gyr,
        validate=_validate_ball(2),
    )


def get_model(name, dim=3) -> GyrogroupModel:
    """Build a registered gyrogroup model, wiring its reference homomorphism."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if name == "einstein":
        m = _einstein_model(dim)
        object.__setattr__(m, "hom", (_mobius_model(dim), mobius.phi_inv))
        return m
    if name == "mobius":
        m = _mobius_model(dim)
        object.__setattr__(m, "hom", (_einstein_model(dim), mobius.phi))
        return m
    if name == "poincare-disk":
        if dim != 2:
            raise DimensionMismatchError("model 'poincare-disk' requires dim = 2")
        m = _disk_model()
        # The carrier identification (x, y) <-> x + iy is an isomorphism onto
        # the 2-dimensional vector Mobius model.
        object.__setattr__(m, "hom", (_mobius_model(2), lambda z: np.asarray(z, dtype=float)))
        return m
    if name == "group":
        return group_adapter(dim).model
    raise UnknownNameError(
        f"unknown model '{name}'; valid models: {', '.join(MODEL_NAMES)}"
    )


_GYRONORMS = {
    "einstein": {
        "rapidity": lambda m: einstein.rapidity_norm_unchecked,
        "euclidean": lambda m: euclidean_norm,
    },
    "mobius": {
        "rapidity": lambda m: mobius.rapidity_norm_unchecked,
    },
    "poincare-disk": {
        "poincare": lambda m: disk.poincare_norm_unchecked,
    },
    "group": {
        "euclidean": lambda m: euclidean_norm,
        "discrete": lambda m: discrete_gyronorm(m).norm,
    },
}

DEFAULT_GYRONORM = {
    "einstein": "rapidity",
    "mobius": "rapidity",
    "poincare-disk": "poincare",
    "group": "euclidean",
}


def gyronorm_names(model_name):
    try:
        return tuple(_GYRONORMS[model_name])
    except KeyError:
        raise UnknownNameError(
            f"unknown model '{model_name}'; valid models: {', '.join(MODEL_NAMES)}"
        ) from None


def get_normed(model_name, dim=3, gyronorm=None) -> GyronormedModel:
    """Model plus one of its registered gyronorms (model default when None)."""
    model = get_model(model_name, dim=dim)
    name = gyronorm or DEFAULT_GYRONORM[model_name]
    try:
        factory = _GYRONORMS[model_name][name]
    except KeyError:
        valid = ", ".join(gyronorm_names(model_name))
        raise UnknownNameError(
            f"unknown gyronorm '{name}' for model '{model_name}'; valid: {valid}"
        ) from None
    return GyronormedModel(model, name, factory(model))
