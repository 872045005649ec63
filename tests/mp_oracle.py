"""60-digit mpmath reference arithmetic for the ball models.

Inputs are float arrays (one point or a batch on the trailing axis); every
operation runs in 60-digit precision on the exact binary values of the
inputs, and results are rounded back to float once, at the end, as an
array with one row per input row.
"""

import mpmath
import numpy as np

DIGITS = 60


def _dot(u, v):
    return mpmath.fsum(x * y for x, y in zip(u, v))


def einstein_add(u, v):
    ip = _dot(u, v)
    gamma = 1 / mpmath.sqrt(1 - _dot(u, u))
    k = gamma / (1 + gamma) * ip
    return [(x + y / gamma + k * x) / (1 + ip) for x, y in zip(u, v)]


def mobius_add(u, v):
    ip, usq, vsq = _dot(u, v), _dot(u, u), _dot(v, v)
    den = 1 + 2 * ip + usq * vsq
    return [((1 + 2 * ip + vsq) * x + (1 - usq) * y) / den for x, y in zip(u, v)]


ADD = {"einstein": einstein_add, "mobius": mobius_add}


def _rows(fn, *arrays):
    """Apply ``fn`` to each row of ``arrays`` as lists of mpf, rounding the
    result back to float."""
    arrays = [np.atleast_2d(np.asarray(a, dtype=float)) for a in arrays]
    out = []
    with mpmath.workdps(DIGITS):
        for row in zip(*arrays):
            args = [[mpmath.mpf(float(x)) for x in point] for point in row]
            out.append([float(x) for x in fn(*args)])
    return np.array(out)


def add(model_name, a, b):
    """a + b in the model's addition."""
    return _rows(ADD[model_name], a, b)


def gyr(model_name, a, b, c):
    """gyr[a, b]c from the gyrator identity, neg(a + b) + (a + (b + c))."""
    add = ADD[model_name]

    def one(a, b, c):
        return add([-x for x in add(a, b)], add(a, add(b, c)))

    return _rows(one, a, b, c)


def phi_inv(w):
    """w -> (1 - sqrt(1 - |w|^2)) / |w|^2 * w, the radical form; w != 0."""

    def one(w):
        wsq = _dot(w, w)
        return [(1 - mpmath.sqrt(1 - wsq)) / wsq * x for x in w]

    return _rows(one, w)


def rapidity(v):
    """atanh|v|, the rapidity gyronorm, one value per row."""
    return _rows(lambda v: [mpmath.atanh(mpmath.sqrt(_dot(v, v)))], v)[:, 0]
