"""Property test over the public metrics and gyronorms: every array input
gives a result of the broadcast leading shape or a GyroError, never a numpy
error, a warning or an index error."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gyroball import GyroError, gyronorm_E, gyronorm_M
from gyroball.registry import GYRONORMS

# (model, callable, number of points)
TARGETS = [(model, g.metric, 2) for (model, _), g in GYRONORMS.items()] + [
    ("einstein", gyronorm_E, 1), ("mobius", gyronorm_M, 1)]

# Mostly coordinates of ball points, so that many calls get past the guard.
VALUES = st.one_of(*[st.floats(-0.7, 0.7)] * 4, st.sampled_from(
    [0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 1 - 1e-13]))


# Coordinates per point; None stands for a 0-d array, a point without a
# coordinate axis.
DIMS = st.sampled_from([None, 0, 1, 2, 3, 4])


def point_arrays(dim):
    """Arrays of 0-2 leading axes and ``dim`` coordinates."""
    if dim is None:
        return hnp.arrays(float, (), elements=VALUES)
    lead = st.lists(st.integers(0, 3), max_size=2)
    return hnp.arrays(float, lead.map(lambda lead: (*lead, dim)), elements=VALUES)


@st.composite
def calls(draw):
    model, fn, arity = draw(st.sampled_from(TARGETS))
    one_dim = DIMS.map(lambda n: [n] * arity)
    dims = draw(one_dim | st.lists(DIMS, min_size=arity, max_size=arity))
    return model, fn, [draw(point_arrays(n)) for n in dims]


@settings(max_examples=300, deadline=None, database=None)
@given(calls())
def test_public_metrics_and_gyronorms_return_or_raise_a_gyro_error(call):
    model, fn, points = call
    # The group has no rim: a sum of finite points may overflow to inf.
    with np.errstate(over="ignore" if model == "group" else "warn"):
        try:
            got = fn(*points)
        except GyroError:
            return
    assert np.shape(got) == np.broadcast_shapes(*(p.shape[:-1] for p in points))
    assert model == "group" or np.all(np.isfinite(got))
