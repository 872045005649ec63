"""Mobius gyrogroup on the open unit ball and its isomorphism with the
Einstein model.

The rapidity gyronorm atanh|v| is written here once, engine-facing, for every
model that has it: on the Mobius ball it is half the Einstein rapidity of
phi(v) by the hyperbolic double angle, the Einstein ball takes it as is, and
the disk's Poincare gyronorm is twice it.  The registry builds the public
gyronorms and metrics on it, behind the model's point check
(``registry.check_points``).
"""

import numpy as np

from .vectors import SHORT_AXIS, coordinate_views, dot, euclidean_norm


def _rim_terms(u, v):
    """|u + v|^2, pu = 1 - |u|^2 and pv = 1 - |v|^2 over the shared trailing
    axis, each a sum of nonnegative terms near the rim.  Below SHORT_AXIS
    |u + v|^2 is summed plane by plane, with the bits of ``dot(u + v, u + v)``
    but no u + v array of the broadcast shape."""
    n = u.shape[-1]
    if n >= SHORT_AXIS:
        s = u + v
        ssq = dot(s, s)
    else:
        ssq = u[..., 0] + v[..., 0]
        ssq *= ssq
        for j in range(1, n):
            s = u[..., j] + v[..., j]
            s *= s
            ssq += s
    return ssq, 1.0 - dot(u, u), 1.0 - dot(v, v)


def mobius_add(u, v):
    """Mobius addition of ball points (trailing axis):
    ((1 + 2 u.v + |v|^2) u + (1 - |u|^2) v) / (1 + 2 u.v + |u|^2 |v|^2),
    evaluated as ((|u + v|^2 + pu) u + pu v) / (|u + v|^2 + pu pv), in that
    order, so that near the rim no term of size 1 cancels (see mobius_gyr)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    ssq, pu, pv = _rim_terms(u, v)
    out, o, ut, vt = coordinate_views(np.broadcast_shapes(u.shape, v.shape), u, v)
    np.multiply(ssq + pu, ut, out=o)
    o += pu * vt
    o /= ssq + pu * pv
    return out


def phi(v):
    """Isomorphism onto the Einstein model: v -> 2v / (1 + |v|^2).

    An unchecked kernel, as phi_inv is: the engine's homomorphism check calls
    them, and ``einstein_gyr`` calls phi_inv, on every batch, so they check no
    points, and phi maps a point outside the ball inside it.  ``gyroball
    convert`` is the checked entry point.
    """
    v = np.asarray(v, dtype=float)
    out, o, vt = coordinate_views(v.shape, v)
    np.multiply(2.0, vt, out=o)
    o /= 1.0 + dot(v, v)
    return out


def phi_inv(w):
    """Inverse of phi: w -> w / (1 + sqrt(1 - |w|^2)).

    This is the radical form (1 - sqrt(1 - |w|^2)) / |w|^2 times w with the
    cancelling difference rationalised away, so it needs no branch at w = 0.
    An unchecked kernel, like phi: a point outside the ball gives NaN.
    """
    w = np.asarray(w, dtype=float)
    out, o, wt = coordinate_views(w.shape, w)
    np.divide(wt, 1.0 + np.sqrt(1.0 - dot(w, w)), out=o)
    return out


def mobius_gyr(u, v, w):
    """Closed-form gyration gyr[u, v]w = w + 2(A u + B v) / D (Ungar, c = 1).

    A = -(u.w)|v|^2 + v.w + 2(u.v)(v.w), B = -(v.w)|u|^2 - u.w and
    D = 1 + 2 u.v + |u|^2 |v|^2, rearranged for double precision near the rim:

    - A u + B v = (1 + u.v) Lw + L(Lw) for L = u v^T - v u^T.  Both terms
      vanish for collinear u, v, where the plain form cancels terms of size 1.
    - D = |u + v|^2 + (1 - |u|^2)(1 - |v|^2) and
      2(1 + u.v) = |u + v|^2 + (1 - |u|^2) + (1 - |v|^2) are sums of
      nonnegative terms, so they keep their relative accuracy as u + v
      approaches 0, where D is smallest.

    Below SHORT_AXIS coordinates each broadcast (u, v) row gets the operator
    g = I + (c L + 2 LL) / D, c = 2(1 + u.v), which the probe checks apply
    to 32 rows.  It is built and applied by elementwise passes alone, with
    no BLAS call, so its bits do not depend on the CPU: L_ij = u_i v_j -
    v_i u_j, (LL)_ij = sum_k L_ik L_kj summed in k order, g_ij = (c L_ij +
    2 (LL)_ij) / D with 1 added to each g_ii, and out_i = sum_j g_ij w_j
    summed in j order.  LL, unlike its expanded form, vanishes with L; in
    dim 1, L = 0.  The entries are stacked as (n, n, *lead) from the
    coordinate-first views of coordinate_views, so that each ufunc call
    covers every entry, and out_i is filled in the output's own view.

    g is applied on whole planes of the output's shape, one column g_:j at a
    time.  In a probe block, (B, 1) entries meet (1, P) probes, and a ufunc
    that broadcast them would loop over only P elements at a time.  So each
    column, and w where it broadcasts, is first spread into an
    output-shaped buffer with np.copyto, which broadcasts about 3x faster,
    and multiplied there in place.  Flat batches, and one gyrator against a
    batch, multiply directly.  Each product is g_ij w_j either way, so the
    bits are the same.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    n = u.shape[-1]
    if n >= SHORT_AXIS:
        ssq, pu, pv = (x[..., None] for x in _rim_terms(u, v))
        lw = dot(v, w)[..., None] * u - dot(u, w)[..., None] * v
        llw = dot(v, lw)[..., None] * u - dot(u, lw)[..., None] * v
        return w + ((ssq + pu + pv) * lw + 2.0 * llw) / (ssq + pu * pv)
    ssq, pu, pv = _rim_terms(u, v)
    shape = np.broadcast_shapes(u.shape, v.shape, w.shape)
    out, o, ut, vt, wt = coordinate_views(shape, u, v, w)
    g = ut[:, None] * vt[None]
    g -= vt[:, None] * ut[None]
    ll = g[:, 0, None] * g[None, 0]
    term = np.empty_like(ll)
    for k in range(1, n):
        ll += np.multiply(g[:, k, None], g[None, k], out=term)
    g *= ssq + pu + pv
    ll *= 2.0
    g += ll
    g /= ssq + pu * pv
    for i in range(n):
        g[i, i] += 1.0
    # (B, 1) entries against (B, P) or (1, P) planes: a probe block.
    spread = o.ndim > 2 and g.shape[-1] != o.shape[-1]
    if spread and wt.shape != o.shape:
        _, ws = coordinate_views(shape)
        np.copyto(ws, wt)
        wt = ws
    _, term = coordinate_views(shape)
    for j in range(n):
        t = term if j else o
        if spread:
            np.copyto(t, g[:, j])
            t *= wt[j]
        else:
            np.multiply(g[:, j], wt[j], out=t)
        if j:
            o += t
    return out


def rapidity_norm_unchecked(v):
    """Engine-facing rapidity gyronorm atanh|v|; no boundary guard.

    Rows on or outside the rim become inf or nan without a warning, so the
    property engine can skip a bad sample instead of aborting a suite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.arctanh(euclidean_norm(v))
