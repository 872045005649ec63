"""Seeded verification and falsification suites.

Every suite draws its samples from one PCG64 stream, evaluates each property
on whole batches at once (the pair x probe checks on blocks of pairs, so
their memory stays bounded), and assembles an immutable report.  Identical
(model, suite, seed, samples, tolerance) inputs yield byte-identical
serialized reports.  Rows that evaluate to non-finite values (boundary
blow-ups) are skipped and counted; a suite with more than 1% skips raises
SamplingHealthError instead of reporting, since silent skips could mask
violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (
    Gyration,
    IsometrySpec,
    LeftTranslation,
    apply_isometry,
    gyr_via_gyrator_identity,
    homogeneity_witness,
    isotropy_spec,
    mazur_ulam_decompose,
)
# Unused here; bench/tracing.py patches this name.
from .einstein import einstein_add
from .errors import DomainError, SamplingHealthError, UnknownNameError
from .registry import GYRONORMS, MODEL_NAMES, TOPOLOGY_GYRONORMS, get_normed, trivial_gyrations
from .rng import make_rng
from .vectors import BLOCK_ELEMENTS, DEFAULT_ATOL, DEFAULT_RTOL, euclidean_norm, sample_ball_points

MAX_SKIP_FRACTION = 0.01

# Counterexamples recorded per property.
MAX_FAILURES = 10

# Most steps of the random isometry that the mazur-ulam suite decomposes.
ISOMETRY_STEPS = 4

# Directions of the "norm zero implies identity" check: exact zeros are
# measure-zero under sampling, so anything below this floor must sit at e.
POSITIVITY_FLOOR = 1e-7


@dataclass(frozen=True)
class CheckConfig:
    samples: int = 10000
    seed: int = 42
    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL
    probes: ClassVar[int] = 32  # probe points per function-equality check

    def __post_init__(self):
        # A suite that checks no row passes vacuously, a NaN tolerance fails
        # every row and PCG64 refuses a negative seed: reject them on entry.
        for name, value, least in (("samples", self.samples, 1), ("seed", self.seed, 0)):
            if value < least:
                raise DomainError(f"{name} must be >= {least}, got {value}")
        for name, tol in (("absolute tolerance", self.atol),
                          ("relative tolerance", self.rtol)):
            if not (math.isfinite(tol) and tol >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {tol!r}")


@dataclass
class Counterexample:
    sample_index: int
    inputs: dict
    lhs: object
    rhs: object
    diff: float

    def to_dict(self):
        return {
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "diff": self.diff,
        }


@dataclass
class PropertyResult:
    name: str
    checked: int
    failed: int
    skipped: int
    failures: list
    note: str

    @property
    def status(self):  # "pass" | "fail" | "skipped"
        if self.checked == 0 and self.skipped > 0:
            return "skipped"
        return "fail" if self.failed else "pass"

    def to_dict(self):
        out = {
            "name": self.name,
            "status": self.status,
            "checked": self.checked,
            "failed": self.failed,
            "failures": [c.to_dict() for c in self.failures],
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CheckReport:
    suite: str
    model: str
    gyronorm: str
    dim: int
    seed: int
    samples: int
    atol: float
    rtol: float
    skipped: int
    properties: list

    @property
    def passed(self) -> bool:
        return all(p.status != "fail" for p in self.properties)

    def to_dict(self):
        return {
            "suite": self.suite,
            "model": self.model,
            "gyronorm": self.gyronorm,
            "dim": self.dim,
            "seed": self.seed,
            "samples": self.samples,
            "tolerance": {"abs": self.atol, "rel": self.rtol},
            "skipped": self.skipped,
            "properties": [p.to_dict() for p in self.properties],
        }

    def to_json(self) -> str:
        # json emits shortest round-trip decimals, keeping output byte-stable.
        return json.dumps(self.to_dict(), indent=2)


def _all_coordinates(mask):
    # mask.all(axis=-1) column by column, several times faster on a short axis.
    out = mask[..., 0]
    for j in range(1, mask.shape[-1]):
        out = out & mask[..., j]
    return out


def _serialize(value):
    return np.asarray(value, dtype=float).tolist()


class _SuiteRun:
    """Sampling stream plus property recorder for one suite evaluation."""

    def __init__(self, nm, cfg):
        self.nm = nm
        self.m = nm.model
        self.cfg = cfg
        self.rng = make_rng(cfg.seed)
        self.results = []
        self.skipped = 0

    def draw(self, count):
        return self.m.sample(self.rng, count)

    def probe_blocks(self, a, b):
        """Blocks of (a, b) rows against ``cfg.probes`` probe points, drawn
        from the stream as the first block is taken, for pointwise
        function-equality checks.  Yields ``(aP, bP, xP)`` with views
        ``aP = a[i:j, None]``, ``bP = b[i:j, None]`` of shape (j - i, 1, n)
        and ``xP = probes[None]`` of shape (1, P, n).  Kernels broadcast them
        to (j - i, P, n) results, at most BLOCK_ELEMENTS elements unless one
        pair exceeds them, while terms that depend on (a, b) alone are
        computed once per pair.  Blocks are taken in order and recorded under
        one name, so result row k of a block gets ``sample_index`` i * P + k,
        which is i * P + j for (a[i], b[i], probes[j])."""
        probes = self.draw(self.cfg.probes)
        p, n = probes.shape
        step = max(1, BLOCK_ELEMENTS // (n * p))
        for i in range(0, len(a), step):
            yield a[i:i + step, None], b[i:i + step, None], probes[None]

    def equal(self, name, inputs, lhs, rhs, note=""):
        self._record(name, inputs, lhs, rhs, "eq", note)

    def less_equal(self, name, inputs, lhs, rhs):
        self._record(name, inputs, lhs, rhs, "le", "")

    def _record(self, name, inputs, lhs, rhs, mode, note):
        """Add the rows of a check to the property's result, found by name
        and made on first use.  They are numbered after the rows the result
        already holds, so the parts recorded under one name merge into one result."""
        cfg = self.cfg
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        shape = np.broadcast_shapes(lhs.shape, rhs.shape)
        # One row per index of the leading axes, i.e. every axis but the
        # trailing coordinate axis; a 1-D result holds one value per row.
        # Probe checks thus give block * P rows, flattened in C order.
        lead = shape[:max(1, len(shape) - 1)]
        by_row = len(shape) > len(lead)

        def row(v, at):
            # The row at index ``at`` of v broadcast against the leading axes;
            # an array that has those axes already is indexed in place.
            v = np.asarray(v)
            if v.shape[:len(lead)] != lead:
                v = np.broadcast_to(v, lead + v.shape[len(lead):])
            return v[at]

        with np.errstate(over="ignore", invalid="ignore"):
            err = lhs - rhs
            lo, hi = err.min(initial=np.inf), err.max(initial=-np.inf)
        # Fast path: when every difference lies in [-atol, atol] (for "le":
        # is finite and at most atol), every row passes and none is skipped.
        # A finite difference has finite operands, NaN fails each comparison,
        # and the rounded bound atol + rtol * scale is at least atol.  The
        # initial values make a check of zero rows legal.
        if hi <= cfg.atol and (-cfg.atol <= lo if mode == "eq" else math.isfinite(lo)):
            fail_idx, n, skipped_rows = (), math.prod(lead), 0
        else:
            # A row with a non-finite operand is skipped.  A finite pair whose
            # difference overflowed is checked like any other; numpy need not
            # warn of it.
            finite = np.isfinite(lhs) & np.isfinite(rhs)
            with np.errstate(over="ignore", invalid="ignore"):
                if mode == "eq":
                    np.abs(err, out=err)
                    bound = np.abs(lhs, out=np.empty(shape))
                    np.maximum(bound, np.abs(rhs), out=bound)
                else:
                    bound = np.abs(rhs)
                bound *= cfg.rtol
                bound += cfg.atol
                ok = err <= bound
            if by_row:
                finite, ok = _all_coordinates(finite), _all_coordinates(ok)
            finite, ok = finite.reshape(-1), ok.reshape(-1)
            fail_idx = np.flatnonzero(finite & ~ok)
            n = finite.size
            skipped_rows = n - int(np.count_nonzero(finite))
        if all(r.name != name for r in self.results):
            self.results.append(PropertyResult(name, 0, 0, 0, [], note))
        res = next(r for r in self.results if r.name == name)
        first = res.checked + res.skipped

        for i in fail_idx[: MAX_FAILURES - len(res.failures)]:
            at = np.unravel_index(i, lead)
            diff = row(err, at)
            if by_row:
                diff = np.max(np.where(np.isfinite(diff), diff, 0.0))
            res.failures.append(Counterexample(
                sample_index=first + int(i),
                inputs={k: _serialize(row(v, at)) for k, v in inputs.items()},
                lhs=_serialize(row(lhs, at)),
                rhs=_serialize(row(rhs, at)),
                diff=float(diff),
            ))
        res.checked += int(n - skipped_rows)
        res.failed += len(fail_idx)
        res.skipped += skipped_rows
        self.skipped += skipped_rows

    def skip_property(self, name, note):
        self.results.append(PropertyResult(name, 0, 0, self.cfg.samples, [], note))

    def equivalence_verdict(self):
        """Suite-level consistency of the two universally quantified
        conditions recorded last: either both hold on all samples or both
        are violated somewhere.  Per-sample divergence is informational only."""
        first, second = self.results[-2:]
        consistent = (first.failed > 0) == (second.failed > 0)
        note = (
            f"{first.name}: {first.status} ({first.failed} violations); "
            f"{second.name}: {second.status} ({second.failed} violations)"
        )
        self.results.append(PropertyResult(
            "equivalence-consistency", min(first.checked, second.checked),
            0 if consistent else 1, 0, [], note))


# --- suites ------------------------------------------------------------------

def suite_axioms(run):
    m, cfg = run.m, run.cfg
    a, b, c = run.draw(cfg.samples), run.draw(cfg.samples), run.draw(cfg.samples)
    run.equal("G1-left-identity", {"a": a}, m.add(m.identity, a), a)
    run.equal("G2-left-inverse", {"a": a}, m.add(m.neg(a), a), np.zeros_like(a))
    run.equal("G3-left-gyroassociative", {"a": a, "b": b, "c": c},
              m.add(a, m.add(b, c)), m.add(m.add(a, b), m.gyr(a, b, c)))
    for aP, bP, xP in run.probe_blocks(a, b):
        yP = np.roll(xP, 1, axis=1)
        gP = m.gyr(aP, bP, xP)
        run.equal("G4-left-loop", {"a": aP, "b": bP, "x": xP},
                  m.gyr(m.add(aP, bP), bP, xP), gP)
        # gyr[a, b]y by the row contract: y rolls the probes, so its rows
        # are those of gyr[a, b]x, rolled.
        rhs = m.add(gP, np.roll(gP, 1, axis=1))
        del gP  # one fewer block-sized array alive while the last check records
        run.equal("gyr-automorphism", {"a": aP, "b": bP, "x": xP, "y": yP},
                  m.gyr(aP, bP, m.add(xP, yP)), rhs)


def suite_table1(run):
    m, cfg = run.m, run.cfg
    a, b, c = run.draw(cfg.samples), run.draw(cfg.samples), run.draw(cfg.samples)
    ab = m.add(a, b)
    run.equal("involution-of-inversion", {"a": a}, m.neg(m.neg(a)), a)
    run.equal("left-cancellation", {"a": a, "b": b}, m.add(m.neg(a), ab), b)
    # gyr[a, b] turns c and (neg b) (+) (neg a) in one call, stacked; by the
    # row contract each slice has the bits of a call of its own.
    gc, gs = m.gyr(a, b, np.stack([c, m.add(m.neg(b), m.neg(a))]))
    run.equal("gyrator-identity", {"a": a, "b": b, "c": c},
              gc, gyr_via_gyrator_identity(m, a, b, c))
    run.equal("inverse-of-sum", {"a": a, "b": b}, m.neg(ab), gs)
    run.equal("cancellation-chain", {"a": a, "b": b, "c": c},
              m.add(m.add(m.neg(a), b), m.gyr(m.neg(a), b, m.add(m.neg(b), c))),
              m.add(m.neg(a), c))
    for k, (aP, bP, xP) in enumerate(run.probe_blocks(a, b)):
        gP = m.gyr(aP, bP, xP)
        run.equal("even-property", {"a": aP, "b": bP, "x": xP},
                  m.gyr(m.neg(aP), m.neg(bP), xP), gP)
        run.equal("inversive-symmetry", {"a": aP, "b": bP, "x": xP},
                  m.gyr(bP, aP, gP), xP)
        if k == 0:  # a whole (N, n) check, at its place in the report
            if m.hom is not None:
                target, f = m.hom
                run.equal("gyration-preservation-hom", {"a": a, "b": b, "c": c},
                          f(gc), target.gyr(f(a), f(b), f(c)))
            else:
                run.skip_property("gyration-preservation-hom",
                                  "model registers no reference homomorphism")
        rhs = m.add(m.add(aP, bP), gP)
        del gP
        run.equal("composition-law", {"a": aP, "b": bP, "x": xP},
                  m.add(aP, m.add(bP, xP)), rhs)


def suite_gyronorm(run):
    m, norm, cfg = run.m, run.nm.norm, run.cfg
    x, y = run.draw(cfg.samples), run.draw(cfg.samples)
    a, b = run.draw(cfg.samples), run.draw(cfg.samples)
    nx = norm(x)
    run.less_equal("positivity-nonnegative", {"x": x}, np.zeros(cfg.samples), nx)
    # Both directions of "zero exactly at the identity", as two parts of one
    # property: the identity itself, then the floor direction on the samples.
    e = m.identity[None, :]
    run.equal("positivity-zero-iff-identity", {"x": e}, norm(e), np.zeros(1))
    # 0 * nx keeps a non-finite norm a non-finite (skipped) row.
    run.equal("positivity-zero-iff-identity", {"x": x},
              np.where(nx < POSITIVITY_FLOOR, euclidean_norm(x), 0.0 * nx), np.zeros(cfg.samples))
    run.equal("inverse-invariance", {"x": x}, norm(m.neg(x)), nx)
    run.less_equal("subadditivity", {"x": x, "y": y},
                   norm(m.add(x, y)), nx + norm(y))
    run.equal("gyration-invariance", {"a": a, "b": b, "x": x},
              norm(m.gyr(a, b, x)), nx)


def suite_metric(run):
    d, cfg = run.nm.distance, run.cfg
    x, y, z = run.draw(cfg.samples), run.draw(cfg.samples), run.draw(cfg.samples)
    dxy = d(x, y)
    run.less_equal("nonnegativity", {"x": x, "y": y}, np.zeros(cfg.samples), dxy)
    # d(x, x) = 0, then the floor direction, as two parts of one property.
    run.equal("identity-of-indiscernibles", {"x": x, "y": x}, d(x, x), np.zeros(cfg.samples))
    run.equal("identity-of-indiscernibles", {"x": x, "y": y},
              np.where(dxy < POSITIVITY_FLOOR, euclidean_norm(x - y), 0.0 * dxy),
              np.zeros(cfg.samples))
    run.equal("symmetry", {"x": x, "y": y}, dxy, d(y, x))
    run.less_equal("triangle-inequality", {"x": x, "y": y, "z": z},
                   d(x, z), dxy + d(y, z))


def suite_left_invariance(run):
    m, d, cfg = run.m, run.nm.distance, run.cfg
    a, x, y = run.draw(cfg.samples), run.draw(cfg.samples), run.draw(cfg.samples)
    run.equal("left-gyrotranslation-invariance", {"a": a, "x": x, "y": y},
              d(m.add(a, x), m.add(a, y)), d(x, y))


def suite_isometry(run):
    """Norm preservation and distance preservation of one gyroautomorphism."""
    m, norm, d, cfg = run.m, run.nm.norm, run.nm.distance, run.cfg
    a0, b0 = run.draw(2)
    x, y = run.draw(cfg.samples), run.draw(cfg.samples)
    tau_x = m.gyr(a0, b0, x)
    tau_y = m.gyr(a0, b0, y)
    run.equal("gyration-norm-preservation", {"a": a0[None], "b": b0[None], "x": x},
              norm(tau_x), norm(x))
    run.equal("gyration-distance-preservation", {"a": a0[None], "b": b0[None], "x": x, "y": y},
              d(tau_x, tau_y), d(x, y))


def suite_klee(run):
    m, d, cfg = run.m, run.nm.distance, run.cfg
    x, y = run.draw(cfg.samples), run.draw(cfg.samples)
    a, b = run.draw(cfg.samples), run.draw(cfg.samples)
    run.less_equal("right-gyrotranslation-inequality", {"x": x, "y": y, "a": a},
                   d(m.add(x, a), m.add(y, a)), d(x, y))
    run.less_equal("klee-condition", {"x": x, "y": y, "a": a, "b": b},
                   d(m.add(x, y), m.add(a, b)), d(x, a) + d(y, b))
    run.equivalence_verdict()


def suite_commutative_like(run):
    m, norm, d, cfg = run.m, run.nm.norm, run.nm.distance, run.cfg
    a, x, y = run.draw(cfg.samples), run.draw(cfg.samples), run.draw(cfg.samples)
    lhs = norm(m.add(m.add(a, x), m.gyr(a, x, m.add(y, m.neg(a)))))
    run.equal("commutative-like-condition", {"a": a, "x": x, "y": y},
              lhs, norm(m.add(x, y)))
    dxy = d(x, y)
    bi_lhs = np.stack([d(m.add(x, a), m.add(y, a)), d(m.add(a, x), m.add(a, y))], axis=-1)
    bi_rhs = np.stack([dxy, dxy], axis=-1)
    run.equal("bi-gyrotranslation-invariance", {"a": a, "x": x, "y": y},
              bi_lhs, bi_rhs)
    run.equivalence_verdict()


def random_isometry_spec(m, rng) -> IsometrySpec:
    """Random 1..ISOMETRY_STEPS composition of translations and gyrations."""
    steps = []
    for _ in range(int(rng.integers(1, ISOMETRY_STEPS + 1))):
        if int(rng.integers(0, 2)) == 0:
            steps.append(LeftTranslation(m.sample(rng, 1)[0]))
        else:
            pts = m.sample(rng, 2)
            steps.append(Gyration(pts[0], pts[1]))
    return IsometrySpec(tuple(steps))


def suite_mazur_ulam(run):
    m, d, cfg = run.m, run.nm.distance, run.cfg
    f = random_isometry_spec(m, run.rng)
    t, rho = mazur_ulam_decompose(run.nm, f)
    e = m.identity
    run.equal("rho-fixes-identity", {"e": e[None, :]},
              apply_isometry(m, rho, e)[None, :], e[None, :])
    x, y = run.draw(cfg.samples), run.draw(cfg.samples)
    fx = apply_isometry(m, f, x)
    rx = m.add(m.neg(t), fx)  # rho is f followed by L_{neg t}
    ry = apply_isometry(m, rho, y)
    run.equal("rho-isometry", {"x": x, "y": y}, d(rx, ry), d(x, y))
    run.equal("decomposition-reproduces-f", {"x": x}, fx, m.add(t, rx))


def suite_homogeneity_isotropy(run):
    m, d, cfg = run.m, run.nm.distance, run.cfg
    x, y = run.draw(cfg.samples), run.draw(cfg.samples)
    u, v = run.draw(cfg.samples), run.draw(cfg.samples)
    # T = L_y o L_{neg x} maps x to y and is an isometry.
    T = homogeneity_witness(m, x, y)
    run.equal("homogeneity-maps-x-to-y", {"x": x, "y": y}, apply_isometry(m, T, x), y)
    duv = d(u, v)
    run.equal("homogeneity-witness-isometry", {"x": x, "y": y, "u": u, "v": v},
              d(apply_isometry(m, T, u), apply_isometry(m, T, v)), duv)

    if trivial_gyrations(m.name, m.dim):
        note = ("all sampled gyrations are the identity map; "
                "model is degenerate, isotropy not applicable")
        for name in ("isotropy-fixes-p", "isotropy-witness-isometry",
                     "isotropy-moves-a-probe"):
            run.skip_property(name, note)
        return
    a, b, p = run.draw(cfg.samples), run.draw(cfg.samples), run.draw(cfg.samples)

    def moves(aP, bP, xP):
        return (euclidean_norm(m.gyr(aP, bP, xP) - xP)
                > cfg.atol + cfg.rtol * euclidean_norm(xP)).any(axis=1)

    # Probe 0 first; by the row contract, the later probes of the pairs it
    # leaves fixed give the same bits as in a scan of every probe.
    row_moved = []
    for aP, bP, xP in run.probe_blocks(a, b):
        moved = moves(aP, bP, xP[:, :1])
        rest = ~moved
        if rest.any():
            moved[rest] = moves(aP[rest], bP[rest], xP[:, 1:])
        row_moved.append(moved)
    row_moved = np.concatenate(row_moved)
    # T = L_p o gyr[a, b] o L_{neg p} fixes p, is an isometry, and is not
    # the identity map whenever the gyration moves some probe.  It is applied
    # once to p, u and v stacked, so one gyration turns all three.
    tp, tu, tv = apply_isometry(m, isotropy_spec(m, p, a, b), np.stack([p, u, v]))
    run.equal("isotropy-fixes-p", {"p": p, "a": a, "b": b}, tp, p)
    run.equal("isotropy-witness-isometry", {"p": p, "a": a, "b": b, "u": u, "v": v},
              d(tu, tv), duv)
    run.equal("isotropy-moves-a-probe", {"a": a, "b": b},
              row_moved.astype(float), np.ones(cfg.samples),
              note="1.0 means gyr[a, b] moved at least one probe point")


def suite_topology(run):
    """tanh(eps)-radius ball inclusions between the metrics d_e and d_E of the
    two TOPOLOGY_GYRONORMS."""
    m, cfg = run.m, run.cfg
    norm_e, norm_E = (GYRONORMS[m.name, g].norm for g in TOPOLOGY_GYRONORMS)
    for eps in (0.1, 0.5, 1.0):
        u = run.draw(cfg.samples)
        s = sample_ball_points(m.dim, cfg.samples, run.rng, cap=np.tanh(eps) * (1.0 - 1e-9))
        w = m.add(u, s)
        z = m.add(m.neg(u), w)
        de = norm_e(z)
        dE = norm_E(z)
        run.less_equal(f"ball-inclusion-eps-{eps}", {"u": u, "w": w},
                       dE, np.full(cfg.samples, eps))
        run.less_equal(f"gyrometric-below-rapidity-eps-{eps}", {"u": u, "w": w},
                       de, dE)


_SUITES = {
    "axioms": suite_axioms,
    "table1": suite_table1,
    "gyronorm": suite_gyronorm,
    "metric": suite_metric,
    "left-invariance": suite_left_invariance,
    "isometry": suite_isometry,
    "klee": suite_klee,
    "commutative-like": suite_commutative_like,
    "mazur-ulam": suite_mazur_ulam,
    "homogeneity-isotropy": suite_homogeneity_isotropy,
    "topology": suite_topology,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(model_name, suite_name, cfg=None, dim=None, gyronorm=None) -> CheckReport:
    """Run a registered suite against a registered model, at the model's
    default dim and gyronorm when None; deterministic."""
    cfg = cfg or CheckConfig()
    if suite_name not in _SUITES:
        raise UnknownNameError(
            f"unknown suite '{suite_name}'; valid suites: {', '.join(SUITE_NAMES)}"
        )
    admitted = [m for m in MODEL_NAMES if all((m, g) in GYRONORMS for g in TOPOLOGY_GYRONORMS)]
    if suite_name == "topology" and model_name not in admitted:
        raise UnknownNameError("suite 'topology' is defined only for model "
                               + " or ".join(f"'{m}'" for m in admitted))
    nm = get_normed(model_name, dim=dim, gyronorm=gyronorm)
    run = _SuiteRun(nm, cfg)
    _SUITES[suite_name](run)
    report = CheckReport(
        suite=suite_name,
        model=model_name,
        gyronorm=nm.norm_name,
        dim=nm.model.dim,
        seed=cfg.seed,
        samples=cfg.samples,
        atol=cfg.atol,
        rtol=cfg.rtol,
        skipped=run.skipped,
        properties=run.results,
    )
    # Rows evaluated; run.skipped counts the non-finite ones, never the
    # rows of properties declared inapplicable through skip_property.
    total = sum(p.checked for p in run.results) + run.skipped
    if total > 0 and run.skipped / total > MAX_SKIP_FRACTION:
        raise SamplingHealthError(
            f"{run.skipped} of {total} sample evaluations were skipped "
            f"(> {MAX_SKIP_FRACTION:.0%}); results would not be trustworthy",
            report=report,
        )
    return report

