import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gyroball import (
    BoundaryError,
    CheckConfig,
    DomainError,
    euclidean_norm,
    make_rng,
    mobius_add,
    run_suite,
    sample_ball_points,
    vectors,
)
from gyroball.vectors import SHORT_AXIS, dot, ensure_in_ball


def test_inner_product_examples():
    assert dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert dot(np.array([0.5, 0.0]), np.array([0.5, 0.0])) == 0.25
    assert dot(np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.2, 0.1])) == pytest.approx(0.10)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", range(1, SHORT_AXIS))
def test_dot_is_bitwise_equal_to_numpy_sum_below_eight_coordinates(n, dtype):
    # Coordinates spread over 16 decades, so a change of summation order
    # changes the rounding of most rows.
    rng = make_rng(20 + n)
    u = (rng.standard_normal((300, 4, n)) * 10.0 ** rng.integers(-8, 8, (300, 4, n))).astype(dtype)
    v = rng.standard_normal((300, 4, n)).astype(dtype)
    assert np.array_equal(dot(u, v), np.sum(u * v, axis=-1))
    assert dot(u, v).dtype == dtype
    assert np.array_equal(dot(u[:, :1], v[:1]), np.sum(u[:, :1] * v[:1], axis=-1))


def test_euclidean_norm_examples():
    assert euclidean_norm([0, 0]) == 0.0
    assert euclidean_norm([0.6, 0.8]) == pytest.approx(1.0)
    assert euclidean_norm([0.5, 0, 0]) == 0.5


def test_ensure_in_ball_rejects_boundary():
    ensure_in_ball(np.array([0.999, 0.0]))
    with pytest.raises(BoundaryError):
        ensure_in_ball(np.array([1.0, 0.0]))
    # Non-finite coordinates are refused before the norm is compared, where
    # NaN would compare false with the guard.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="non-finite"):
            ensure_in_ball(np.array([[0.0, 0.0], [bad, 0.0]]))


def test_cauchy_schwarz_on_samples():
    rng = make_rng(11)
    u = sample_ball_points(4, 1000, rng)
    v = sample_ball_points(4, 1000, rng)
    lhs = dot(u, v) ** 2
    rhs = dot(u, u) * dot(v, v)
    assert np.all(lhs <= rhs + 1e-9)


def test_sampling_determinism_and_cap():
    a = sample_ball_points(2, 1, make_rng(123))
    b = sample_ball_points(2, 1, make_rng(123))
    assert np.array_equal(a, b)
    pts = sample_ball_points(5, 2000, make_rng(5))
    assert np.all(euclidean_norm(pts) <= 0.95)


def test_sampling_mean_radius():
    # analytic mean radius of the capped uniform ball: cap * n / (n + 1)
    pts = sample_ball_points(3, 10_000, make_rng(42))
    mean_r = float(np.mean(euclidean_norm(pts)))
    expected = 0.95 * 3 / 4
    assert abs(mean_r - expected) / expected < 0.05


# --- the buffer pool behind planar_empty --------------------------------------

@pytest.mark.parametrize("dim, rows", [(3, 4000), (16, 1000)])
def test_pool_hands_out_no_memory_that_an_array_still_references(monkeypatch, dim, rows):
    # A kept result, and a transposed or sliced view of it once the result
    # itself is dropped, hold their pool buffer: later results of the same
    # shape get other memory.  Once nothing references it, it is reused.
    monkeypatch.setattr(vectors, "_POOL", vectors._Pool())
    u, v = (sample_ball_points(dim, rows, make_rng(k)) for k in (1, 2))
    kept = mobius_add(u, v)
    # All twelve results below fit in the pool, so each is held.
    assert vectors._POOL_FLOOR <= kept.nbytes <= vectors._POOL_CAP // 12
    views = []
    for cut in (np.transpose, lambda x: x[1::3, 1:]):
        dropped = mobius_add(u, v)
        views.append(cut(dropped))
        del dropped
    later = [mobius_add(u, v) for _ in range(8)]
    for held in [kept] + views:
        assert not any(np.shares_memory(held, x) for x in later)
    addresses = {x.__array_interface__["data"][0] for x in later}
    del later
    assert mobius_add(u, v).__array_interface__["data"][0] in addresses


def test_pool_holds_at_most_its_cap_and_evicts_the_least_recent_idle_buffer():
    pool = vectors._Pool()
    quarter = (vectors._POOL_CAP // 32,)  # a quarter of the cap in float64
    first = [pool.take(quarter) for _ in range(4)]
    assert sum(b.nbytes for b in pool.held) == vectors._POOL_CAP
    ids = [id(b) for b in first]
    # With the cap reached and no buffer idle, a new buffer is not held.
    extra = pool.take(quarter)
    assert [id(b) for b in pool.held] == ids and id(extra) not in ids
    del first[3], first[1], extra
    # A request gets the most recently handed out idle buffer of its shape,
    # and that buffer becomes the most recently handed out.
    again = [pool.take(quarter) for _ in range(2)]
    assert [id(b) for b in again] == [ids[3], ids[1]]
    assert [id(b) for b in pool.held] == [ids[0], ids[2], ids[3], ids[1]]
    del again
    # A new shape evicts one idle buffer, the least recently handed out.
    other = pool.take((2, quarter[0] // 2))
    assert [id(b) for b in pool.held] == [ids[0], ids[2], ids[1], id(other)]
    # More than the cap is never held and evicts nothing.
    big = pool.take((vectors._POOL_CAP // 8 + 1,))
    assert [id(b) for b in pool.held] == [ids[0], ids[2], ids[1], id(other)]
    del big
    rng = make_rng(3)
    kept = []
    for _ in range(200):
        buf = pool.take((int(rng.integers(1, 9)) * 2**13,))
        if rng.random() < 0.3:
            kept.append(buf)
        assert sum(b.nbytes for b in pool.held) <= vectors._POOL_CAP
        assert len({id(b) for b in pool.held}) == len(pool.held)


def test_a_thread_never_takes_a_buffer_that_another_thread_released(monkeypatch):
    # Thread A (this one) holds a buffer it released.  Thread B starts with
    # an empty pool, and its request of the same shape gets a new buffer,
    # while the same request on A gets A's.
    monkeypatch.setattr(vectors, "_POOL", vectors._Pool())
    shape = (vectors._POOL_CAP // 32,)
    released = id(vectors._POOL.take(shape))
    seen = {}

    def work():
        seen["held"] = list(vectors._POOL.held)
        seen["taken"] = id(vectors._POOL.take(shape))
        seen["held after"] = [id(b) for b in vectors._POOL.held]

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen["held"] == [] and seen["held after"] == [seen["taken"]]
    assert seen["taken"] != released
    assert id(vectors._POOL.take(shape)) == released


def test_threads_running_suites_at_once_give_the_serial_reports():
    # Each thread draws from its own pool, and a buffer is idle only when no
    # thread references it.  More threads than cores, switching often.
    jobs = [("mobius", "table1", 3), ("poincare-disk", "homogeneity-isotropy", 2),
            ("einstein", "axioms", 5), ("mobius", "commutative-like", 16)]
    cfg = CheckConfig(samples=1000, seed=5)
    serial = [run_suite(m, s, cfg, dim=d).to_json() for m, s, d in jobs]
    reports = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def work(i):
        m, s, d = jobs[i]
        start.wait(timeout=60)
        reports[i] = run_suite(m, s, cfg, dim=d).to_json()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reports == serial


@pytest.mark.parametrize("model, dim", [(m, d) for m in ("einstein", "mobius") for d in (3, 5, 16)]
                         + [("poincare-disk", 2), ("group", 3)])
def test_no_kernel_reads_a_pool_buffer_before_writing_it(monkeypatch, model, dim):
    # Every buffer the pool hands out is filled with NaN first, which any
    # entry read before it is written would carry into the report.
    cfg = CheckConfig(samples=2000, seed=7)
    suites = ("axioms", "table1", "homogeneity-isotropy", "commutative-like")
    plain = [run_suite(model, s, cfg, dim=dim).to_json() for s in suites]
    take = vectors._Pool.take
    reused = 0

    def poisoned(self, shape):
        nonlocal reused
        held = {id(b) for b in self.held}
        buf = take(self, shape)
        reused += id(buf) in held
        buf.fill(np.nan)
        return buf

    monkeypatch.setattr(vectors._Pool, "take", poisoned)
    assert [run_suite(model, s, cfg, dim=dim).to_json() for s in suites] == plain
    # The group adds with a plain numpy sum and draws nothing from the pool.
    assert reused > 0 or model == "group"


FAULTS = """
import resource
from gyroball import vectors
from gyroball.engine import CheckConfig, run_suite

cfg = CheckConfig(samples=2000, seed=7)

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_suite("mobius", "table1", cfg, dim=3)
    run_suite("poincare-disk", "homogeneity-isotropy", cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults()
pooled = faults()
vectors._POOL_FLOOR = float("inf")
print(pooled, faults())
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults of Linux")
def test_pool_spares_the_page_faults_of_fresh_block_arrays():
    # A fresh interpreter, so that the heap state of earlier tests does not
    # decide which freed arrays glibc returns to the system.
    src = str(Path(vectors.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", FAULTS], env=env, capture_output=True,
                         text=True, check=True).stdout
    pooled, bypassed = map(int, out.split())
    assert pooled < bypassed / 4, (pooled, bypassed)
