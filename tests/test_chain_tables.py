"""Kernel tables: each kernel of a chain is evaluated once per integral,
on the fine grid, and later stages and the chains of step 2h and 4h,
two more rows of the fine pass, reuse those values.  The
evaluate-per-pass chain, with its own compact passes on the grids of
step 2h and 4h, is kept here as the reference, with the three-level
estimate and its refinement written out again.  Values must match it
bit for bit.  Error estimates must match it to 1e-12 of the value: they
take the coarse values, which the zero-stuffed rows round differently
from the compact passes.  The measure kernel's difference table is made
once per grid and shared by every integral on it, and the tilt plans
are chosen at block ends; both keep every bit.  Each stage of the
reference is the pass's own convolution (`quad._convolve`: a direct sum
or a tilted convolution, chosen as in the pass) on its one row."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from omzv import (GammaContext, OhnoParams, OmegaParam, QuadConfig, Z_omega,
                  Z_omega_monomial, cache, connected_integral, ohno, omega,
                  ohno_generating, parse_amonomial, parse_apoly, quad,
                  zeta_omega)
from omzv.omega import clear_value_cache
from omzv.quad import ChainStage, chain_line_integral, measure_kernel

TWO_PI = 2.0 * math.pi
FAST = QuadConfig(rel_tol=1e-7, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# The evaluate-per-pass chain: every kernel called again at every stage
# and on the step-doubled grid.

def reference_chain_pass(stages, eps, h, ys):
    n = len(ys)
    ydiff = h * np.arange(-(n - 1), n)
    chi = None
    for a, st in enumerate(stages, start=1):
        line = (-a * eps) + 1j * ys
        if chi is None:
            dline = (-eps) + 1j * ys
            chi = st.diff(dline) if st.diff else measure_kernel(dline)
        else:
            dgrid = (-eps) + 1j * ydiff
            dvals = st.diff(dgrid) if st.diff else measure_kernel(dgrid)
            chi = h * quad._convolve(chi[None], quad._Operand(dvals),
                                     n - 1, 2 * n - 1)[0]
        if st.cum is not None:
            chi = chi * st.cum(line)
    return chi


def reference_integral(cfg, h, ys, finish):
    """finish(h, ys) -> ([V_h, V_2h, V_4h], tail, scale) once per grid,
    the error estimate e2 (e2/e4)^2 (e2 when e4 <= e2) floored at 1e-13
    of the scale, and h halved on the same span while the estimate is the
    largest part of an error above the tolerance."""
    while True:
        (value, v2, v4), tail, scale = finish(h, ys)
        e2, e4 = abs(value - v2), abs(v2 - v4)
        est = e2 * (e2 / e4) ** 2 if e4 > e2 else e2
        floor = 1e-13 * scale
        err = max(est, floor) + tail + cfg.abs_tol
        if (err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
                or est <= max(floor, tail + cfg.abs_tol)):
            return quad.EvalResult(value, err, {"nodes": len(ys)})
        nm, n = int(round(-ys[0] / h)), len(ys)
        h = 0.5 * h
        ys = h * np.arange(-2 * nm, 2 * n - 1 - 2 * nm)


def reference_chain_line_integral(stages, eps, cfg=None, *, decay,
                                  pole_dist=None, prefactor=1.0, freq=0.0):
    cfg = cfg or quad.DEFAULT_CONFIG
    r = len(stages)
    dm, dp = float(decay[0]), float(decay[1])
    h, ys = quad._chain_grid(eps, cfg, (dm, dp), pole_dist, freq)

    def level(h, ys):
        chi = reference_chain_pass(stages, eps, h, ys)
        return (complex(prefactor) * (1j ** r) * h * chi.sum(),
                abs(prefactor) * (abs(chi[0]) / dm + abs(chi[-1]) / dp),
                abs(prefactor) * h * np.abs(chi).sum())

    def finish(h, ys):
        (value, tail, scale), (v2, _, _), (v4, _, _) = (
            level(m * h, ys[::m]) for m in (1, 2, 4))
        return [value, v2, v4], tail, scale

    return reference_integral(cfg, h, ys, finish)


def reference_connected_integral(k, l, op, ctx, cfg, eps):
    p = ctx.p
    w = p.omega
    r, s = len(k), len(l)
    lam, mu = complex(op.lam), complex(op.mu)
    pole = omega.contour_offset(w, r + s, "connector", eps, lam, mu)[2]
    dp = TWO_PI * w * eps * min(r, s)
    h, ys = quad._chain_grid(eps, cfg, (TWO_PI, dp), pole,
                             chirp=math.pi * w)
    stages = (ohno._prefix_stages(k, lam, mu, p),
              ohno._prefix_stages(l, lam, mu, p))
    pref = p.hbar_value ** (sum(k) + sum(l))

    def levels(st, h, ys):
        # each compact pass at every m-th node of a fine-length row
        rows = [np.zeros(len(ys), dtype=complex) for _ in range(3)]
        for row, m in zip(rows, (1, 2, 4)):
            row[::m] = reference_chain_pass(st, eps, m * h, ys[::m])
        return rows

    def finish(h, ys):
        return ohno._theta_value(ctx, pref, r, s, lam, mu, eps, dp, h, ys,
                                 [levels(st, h, ys) for st in stages])

    return reference_integral(cfg, h, ys, finish)


def value_bits(res):
    z = complex(res.value)
    return z.real.hex(), z.imag.hex()


def assert_matches(got, ref):
    assert value_bits(got) == value_bits(ref)
    assert (abs(got.err_estimate - ref.err_estimate)
            <= 1e-12 * abs(complex(got.value)))


def fresh_and_reference(monkeypatch, module, fn):
    """fn() with the kernel tables and with the evaluate-per-pass
    chain_line_integral patched into `module`, each on a cold memo."""
    clear_value_cache()
    got = fn()
    with monkeypatch.context() as m:
        m.setattr(module, "chain_line_integral",
                  reference_chain_line_integral)
        clear_value_cache()
        ref = fn()
    clear_value_cache()
    return got, ref


ZETAS = [(3,), (1, 2), (2, 1, 2), (1, 1, 1, 3), (1, 2, 1, 1, 2),
         (1, 1, 1, 1, 1, 2)]


@pytest.mark.parametrize("w", [0.3, 1.0, 1.4])
@pytest.mark.parametrize("k", ZETAS, ids=lambda k: "d%d" % len(k))
def test_zeta_matches_evaluate_per_pass(monkeypatch, w, k):
    p = OmegaParam(w)
    got, ref = fresh_and_reference(monkeypatch, omega,
                                   lambda: zeta_omega(k, p))
    assert_matches(got, ref)


def test_refined_grid_matches_evaluate_per_pass(cfg):
    """A grid refined twice, sized by a pole-distance hint five times the
    real one, keeps the bits of the evaluate-per-pass chain on the
    halved grids."""
    a1, a2 = 0.3 + 0.2j, 0.2 + 0.3j
    stages = [ChainStage(cum=lambda t: np.exp(a1 * t)),
              ChainStage(cum=lambda t: np.exp(a2 * t))]
    kw = dict(decay=(TWO_PI, 0.3), pole_dist=1.0)
    clear_value_cache()
    got = chain_line_integral(stages, 0.2, cfg, **kw)
    ref = reference_chain_line_integral(stages, 0.2, cfg, **kw)
    clear_value_cache()
    assert got.meta["refinements"] == 2
    assert got.meta["nodes"] == ref.meta["nodes"]
    assert_matches(got, ref)


@pytest.mark.parametrize("w", [0.6, 1.4])
@pytest.mark.parametrize("text", ["E G1", "E E G2 G1", "E G1 E G2",
                                  "G2 E G1 E E G1"])
def test_reduced_monomial_matches_evaluate_per_pass(monkeypatch, w, text):
    """E blocks give binomial diff kernels, one per block length and
    shared by the blocks of that length, next to measure-kernel stages."""
    mono = parse_amonomial(text)
    p = OmegaParam(w)
    got, ref = fresh_and_reference(
        monkeypatch, omega, lambda: Z_omega_monomial(mono, p, FAST))
    assert_matches(got, ref)


@pytest.mark.parametrize("k", [(2,), (1, 3), (2, 1, 2)])
def test_ohno_generating_matches_evaluate_per_pass(monkeypatch, k):
    op = OhnoParams(lam=0.001 + 0.0005j, mu=-0.0007j)
    p = OmegaParam(0.8)
    got, ref = fresh_and_reference(
        monkeypatch, ohno, lambda: ohno_generating(k, op, p, FAST))
    assert_matches(got, ref)


@pytest.mark.parametrize("k, l", [((2,), (1,)), ((1, 2), (1,)),
                                  ((2,), (1, 2)), ((1, 2), (2, 1))])
def test_connected_integral_matches_evaluate_per_pass(k, l):
    """Both J chains share one measure table; depth-1 chains share its
    slice, or their one line evaluation."""
    ctx = GammaContext(OmegaParam(1.2), cfg=FAST)
    op = OhnoParams(lam=0.002j, mu=0.001)
    eps = min(1.0, 1.0 / 1.2) / (2.0 * (len(k) + len(l) + 2))
    clear_value_cache()
    got = connected_integral(k, l, op, ctx, eps=eps)
    clear_value_cache()
    ref = reference_connected_integral(k, l, op, ctx, FAST, eps)
    assert_matches(got, ref)


# ---------------------------------------------------------------------------
# The connector: Theta once per grid, log G lines in one process memo

def test_theta_runs_once_per_grid_on_memoised_lines(monkeypatch):
    """The Theta finisher runs once per grid, on all three levels.  On a
    cleared memo (1);(1) computes its 4 log G lines (one per shift, the
    two chains sharing theirs) and (1,2);(1) its 7; (2);(1), on the grid
    of (1);(1), computes none.  The memo keeps read-only lines, and its
    summed points never exceed its bound.  Bounded to two fine lines,
    it drops the first chain's lines before the second chain reads them:
    they are computed again, and the value keeps every bit."""
    ctx = GammaContext(OmegaParam(1.2), cfg=FAST)
    op = OhnoParams(lam=0.002j, mu=0.001)
    memo = cache._LINE_MEMO
    thetas, lines, totals = [], [], []
    theta, line, fill = ohno._theta_value, ohno.log_G_line, memo.get_or_make
    monkeypatch.setattr(ohno, "_theta_value",
                        lambda *a: thetas.append(a) or theta(*a))
    monkeypatch.setattr(ohno, "log_G_line",
                        lambda *a: lines.append(a) or line(*a))
    monkeypatch.setattr(memo, "get_or_make", lambda key, make: (
        fill(key, make), totals.append(memo.total))[0])

    def computed(k, l):
        thetas.clear()
        lines.clear()
        res = connected_integral(k, l, op, ctx)
        assert len(thetas) == 1 and res.meta["refinements"] == 0
        assert [len(levels) for levels in thetas[0][-1]] == [3, 3]
        return len(lines), res

    clear_value_cache()
    try:
        n, first = computed((1,), (1,))
        assert n == 4
        assert computed((2,), (1,))[0] == 0
        assert computed((1, 2), (1,))[0] == 7
        stored = list(memo._d.values())
        assert len(stored) == 11
        assert not any(v.flags.writeable for v in stored)
        assert memo.total == sum(map(len, stored)) <= memo.maxsize
        assert max(totals) <= memo.maxsize
        clear_value_cache()
        totals.clear()
        monkeypatch.setattr(memo, "maxsize", 2 * first.meta["nodes"])
        n, again = computed((1,), (1,))
        assert n == 7 and len(memo) <= 2
        assert 0 < max(totals) <= memo.maxsize
        assert result_bits(again) == result_bits(first)
    finally:
        clear_value_cache()


def test_gamma_context_is_a_plain_value():
    """Contexts with equal (p, cfg) are equal and hash equal, so a key
    that names one names them all; a context holds no mutable state."""
    a = GammaContext(OmegaParam(0.6), cfg=FAST)
    b = GammaContext(OmegaParam(0.6), cfg=QuadConfig(rel_tol=1e-7,
                                                      abs_tol=1e-9))
    assert a == b and hash(a) == hash(b)
    assert a != GammaContext(OmegaParam(0.6))
    assert a != GammaContext(OmegaParam(0.7), cfg=FAST)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.cfg = QuadConfig()
    assert not hasattr(a, "__dict__") or vars(a) == {"p": a.p, "cfg": a.cfg}


# ---------------------------------------------------------------------------
# Each kernel once per integral

def counted(fn, calls, name):
    def wrapper(z):
        calls[name] = calls.get(name, 0) + 1
        return fn(z)
    return wrapper


def test_each_kernel_is_evaluated_once(monkeypatch, cfg):
    """Depth 4: the measure kernel serves stages 1 and 3 (stage 1 as a
    slice of the difference table), one diff kernel stages 2 and 4; the
    step-doubled pass calls nothing again, and a second integral on the
    grid takes the measure table from the grid memo."""
    calls = {}
    plain = measure_kernel
    monkeypatch.setattr(quad, "measure_kernel",
                        counted(plain, calls, "measure"))
    tilted = counted(lambda z: np.exp(0.25j * z) * plain(z), calls, "diff")
    stages = [ChainStage(cum=counted(lambda t, a=a: np.exp(0.1j * a * t),
                                     calls, "cum%d" % a),
                         diff=tilted if a % 2 == 0 else None)
              for a in range(1, 5)]
    clear_value_cache()
    try:
        for measured in (1, 0):
            calls.clear()
            res = chain_line_integral(stages, 0.05, cfg,
                                      decay=(TWO_PI, 0.1))
            assert math.isfinite(res.err_estimate)
            assert calls.pop("measure", 0) == measured
            assert calls == {"diff": 1, "cum1": 1, "cum2": 1, "cum3": 1,
                             "cum4": 1}
    finally:
        clear_value_cache()


def test_depth1_evaluates_its_line_only(cfg):
    sizes = []

    def kernel(z):
        sizes.append(len(z))
        return measure_kernel(z)

    res = chain_line_integral([ChainStage(diff=kernel)], 0.25, cfg,
                              decay=(TWO_PI, TWO_PI))
    assert sizes == [res.meta["nodes"]]


# ---------------------------------------------------------------------------
# Reusable kernel operand

def test_reused_operand_matches_fresh():
    """An operand keeps its logarithm and hull; convolving it again gives
    the fresh operand's output bit for bit, whether the call repeats,
    its tilts repeat (same magnitudes) or they move."""
    n = 300
    y = np.linspace(-8.0, 8.0, n)
    yd = np.linspace(-16.0, 16.0, 2 * n - 1)
    table = np.exp(-3.0 * np.abs(yd) + 2.0j * yd) / (1.0 + yd * yd)
    first = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    same_tilts = first * np.exp(0.3j * y)
    moved = np.exp(2.0 * y - 0.5j * y * y) * np.exp(-0.2 * y * y)
    op = quad._Operand(table)
    quad._tilted_convolve(first[None], op, n - 1, 2 * n - 1)
    for a in (first, same_tilts, moved, first):
        got = quad._tilted_convolve(a[None], op, n - 1, 2 * n - 1)
        fresh = quad._tilted_convolve(a[None], quad._Operand(table),
                                      n - 1, 2 * n - 1)
        assert got.tobytes() == fresh.tobytes()


def test_block_transforms_span_their_lags(monkeypatch):
    """Each tilt block of L chain outputs reads n + L - 1 differences of
    the table and transforms just those, at _fast_len(n + L - 1) instead
    of the _fast_len(2n - 1) of the whole convolution: the table's
    transforms are taken of those windows at those lengths."""
    n = 300
    y = np.linspace(-8.0, 8.0, n)
    yd = np.linspace(-16.0, 16.0, 2 * n - 1)
    table = np.exp(-3.0 * np.abs(yd) + 2.0j * yd) / (1.0 + yd * yd)
    first = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    plans, windows = [], []
    plan, fft = quad._tilt_plan, quad._tilted_fft
    monkeypatch.setattr(quad, "_tilt_plan",
                        lambda *args: plans.append(plan(*args)) or plans[-1])

    def spy(x, lx, t, size):
        if np.shares_memory(x, table):
            windows.append((t, len(x), size))
        return fft(x, lx, t, size)

    monkeypatch.setattr(quad, "_tilted_fft", spy)
    quad._tilted_convolve(first[None], quad._Operand(table),
                          n - 1, 2 * n - 1)
    [blocks] = plans
    assert len(blocks) > 1
    sizes = [quad._fast_len(n + stop - start) for _, start, stop in blocks]
    assert windows == [
        (t, min(2 * n - 1, stop + 1) - (start - n + 1), size)
        for (t, start, stop), size in zip(blocks, sizes)]
    assert sum(sizes) < len(blocks) * quad._fast_len(2 * n - 1)


# ---------------------------------------------------------------------------
# The measure table of a grid, shared by every integral on it

def result_bits(res):
    return value_bits(res) + (float(res.err_estimate).hex(),)


GRID_VALUES = [
    ("zeta", lambda: zeta_omega((1, 2, 3), OmegaParam(1.0))),
    ("zeta", lambda: zeta_omega((2, 1, 1, 2), OmegaParam(0.3), FAST)),
    ("reduced", lambda: Z_omega(parse_apoly("E G1 G2 + 2 G1 G1 E G2"),
                                OmegaParam(1.4), FAST)),
    ("generating", lambda: ohno_generating(
        (1, 3), OhnoParams(lam=0.001 + 0.0005j, mu=-0.0007j),
        OmegaParam(0.8), FAST)),
]


@pytest.mark.parametrize("kind, fn", GRID_VALUES,
                         ids=[kind for kind, _ in GRID_VALUES])
def test_warm_grid_memo_keeps_bits(monkeypatch, kind, fn):
    """A value and its estimate are the same bits whether the grid's
    measure table is made afresh or taken from the memo, where the warm
    run evaluates no measure kernel on the chain grid."""
    clear_value_cache()
    cold = fn()
    assert len(cache._MEASURE_MEMO)
    cache._memo.clear()
    calls = {}
    monkeypatch.setattr(quad, "measure_kernel",
                        counted(measure_kernel, calls, "measure"))
    warm = fn()
    clear_value_cache()
    assert "measure" not in calls
    assert result_bits(warm) == result_bits(cold)


def test_grid_memo_stays_within_its_bound(monkeypatch, cfg):
    """Chains on more grids than the memo holds: after each one the
    summed table length is within the bound and is the sum of the kept
    tables, and the oldest grids are the ones dropped.  A table longer
    than the bound is not kept."""
    memo = cache._MEASURE_MEMO
    stages = [ChainStage(cum=lambda t: np.exp(0.3j * t)), ChainStage()]
    clear_value_cache()
    made = []
    for eps in np.linspace(0.1, 0.3, 100):
        res = chain_line_integral(stages, float(eps), cfg,
                                  decay=(TWO_PI, 1.0))
        made.append(2 * res.meta["nodes"] - 1)
        assert memo.total <= memo.maxsize
        assert memo.total == sum(len(op.vals) for op in memo._d.values())
    assert sum(made) > 2 * memo.maxsize
    assert memo.total > memo.maxsize - max(made)
    assert len(memo) < len(made)
    kept = list(memo._d)
    assert kept == sorted(kept)          # the newest (largest eps) kept
    clear_value_cache()
    monkeypatch.setattr(memo, "maxsize", min(made) - 1)
    chain_line_integral(stages, 0.2, cfg, decay=(TWO_PI, 1.0))
    assert len(memo) == 0 and memo.total == 0


def operand_state(op):
    """The operand's attributes, each with its length where it has one,
    so that a container filled in place shows up."""
    return {name: (value, len(value) if hasattr(value, "__len__") else None)
            for name, value in vars(op).items()}


def test_grid_operand_is_shared_and_read_only(monkeypatch, cfg):
    """Two integrals on one grid convolve the memo's own measure operand,
    not a copy of it; its values and logarithm cannot be written, and
    neither integral adds, replaces or fills any of its attributes."""
    eps, decay = 0.2, (TWO_PI, 0.9)
    h, ys = quad._chain_grid(eps, cfg, decay)
    clear_value_cache()
    op = quad._measure_operand(eps, h, len(ys))
    before = operand_state(op)
    assert set(before) == {"vals", "log", "top", "hull"}
    assert not op.vals.flags.writeable and not op.log.flags.writeable
    seen = []
    convolve = quad._tilted_convolve
    monkeypatch.setattr(quad, "_tilted_convolve",
                        lambda a, b, lo, hi: seen.append(b)
                        or convolve(a, b, lo, hi))
    for c in (0.2j, 0.1 + 0.5j):
        chain_line_integral([ChainStage(cum=lambda t, c=c: np.exp(c * t)),
                             ChainStage(), ChainStage()], eps, cfg,
                            decay=decay)
    clear_value_cache()
    assert len(seen) == 4 and all(b is op for b in seen)
    after = operand_state(op)
    assert after.keys() == before.keys()
    for name, (value, size) in before.items():
        assert after[name][0] is value and after[name][1] == size


def test_threads_on_one_grid_keep_bits(cfg):
    """Threads evaluating chains on one grid, more of them than cores and
    all starting on a cold memo with a short switch interval, give the
    bits of one thread: every integral reads the grid's one read-only
    measure operand.  The memo's total stays the sum of the tables it
    holds."""
    def chains():
        return [[ChainStage(cum=lambda t, c=c: np.exp(c * t)),
                 ChainStage(cum=lambda t, c=c: np.exp(0.5 * c * t)),
                 ChainStage()] for c in (0.2j, 0.35j, 0.1 + 0.5j)]

    def run():
        return [result_bits(chain_line_integral(st, 0.2, cfg,
                                                decay=(TWO_PI, 0.9)))
                for st in chains() for _ in range(3)]

    clear_value_cache()
    want = run()
    clear_value_cache()
    workers = 4
    start = threading.Barrier(workers)
    got = [None] * workers

    def worker(i):
        start.wait(timeout=60)
        got[i] = run()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(workers)]
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
    memo = cache._MEASURE_MEMO
    assert memo.total == sum(len(op.vals) for op in memo._d.values())
    clear_value_cache()
    assert got == [want] * workers


# ---------------------------------------------------------------------------
# Tilt plans chosen at block ends

def ternary_tilt_plan(hull_a, hull_b, lo, hi):
    """_tilt_plan with the tangent of each block chosen by a ternary
    search over the candidates, each probe taking the worst excess over
    every sample point of the block."""
    xa, ya = hull_a
    xb, yb = hull_b
    dx = np.concatenate([np.diff(xa), np.diff(xb)])
    dy = np.concatenate([np.diff(ya), np.diff(yb)])
    if len(dx) == 0:
        return [(0.0, lo, hi - 1)]
    order = np.argsort(-dy / dx, kind="stable")
    vx = xa[0] + xb[0] + np.concatenate([[0.0], np.cumsum(dx[order])])
    vy = ya[0] + yb[0] + np.concatenate([[0.0], np.cumsum(dy[order])])
    slopes = dy[order] / dx[order]
    px = np.concatenate([[lo], vx[(vx > lo) & (vx < hi - 1)], [hi - 1]])
    gy = np.interp(px, vx, vy)
    gy = np.where(px < vx[0], vy[0] + slopes[0] * (px - vx[0]), gy)
    gy = np.where(px > vx[-1], vy[-1] + slopes[-1] * (px - vx[-1]), gy)
    base = vy[:-1] - slopes * vx[:-1]
    own = np.clip(np.searchsorted(vx, px, side="right") - 1,
                  0, len(slopes) - 1)

    def excess(e, p):
        return base[e] + slopes[e] * px[p] - gy[p]

    plan = []
    start = 0
    while True:
        cand = np.arange(own[start], len(slopes))
        reach = cand[np.flatnonzero(excess(cand, start)
                                    <= quad._TILT_SLACK)[-1]]
        over = np.flatnonzero(excess(reach, np.arange(start, len(px)))
                              > quad._TILT_SLACK)
        stop = len(px) - 1 if len(over) == 0 else start + int(over[0]) - 1
        block = np.arange(start, stop + 1)
        e0, e1 = int(own[start]), int(reach)
        while e1 - e0 > 2:
            m0 = e0 + (e1 - e0) // 3
            m1 = e1 - (e1 - e0) // 3
            if excess(m0, block).max() <= excess(m1, block).max():
                e1 = m1
            else:
                e0 = m0
        e = min(range(e0, e1 + 1), key=lambda c: excess(c, block).max())
        # the tilts `quad._tilt_plan` uses: multiples of 2^-20
        t = round(-float(slopes[e]) * 2 ** 20) / 2 ** 20
        plan.append((t, int(px[start]), int(px[stop])))
        if stop == len(px) - 1:
            return plan
        start = stop


def test_tilt_plan_matches_ternary_search(monkeypatch):
    """On the hulls of zeta chains at omega 0.3, 1 and 1.9, depths 2-6,
    choosing each tangent from its excesses at the block ends gives the
    plan of the ternary search over whole blocks.  Their grids are small
    enough for direct sums, so every stage is sent down the tilted path
    (no grid is direct at _DIRECT_MAX 0)."""
    monkeypatch.setattr(quad, "_DIRECT_MAX", 0)
    recorded = []
    plan = quad._tilt_plan
    monkeypatch.setattr(quad, "_tilt_plan",
                        lambda *args: recorded.append(args) or plan(*args))
    for w in (0.3, 1.0, 1.9):
        for k in ((1, 2), (2, 1, 2), (1, 1, 1, 2), (1, 2, 1, 1, 2),
                  (1, 1, 1, 1, 1, 2)):
            clear_value_cache()
            zeta_omega(k, OmegaParam(w))
    clear_value_cache()
    assert len(recorded) == 3 * (1 + 2 + 3 + 4 + 5)
    for args in recorded:
        assert plan(*args) == ternary_tilt_plan(*args)
