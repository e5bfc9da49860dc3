"""Contour quadrature on vertical lines: accuracy, honesty, and guards."""

import cmath
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from omzv import (GammaContext, OhnoParams, OmegaParam, QuadConfig,
                  QuadError, Z_omega_monomial, connected_integral, ohno,
                  parse_amonomial, quad, zeta_omega)
from omzv.omega import clear_value_cache
from omzv.quad import ChainStage, chain_line_integral, geometric_factor

TWO_PI = 2.0 * math.pi


def exp_kernel(alpha):
    """t -> e^(alpha t) / (e^(2 pi i t) - 1), integrable on Re t = -eps
    for 0 < Im alpha < 2 pi, with line integral 1 / (e^alpha - 1)."""
    return lambda t: np.exp(alpha * t) / (np.exp(2j * np.pi * t) - 1.0)


def kernel_decay(alpha):
    return (TWO_PI - alpha.imag, alpha.imag)


def line_integral(f, eps, cfg, decay):
    """Integral of f over the line Re t = -eps, upward, as the depth-1
    chain whose one stage is f.  Returns (value, err)."""
    res = chain_line_integral([ChainStage(diff=f)], eps, cfg, decay=decay)
    return res.value, res.err_estimate


def test_kernel_lemma_midpoint(cfg):
    alpha = math.pi * 1j
    value, err = line_integral(exp_kernel(alpha), 0.25, cfg,
                               kernel_decay(alpha))
    assert value == pytest.approx(-0.5, abs=1e-10)
    assert abs(value - (-0.5)) <= 10.0 * err + 1e-12


@pytest.mark.parametrize("alpha", [0.3 + 1.0j, -0.5 + 2.0j, 1.2 + 4.5j,
                                   0.0 + 0.7j, 2.0 + 5.8j])
def test_kernel_lemma_battery(cfg, alpha):
    exact = 1.0 / (cmath.exp(alpha) - 1.0)
    value, _ = line_integral(exp_kernel(alpha), 0.3, cfg,
                             kernel_decay(alpha))
    assert abs(value - exact) / abs(exact) < 1e-8


def test_line_is_eps_independent(cfg):
    alpha = 0.4 + 2.5j
    f = exp_kernel(alpha)
    vals = [line_integral(f, eps, cfg, kernel_decay(alpha))[0]
            for eps in (0.1, 0.25, 0.45)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-10


def lemma_chain(a1, a2):
    """Cumulative kernels e^{a1 T1} e^{a2 T2}, their decay rates and the
    value 1/((e^{a1+a2}-1)(e^{a2}-1)) of their chain."""
    stages = [ChainStage(cum=lambda t: np.exp(a1 * t)),
              ChainStage(cum=lambda t: np.exp(a2 * t))]
    exact = 1.0 / ((cmath.exp(a1 + a2) - 1.0) * (cmath.exp(a2) - 1.0))
    return stages, (TWO_PI, min(a2.imag, (a1 + a2).imag)), exact


# Fine-grid nodes of (1);(1), (2);(1) and (1,2);(1) at rel_tol 1e-7 and
# 1e-9, at lam = mu = 0 and at a deformation point.  With the step rule
# 1/h + nu/pi and the decay rate 1.6 pi w eps min(r, s) they were 1.7-1.9
# times as many; with a fixed 6-unit margin on both sides and a plus
# band per stage after the first, 1.08-1.36 times as many.
CONNECTOR_NODES = {
    0.3: [(2941, 3465), (2941, 3465), (4417, 5201),
          (2973, 3501), (2973, 3501), (4473, 5277)],
    1.0: [(1301, 1517), (1301, 1517), (1841, 2153),
          (1313, 1533), (1313, 1533), (1861, 2181)],
    1.9: [(2469, 2881), (2469, 2881), (3489, 4081),
          (2513, 2941), (2513, 2941), (3573, 4189)]}


@pytest.mark.parametrize("omega", sorted(CONNECTOR_NODES))
def test_connector_grid_is_sized_by_its_oscillation_and_decay(omega):
    """The connector's step adds nu/(2 pi) to 1/h for the cross-phase
    chirp of frequency nu, and its upward decay rate is the Theta
    asymptotics' 2 pi w eps min(r, s).  Those grids need no refinement,
    and each value lies within its estimate plus that of a rel_tol 1e-13
    reference."""
    p = OmegaParam(omega)
    ref_ctx = GammaContext(p, cfg=QuadConfig(rel_tol=1e-13, abs_tol=1e-15))
    ctxs = [GammaContext(p, cfg=QuadConfig(rel_tol=tol))
            for tol in (1e-7, 1e-9)]
    clear_value_cache()
    nodes = []
    for op in (OhnoParams(), OhnoParams(0.003 + 0.001j, -0.002 + 0.0025j)):
        for k, l in (((1,), (1,)), ((2,), (1,)), ((1, 2), (1,))):
            ref = connected_integral(k, l, op, ref_ctx)
            got = [connected_integral(k, l, op, ctx) for ctx in ctxs]
            for res in got:
                assert res.meta["refinements"] == 0
                assert (abs(res.value - ref.value)
                        <= res.err_estimate + ref.err_estimate), (k, l, op)
            nodes.append(tuple(res.meta["nodes"] for res in got))
    assert nodes == CONNECTOR_NODES[omega]


@pytest.mark.parametrize("omega, depth, nodes", [(0.6, 1, 421), (1.0, 2, 501),
                                                 (1.0, 6, 1157),
                                                 (1.4, 4, 1025)])
def test_zeta_grids_have_no_oscillation_term(omega, depth, nodes):
    """Zeta chains pass no frequency, so the connector's step rule
    leaves their grids to the pole distance and the span rule."""
    clear_value_cache()
    res = zeta_omega((1,) * (depth - 1) + (2,), OmegaParam(omega))
    assert res.meta["nodes"] == nodes


NARROW_GRID = quad._chain_grid


def wide_grid(eps, cfg, *args, **kwargs):
    """`quad._chain_grid` with one more guard band on each side, at the
    same step: the sides stay multiples of 4 nodes."""
    h, ys = NARROW_GRID(eps, cfg, *args, **kwargs)
    extra = 4 * math.ceil(quad._log_target(cfg) / TWO_PI / h / 4.0)
    lo, hi = round(ys[0] / h) - extra, round(ys[-1] / h) + extra
    return h, h * np.arange(lo, hi + 1)


def seeded_indices(seed=2406):
    """One admissible index per depth 1-8, entries 1-3, last >= 2."""
    rng = random.Random(seed)
    return [tuple(rng.randint(1, 3) for _ in range(depth - 1))
            + (rng.randint(2, 3),) for depth in range(1, 9)]


def narrow_and_wide(monkeypatch, evaluate):
    """evaluate() on the chain grids and on grids one band wider per
    side: the pair of results, each from an empty memo."""
    clear_value_cache()
    res = evaluate()
    with monkeypatch.context() as m:
        m.setattr(quad, "_chain_grid", wide_grid)
        clear_value_cache()
        wide = evaluate()
    clear_value_cache()
    assert wide.meta["nodes"] > res.meta["nodes"]
    return res, wide


@pytest.mark.parametrize("omega", [0.05, 0.3, 1.0, 1.9, 1.99])
def test_zeta_spans_cover_the_tails(monkeypatch, omega):
    """One guard band per side is enough: a span one band wider on each
    side moves no zeta value of depth 1-8 beyond its estimate."""
    p = OmegaParam(omega)
    for k in seeded_indices():
        res, wide = narrow_and_wide(monkeypatch, lambda: zeta_omega(k, p))
        assert abs(res.value - wide.value) <= res.err_estimate, k


@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_monomial_spans_cover_the_tails(monkeypatch, omega):
    """The E-block and G kernels do not decay downward: without the
    minus band, E G1 E G1 and E G1 G1 miss their estimates here."""
    p = OmegaParam(omega)
    for text in ("G2 G2", "E G1 E G1", "E G1 G1", "G1 G3"):
        mono = parse_amonomial(text)
        res, wide = narrow_and_wide(monkeypatch,
                                    lambda: Z_omega_monomial(mono, p))
        assert abs(res.value - wide.value) <= res.err_estimate, text


def test_coarse_grid_is_refined(cfg):
    """A pole-distance hint five times the real one sizes a grid far too
    coarse for the tolerance.  Its step is halved on the same span until
    the estimate meets the tolerance, meta counts the halvings, and the
    value meets the kernel lemma within its estimate."""
    stages, decay, exact = lemma_chain(0.3 + 0.2j, 0.2 + 0.3j)
    h, ys = quad._chain_grid(0.2, cfg, decay, pole_dist=1.0)
    res = chain_line_integral(stages, 0.2, cfg, decay=decay, pole_dist=1.0)
    assert res.meta["refinements"] == 2
    assert res.meta["h"] == h / 4
    assert res.meta["nodes"] == 4 * len(ys) - 3
    assert res.meta["U"] == (-ys[0], ys[-1])
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert abs(res.value - exact) <= res.err_estimate <= tol
    plain = chain_line_integral(stages, 0.2, cfg, decay=decay)
    assert plain.meta["refinements"] == 0


def test_refinement_beyond_budget_raises(monkeypatch, cfg):
    """A halving that would take the grid past the node budget raises
    QuadError instead of returning an estimate above the tolerance."""
    stages, decay, _ = lemma_chain(0.3 + 0.2j, 0.2 + 0.3j)
    _, ys = quad._chain_grid(0.2, cfg, decay, pole_dist=1.0)
    monkeypatch.setattr(quad, "_MAX_CHAIN_NODES", 2 * len(ys))
    with pytest.raises(QuadError, match="refinement") as info:
        chain_line_integral(stages, 0.2, cfg, decay=decay, pole_dist=1.0)
    assert info.value.detail["nodes"] == 4 * len(ys) - 3


@pytest.mark.parametrize("a1, a2", [(0.3 + 0.2j, 0.2 + 0.3j),
                                    (-0.4 + 0.1j, 0.1 + 0.5j)])
def test_chain_kernel_lemma_depth2(cfg, a1, a2):
    """Cumulative kernels e^{a1 T1} e^{a2 T2} make the chain a product of
    two kernel lemmas in the gaps: 1/((e^{a1+a2}-1)(e^{a2}-1)).  The
    first pair spans a grid wide enough to overflow e^{2 pi i t}."""
    stages = [ChainStage(cum=lambda t: np.exp(a1 * t)),
              ChainStage(cum=lambda t: np.exp(a2 * t))]
    exact = 1.0 / ((cmath.exp(a1 + a2) - 1.0) * (cmath.exp(a2) - 1.0))
    res = chain_line_integral(stages, 0.2, cfg,
                              decay=(TWO_PI, min(a2.imag, (a1 + a2).imag)))
    assert abs(res.value - exact) <= res.err_estimate


@pytest.mark.parametrize("omega, k", [(0.6, (1, 1, 1, 1, 3)),
                                      (1.0, (1, 1, 1, 1, 3)),
                                      (0.3, (1, 1, 1, 1, 2, 2))])
def test_fft_chain_matches_direct(monkeypatch, omega, k):
    """These chains span many decades; an untilted FFT misses the direct
    value by more than its error estimate on each of them.  Their grids
    are small enough for direct stages, so every stage is sent down the
    tilted path (no grid is direct at _DIRECT_MAX 0), and the reference
    replaces that path with the direct sum."""
    monkeypatch.setattr(quad, "_DIRECT_MAX", 0)
    calls = []

    def direct_convolve(a, b, lo, hi):
        """_tilted_convolve as the direct O(n^2) sum, row by row."""
        calls.append(a.shape)
        b = getattr(b, "vals", b)
        return np.apply_along_axis(lambda row: np.convolve(row, b)[lo:hi],
                                   -1, a)

    p = OmegaParam(omega)
    clear_value_cache()
    fft = zeta_omega(k, p)
    monkeypatch.setattr(quad, "_tilted_convolve", direct_convolve)
    clear_value_cache()
    ref = zeta_omega(k, p)
    clear_value_cache()
    assert len(calls) >= 1
    assert abs(fft.value - ref.value) <= ref.err_estimate


@pytest.mark.parametrize("lo, hi", [(0, 599), (299, 599), (150, 450)])
def test_tilted_convolve_keeps_small_outputs(lo, hi):
    """Each output is rounded relative to its own sum_i |a_i b_{k-i}|, as
    in the direct sum, also dozens of decades below the largest one and
    next to sign changes."""
    y = np.linspace(-8.0, 8.0, 300)
    a = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    b = np.exp(2.0 * y - 0.5j * y * y)
    full = np.convolve(a, b)[lo:hi]
    scale = np.convolve(np.abs(a), np.abs(b))[lo:hi]
    got = quad._tilted_convolve(a[None], quad._Operand(b), lo, hi)[0]
    assert np.max(np.abs(got - full) / scale) < 1e-12


def _grid_sizes_around_direct_max():
    """The largest chain grid (n - 1 a multiple of 4) of direct stages
    and the next one, of tilted stages."""
    below = quad._DIRECT_MAX - (quad._DIRECT_MAX - 1) % 4
    return below, below + 4


@pytest.mark.parametrize("n", [301, *_grid_sizes_around_direct_max()])
def test_chain_stage_rounds_each_output_to_its_scale(monkeypatch, n):
    """Each row's outputs at its nodes, against a np.clongdouble direct
    sum, in units of u times the output's own scale sum_i |a_i b_{k-i}|:
    within 8 u on direct grids, within the tilted convolution's 1e-12
    relative bound above _DIRECT_MAX, also at outputs 20 decades below
    the row's largest."""
    tilted = []
    convolve = quad._tilted_convolve
    monkeypatch.setattr(quad, "_tilted_convolve", lambda *args: (
        tilted.append(args[0].shape) or convolve(*args)))
    y = np.linspace(-8.0, 8.0, n)
    yd = np.linspace(-16.0, 16.0, 2 * n - 1)
    a = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    table = np.exp(-6.0 * np.abs(yd) + 2.0j * yd) / (1.0 + yd * yd)
    rows = np.stack([a, a * np.exp(0.3j * y), a * np.exp(-0.5 * y)])
    rows[1:, 1::2] = rows[2, 2::4] = 0.0
    got = quad._convolve(rows, quad._Operand(table), n - 1, 2 * n - 1)
    direct = n <= quad._DIRECT_MAX
    assert tilted == ([] if direct else [(3, n)])
    u = np.finfo(float).eps / 2
    for row, out, m in zip(rows, got, quad.STEPS):
        ref = np.convolve(table[::m].astype(np.clongdouble),
                          row[::m].astype(np.clongdouble), "valid")
        scale = np.convolve(np.abs(table[::m]).astype(np.longdouble),
                            np.abs(row[::m]).astype(np.longdouble), "valid")
        assert np.abs(ref).min() < 1e-20 * np.abs(ref).max()
        err = np.abs(out[::m] - ref) / scale
        assert err.max() <= (8.0 * u if direct else 1e-12)


def test_direct_stage_of_a_real_row_keeps_the_imaginary_part():
    """A real row (a real first-stage kernel) with a complex table gives
    complex outputs on a direct grid, as on a tilted one."""
    y = np.linspace(-4.0, 4.0, 101)
    yd = np.linspace(-8.0, 8.0, 201)
    row, table = np.exp(-y * y), np.exp(-np.abs(yd) + 1j * yd)
    got = quad._convolve(row[None], quad._Operand(table), 100, 201)[0]
    assert got.tobytes() == np.convolve(table, row, "valid").tobytes()


def test_subnormal_products_take_the_tilted_path(monkeypatch):
    """At omega 0.05 and rel_tol 1e-3 the one stage of zeta(1, 2) runs on
    545 nodes, below _DIRECT_MAX, but a product of its row's and its
    table's smallest nonzero entries is subnormal, which would slow a
    direct sum several times: it takes `_tilted_convolve`.  Its value
    agrees with the direct sum's (the range test lifted) within the
    estimates."""
    stages = []
    convolve = quad._tilted_convolve

    def spy(a, b, lo, hi):
        mag = np.abs(a[0])
        stages.append((a.shape, mag[mag > 0].min()
                       * np.abs(b.vals[b.vals != 0]).min()))
        return convolve(a, b, lo, hi)

    monkeypatch.setattr(quad, "_tilted_convolve", spy)
    p, cfg = OmegaParam(0.05), QuadConfig(rel_tol=1e-3, abs_tol=1e-6)
    clear_value_cache()
    res = zeta_omega((1, 2), p, cfg)
    n = res.meta["nodes"]
    assert n <= quad._DIRECT_MAX
    assert stages == [((3, n), stages[0][1])]
    assert stages[0][1] < np.finfo(float).tiny
    monkeypatch.setattr(quad, "_TINY", 0.0)
    clear_value_cache()
    direct = zeta_omega((1, 2), p, cfg)
    clear_value_cache()
    assert len(stages) == 1
    assert (abs(direct.value - res.value)
            <= direct.err_estimate + res.err_estimate)


def test_tilt_exponents_are_exact(monkeypatch):
    """On the tilt plan of a 2^17-node chain stage, every exponent of the
    tilted FFT is exact in float64: t*i, e - s and sa + sb - t*k equal
    their values in integer arithmetic, in units of 2^-20 (tilts are
    multiples of 2^-20, row scales integers)."""
    n = 2 ** 17
    y = np.linspace(-40.0, 40.0, n)
    yd = np.linspace(-80.0, 80.0, 2 * n - 1)
    a = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    table = np.exp(-3.0 * np.abs(yd) + 2.0j * yd) / (1.0 + yd * yd)
    plans, scales = [], []
    plan, fft = quad._tilt_plan, quad._tilted_fft
    monkeypatch.setattr(quad, "_tilt_plan",
                        lambda *args: plans.append(plan(*args)) or plans[-1])

    def spy(x, lx, t, size):
        f, s = fft(x, lx, t, size)
        scales.append((lx.shape[-1], s.item()))
        return f, s

    monkeypatch.setattr(quad, "_tilted_fft", spy)
    quad._tilted_convolve(a[None], quad._Operand(table), n - 1, 2 * n - 1)
    [blocks] = plans
    assert len(blocks) > 1 and len(scales) == 2 * len(blocks)
    unit = 2 ** 20
    rows = iter(scales)
    for t, start, stop in blocks:
        j = round(t * unit)
        assert t * unit == j and abs(t) < 2 ** 11
        ends = []
        for m, s in (next(rows), next(rows)):
            i = np.arange(m)
            assert s == int(s)
            assert np.array_equal(i * t * unit, (i * j).astype(float))
            assert np.array_equal((i * t - s) * unit,
                                  (i * j - int(s) * unit).astype(float))
            ends.append(int(s))
        k = np.arange(start - max(0, start - n + 1),
                      stop + 1 - max(0, start - n + 1))
        assert np.array_equal((float(sum(ends)) - t * k) * unit,
                              (sum(ends) * unit - k * j).astype(float))


@pytest.mark.parametrize("lo, hi", [(0, 599), (299, 599), (150, 450)])
def test_zero_stuffed_row_is_the_coarse_convolution(lo, hi):
    """A second row holding a at the even nodes and zeros between gives,
    at its even outputs, the convolution of a[::2] with b[::2] (the step
    2h chain stage), each output rounded to its own scale, while the
    first row keeps the bits of its one-row call."""
    y = np.linspace(-8.0, 8.0, 301)
    a = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    b = np.exp(2.0 * y - 0.5j * y * y)
    rows = np.stack([a, a])
    rows[1, 1::2] = 0.0
    op = quad._Operand(b)
    got = quad._tilted_convolve(rows, op, lo, hi)
    one = quad._tilted_convolve(a[None], op, lo, hi)[0]
    assert got[0].tobytes() == one.tobytes()
    ks = np.arange(lo, hi)
    even = ks[ks % 2 == 0] // 2
    full = np.convolve(a[::2], b[::2])[even]
    scale = np.convolve(np.abs(a[::2]), np.abs(b[::2]))[even]
    assert np.max(np.abs(got[1][ks % 2 == 0] - full) / scale) < 1e-12


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_one_convolution_and_hull_per_stage(monkeypatch, cfg, depth):
    """The chains of step 2h and 4h ride in the fine pass: a depth-r
    chain makes r - 1 convolutions of its three rows and takes r - 1
    hulls of chi (the shared diff table adds one hull of its own, of
    length 2n - 1).  The spans do not depend on the depth, so the memo
    is emptied first: another depth's grid would lend its table."""
    clear_value_cache()
    convs, hulls = [], []
    tilted, hull = quad._tilted_convolve, quad._upper_hull
    monkeypatch.setattr(quad, "_tilted_convolve",
                        lambda a, *rest: convs.append(a.shape)
                        or tilted(a, *rest))
    monkeypatch.setattr(quad, "_upper_hull",
                        lambda la: hulls.append(len(la)) or hull(la))
    stages = [ChainStage(cum=lambda t, a=a: np.exp(0.1j * a * t))
              for a in range(1, depth + 1)]
    res = chain_line_integral(stages, 0.05, cfg, decay=(TWO_PI, 0.1))
    n = res.meta["nodes"]
    assert res.meta["refinements"] == 0
    assert convs == [(3, n)] * (depth - 1)
    assert hulls.count(n) == depth - 1
    assert len(hulls) == depth - 1 + (depth > 1)


def test_chain_peak_memory():
    """A depth-6 chain with its step-doubled row stays within 2 MB of
    traced peak memory: the two-row FFT buffers are made one tilt at a
    time, not for all tilts at once."""
    p = OmegaParam(1.0)
    clear_value_cache()
    tracemalloc.start()
    try:
        zeta_omega((1, 1, 1, 1, 2, 2), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_value_cache()
    assert peak <= 2.0e6


FACTOR_RE = (-700.0, -30.0, -1e-2, 0.0, 1e-2, 30.0, 700.0)
FACTOR_IM = (-5.0, -0.5, 0.0, 1.0, 3.0, 40.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (3, 1), (5, 0)])
def test_geometric_factor_matches_mpmath(a, b):
    """(e^x/(1 - e^x))^a (1/(1 - e^x))^b on both sides of Re x = 0, out
    to |Re x| = 700 where e^|x| is within a factor 2e4 of overflow,
    against 30-digit values.  Near Re x = 0 the difference 1 - e^x
    cancels to |x|, which costs up to eps/|x| per power.  Each x is
    also passed alone, as a scalar."""
    x = np.array([complex(re, im) for re in FACTOR_RE for im in FACTOR_IM
                  if (re, im) != (0.0, 0.0)])
    got = geometric_factor(x, a, b)
    with mp.workdps(30):
        for xi, gi in zip(x, got):
            e = mp.exp(mp.mpc(xi))
            want = complex((e / (1 - e)) ** a * (1 / (1 - e)) ** b)
            for g in (gi, geometric_factor(xi, a, b)):
                assert abs(g - want) <= 1e-13 * abs(want) + 1e-300, xi


@pytest.mark.parametrize("m", [-3, 0, 1, 7])
@pytest.mark.parametrize("shift", [0.0, 1e-13, -1e-13j, 7e-14 + 7e-14j])
def test_geometric_factor_pole_is_a_quad_error(m, shift):
    """x within 1e-13 of a pole 2 pi i m, among regular points, raises
    for every pair of powers."""
    x = np.array([0.3 + 1.0j, 2j * math.pi * m + shift, -4.0 + 2.0j])
    for a, b in [(1, 0), (0, 1), (3, 1), (5, 0)]:
        with pytest.raises(QuadError):
            geometric_factor(x, a, b)


def reference_geometric_factor(x, a, b):
    """geometric_factor as one fresh array per step, the formula that the
    in-place form must reproduce bit for bit."""
    x = np.asarray(x, dtype=complex)
    pos = x.real > 0.0
    s = x * np.where(pos, -1.0, 1.0)
    e = np.exp(s)
    d = e - 1.0
    small = np.abs(s) < 1e-4
    if np.any(small):
        zs = np.where(small, s, 0.0)
        series = zs * (1.0 + zs / 2.0 * (1.0 + zs / 3.0 * (1.0 + zs / 4.0)))
        d = np.where(small, series, d)
    if np.any(np.abs(d) < 1e-12):
        raise QuadError("kernel pole")

    def power(z, k):
        out = np.ones_like(z) if k == 0 else z
        for _ in range(k - 1):
            out = out * z
        return out

    num = np.asarray((-1.0) ** (a + b) * power(e, a))
    np.copyto(num, power(e, b), where=pos)
    return num / power(d, a + b)


def hex_bits(z):
    z = np.asarray(z, dtype=complex).ravel()
    return [(v.real.hex(), v.imag.hex()) for v in z.tolist()]


@pytest.mark.parametrize("a", range(7))
@pytest.mark.parametrize("b", range(7))
def test_geometric_factor_matches_reference_bits(a, b):
    """The in-place factor equals the fresh-array formula bit for bit on
    random x in both half-planes, in the series range near the poles and
    far out, in one and two dimensions, and raises where it raises.  A
    scalar is a one-point array (the formula on a 0-d input would round
    through numpy's scalar arithmetic instead)."""
    rng = np.random.default_rng(100 + 7 * a + b)
    x = np.concatenate([
        rng.uniform(-40.0, 40.0, 300) + 1j * rng.uniform(-40.0, 40.0, 300),
        rng.uniform(-1e-4, 1e-4, 60) + 1j * rng.uniform(-1e-4, 1e-4, 60),
        rng.uniform(-700.0, 700.0, 40) + 1j * rng.uniform(-5.0, 5.0, 40),
        [1e-5 + 2j * math.pi, -3e-5j + 4j * math.pi, 0.5 - 1e-7j,
         -2e-6 + 1e-6j]])
    assert hex_bits(geometric_factor(x, a, b)) == \
        hex_bits(reference_geometric_factor(x, a, b))
    grid = x.reshape(2, -1)
    assert hex_bits(geometric_factor(grid, a, b)) == \
        hex_bits(reference_geometric_factor(grid, a, b))
    for xi in x[::37]:
        assert hex_bits(geometric_factor(xi, a, b)) == \
            hex_bits(reference_geometric_factor([xi], a, b))
    pole = np.append(x[:5], 2j * math.pi * 3 + 1e-13)
    for f in (geometric_factor, reference_geometric_factor):
        with pytest.raises(QuadError):
            f(pole, a, b)


def test_non_finite_chain_raises(cfg):
    """One infinite kernel value spreads over every FFT output; the
    integral raises instead of returning NaN."""
    def spike(t):
        out = np.exp(0.5j * t)
        out[len(out) // 2] = np.inf
        return out

    stages = [ChainStage(cum=spike),
              ChainStage(cum=lambda t: np.exp(0.5j * t))]
    with pytest.raises(QuadError) as info:
        chain_line_integral(stages, 0.2, cfg, decay=(TWO_PI, 0.5))
    assert info.value.detail["stage"] == "fine"
    assert info.value.detail["nodes"] > 0


def test_non_finite_connector_raises(monkeypatch, ctx1):
    """The same for the connector: one infinite J kernel value in the
    first chain makes the Theta sum non-finite, and the connected
    integral raises at the fine stage instead of returning NaN."""
    plain = ohno._j_kernel

    def spike(kk, t, lam, mu, p):
        out = plain(kk, t, lam, mu, p)
        out[len(out) // 2] = np.inf
        return out

    monkeypatch.setattr(ohno, "_j_kernel", spike)
    clear_value_cache()
    with pytest.raises(QuadError) as info:
        ohno.connected_integral((1, 2), (1,), ohno.OhnoParams(), ctx1)
    clear_value_cache()
    assert info.value.detail["stage"] == "fine"
    assert info.value.detail["nodes"] > 0


def test_error_estimates_are_honest(cfg):
    for alpha in (0.3 + 1.0j, 1.2 + 4.5j):
        exact = 1.0 / (cmath.exp(alpha) - 1.0)
        value, err = line_integral(exp_kernel(alpha), 0.3, cfg,
                                   kernel_decay(alpha))
        assert abs(value - exact) <= 10.0 * err + 1e-12


def test_rejects_bad_decay(cfg):
    f = exp_kernel(math.pi * 1j)
    with pytest.raises((QuadError, ValueError)):
        line_integral(f, 0.25, cfg, (0.0, -1.0))


def test_pole_on_the_contour_is_refused(cfg):
    """pole_dist=0.0 is a pole on the contour, not "no pole distance
    given": the grid is not sized from eps instead."""
    with pytest.raises(QuadError, match="pole distance must be positive") \
            as info:
        chain_line_integral([ChainStage()], 0.25, cfg, decay=(TWO_PI, 1.0),
                            pole_dist=0.0)
    assert info.value.detail["pole_dist"] == 0.0


def test_chain_of_no_stages_is_its_prefactor(cfg):
    res = chain_line_integral([], 0.25, cfg, decay=(TWO_PI, 1.0),
                              prefactor=2.5j)
    assert (res.value, res.err_estimate, res.meta) == (2.5j, 0.0, {"dim": 0})


def test_all_zero_first_row_convolves_to_zeros():
    """The rows share the first row's tilt plan, so an all-zero first
    row gives zeros for every row."""
    rows = np.zeros((2, 8), dtype=complex)
    rows[1] = 1.0
    got = quad._tilted_convolve(rows, quad._Operand(np.ones(8)), 2, 10)
    assert got.shape == (2, 8) and not got.any()


@pytest.mark.parametrize("field, bad", [
    ("rel_tol", -1.0), ("rel_tol", 0.0), ("rel_tol", math.nan),
    ("rel_tol", math.inf), ("abs_tol", -1e-12), ("abs_tol", math.nan),
    ("abs_tol", math.inf)])
def test_config_refuses_tolerances_outside_their_domain(field, bad):
    """A tolerance no grid can meet is refused when the config is made,
    instead of a value that claims it (rel_tol -1) or a crash inside the
    grid sizing (rel_tol NaN); abs_tol 0 is a valid target."""
    with pytest.raises(ValueError, match=field):
        QuadConfig(**{field: bad})
    assert QuadConfig(abs_tol=0.0).abs_tol == 0.0


def test_config_fingerprint_tracks_settings():
    base = QuadConfig()
    assert base.fingerprint() == QuadConfig().fingerprint()
    assert QuadConfig(rel_tol=1e-7).fingerprint() != base.fingerprint()
    assert QuadConfig(abs_tol=1e-9).fingerprint() != base.fingerprint()
    # the span rule and the grid constants stay in the text, so
    # changing one changes the keys of the value store
    assert base.fingerprint() == "r1e-09,a1e-12,g1,s0.8,q1.4"
