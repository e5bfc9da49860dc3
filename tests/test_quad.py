"""Contour quadrature on vertical lines: accuracy, honesty, and guards."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from omzv import (GammaContext, OhnoParams, OmegaParam, QuadConfig,
                  QuadError, connected_integral, ohno, quad, zeta_omega)
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
# times as many.
CONNECTOR_NODES = {
    0.3: [(3177, 3737), (3177, 3737), (5009, 5881),
          (3205, 3777), (3205, 3777), (5069, 5957)],
    1.0: [(1553, 1809), (1553, 1809), (2505, 2905),
          (1565, 1829), (1565, 1829), (2537, 2941)],
    1.9: [(2945, 3433), (2945, 3433), (4757, 5513),
          (3001, 3505), (3001, 3505), (4865, 5649)]}


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


@pytest.mark.parametrize("omega, depth, nodes", [(0.6, 1, 513), (1.0, 2, 729),
                                                 (1.0, 6, 2617),
                                                 (1.4, 4, 2025)])
def test_zeta_grids_have_no_oscillation_term(omega, depth, nodes):
    """Zeta chains pass no frequency, so the connector's step rule
    leaves their grids as they were."""
    clear_value_cache()
    res = zeta_omega((1,) * (depth - 1) + (2,), OmegaParam(omega))
    assert res.meta["nodes"] == nodes


def test_coarse_grid_is_refined(cfg):
    """A pole-distance hint five times the real one sizes a grid far too
    coarse for the tolerance.  Its step is halved on the same span until
    the estimate meets the tolerance, meta counts the halvings, and the
    value meets the kernel lemma within its estimate."""
    stages, decay, exact = lemma_chain(0.3 + 0.2j, 0.2 + 0.3j)
    h, ys = quad._chain_grid(0.2, cfg, decay, 2, pole_dist=1.0)
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
    _, ys = quad._chain_grid(0.2, cfg, decay, 2, pole_dist=1.0)
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
    value by more than its error estimate on each of them."""
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
    got = quad._tilted_convolve(a, b, lo, hi)
    assert np.max(np.abs(got - full) / scale) < 1e-12


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
    got = quad._tilted_convolve(rows, b, lo, hi)
    assert got[0].tobytes() == quad._tilted_convolve(a, b, lo, hi).tobytes()
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
    length 2n - 1)."""
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


def test_config_fingerprint_tracks_settings():
    base = QuadConfig()
    assert base.fingerprint() == QuadConfig().fingerprint()
    assert QuadConfig(rel_tol=1e-7).fingerprint() != base.fingerprint()
    assert QuadConfig(abs_tol=1e-9).fingerprint() != base.fingerprint()
    # the grid constants stay in the text, so changing one changes the
    # keys of the value store
    assert base.fingerprint() == "r1e-09,a1e-12,m6,s0.8,q1.4"
