"""Hyperbolic gamma: strip integral against mpmath, chirp-z against
dense sums, reflection, quasi-periods, far field, poles."""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from omzv import GammaContext, OhnoParams, OmegaParam, QuadConfig, QuadError
from omzv import hypgamma
from omzv.hypgamma import (_CHIRP_MIN, _far_threshold, _log_G_far,
                           _uniform_step, log_G, log_G_line)
from omzv.ohno import (clear_connector_cache, connected_integral,
                       saalschutz_check)
from omzv.verify import saalschutz_points


def make_ctx(omega):
    return GammaContext(OmegaParam(omega),
                        cfg=QuadConfig(rel_tol=1e-7, abs_tol=1e-9))


def sample_grid(ctx):
    s0 = ctx.core_band
    return [re + 1j * im for re in (-1.3, 0.4, 1.1)
            for im in (-0.6 * s0, 0.0, 0.5 * s0)]


def mp_log_G(z, omega):
    """log G(z) = i int_0^inf (sin(2 w t z)/(2 t sinh(w t) sinh t) - z/t^2)
    dt to 30 digits, for |Im z| < (1 + 1/w)/2.  The two terms cancel as
    t -> 0, so [0, 1] takes Gauss-Legendre nodes (none near t = 0) and
    the working precision has headroom."""
    with mp.workdps(40):
        w = mp.mpf(omega)
        z = mp.mpc(z)

        def f(t):
            return (mp.sin(2 * w * t * z)
                    / (2 * t * mp.sinh(w * t) * mp.sinh(t)) - z / t ** 2)

        head = mp.quad(f, [0, 1], method="gauss-legendre")
        return complex(1j * (head + mp.quad(f, [1, 4, 16, mp.inf])))


@pytest.mark.parametrize("omega", [0.3, 0.6, 1.0, 1.4, 1.8])
def test_log_G_matches_mpmath(omega):
    ctx = GammaContext(OmegaParam(omega))
    s0 = ctx.core_band
    # inside the core band; above it (one shift down); below it
    # (reflection, then a shift); all inside the strip of the integral
    high = s0 + 0.5 * (0.9 * ctx.omega_bar - s0)
    for z in (-2.3 + 0.6j * s0, 1.1 + 1j * high, -0.7 - 1j * high):
        assert abs(log_G(z, ctx) - mp_log_G(z, omega)) < 1e-12, z


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.8])
def test_line_sum_matches_point_sums(omega):
    """A uniform line is summed by chirp-z, single points densely; on
    the same points the two must agree."""
    ctx = GammaContext(OmegaParam(omega))
    s0 = ctx.core_band
    thr = _far_threshold(omega)
    x = 1.2 * thr
    crossing = -x + (2.0 * x / 400) * np.arange(400)
    near = crossing[np.abs(crossing) < thr]
    assert near.size < crossing.size and _uniform_step(near) is not None
    shifted = -2.5 + (5.0 / 400) * np.arange(400)
    # as long as the near segments of the connector's lines, where the
    # chirp phases reach thousands of radians
    long = -0.95 * thr + (1.9 * thr / 2000) * np.arange(2000)
    short = 0.3 + 0.1 * np.arange(_CHIRP_MIN - 1)
    assert _uniform_step(short) is None
    for re, im in ((crossing, 0.4 * s0), (shifted, s0 + 0.3),
                   (shifted[::-1], -0.7 * s0), (long, -s0 - 0.3),
                   (short, 0.2 * s0)):
        line = log_G_line(re, im, ctx)
        points = np.array([log_G(complex(r, im), ctx) for r in re])
        assert np.max(np.abs(line - points)) < 1e-12


def test_non_uniform_line_is_summed_densely(monkeypatch):
    """A line of more than _CHIRP_MIN points that is not uniform has no
    step: it falls back to the dense sum, which matches per-point log G."""
    ctx = make_ctx(0.6)
    re = np.linspace(-2.0, 2.0, 40) ** 3 / 4.0
    assert re.size >= _CHIRP_MIN and _uniform_step(re) is None
    dense_sizes = []
    dense = hypgamma._dense_sum
    monkeypatch.setattr(hypgamma, "_dense_sum", lambda z, b, expo: (
        dense_sizes.append(z.size), dense(z, b, expo))[1])
    monkeypatch.setattr(hypgamma, "_chirp_sum", None)
    s0 = ctx.core_band
    for im in (0.3 * s0, s0 + 0.2, -s0 - 0.2):
        dense_sizes.clear()
        line = log_G_line(re, im, ctx)
        assert dense_sizes == [re.size]
        points = np.array([log_G(complex(r, im), ctx) for r in re])
        assert np.max(np.abs(line - points)) < 1e-12


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.8])
@pytest.mark.parametrize("x0, h, n", [(-80.0, 0.0095, 17_000),
                                      (-150.3, 0.01, 30_001)])
def test_long_line_near_run_matches_points(omega, x0, h, n):
    """Lines as the connector builds them, x0 + h*arange(n), far on
    both sides: the near run, whose points carry the rounding of |x0|,
    is chirp-summed and must match per-point sums."""
    ctx = GammaContext(OmegaParam(omega))
    s0 = ctx.core_band
    re = x0 + h * np.arange(n)
    near = np.flatnonzero(np.abs(re) < _far_threshold(omega))
    assert 0 < near[0] and near[-1] < n - 1
    sample = near[np.linspace(0, near.size - 1, 60).astype(int)]
    for im in (0.4 * s0, s0 + 0.3, -s0 - 0.3):
        line = log_G_line(re, im, ctx)[sample]
        points = np.array([log_G(complex(re[j], im), ctx) for j in sample])
        assert np.max(np.abs(line - points)) < 1e-12


@pytest.mark.parametrize("x0, h, n", [(-149.7, 0.0175, 17_110),
                                      (-150.0, 0.015, 20_001)])
def test_chirp_run_is_anchored_at_its_mean(x0, h, n):
    """On a connector-shaped line at w = 1.4 each near point carries
    the rounding of |x0| ~ 150, up to 1.4e-14, and |d log G/dx| reaches
    about 27 there.  A run anchored at one point shifts every value by
    that point's rounding: the largest difference from per-point sums
    was 2.1e-13 to 2.4e-13 on these lines, and is at most 1.4e-13 when
    the run is anchored at the mean offset."""
    ctx = GammaContext(OmegaParam(1.4))
    s0 = ctx.core_band
    re = x0 + h * np.arange(n)
    near = np.flatnonzero(np.abs(re) < _far_threshold(1.4))
    for im in (0.4 * s0, s0 + 0.3, -s0 - 0.3):
        line = log_G_line(re, im, ctx)[near]
        points = np.array([log_G(complex(re[j], im), ctx) for j in near])
        assert np.max(np.abs(line - points)) < 1.8e-13


def test_connector_lines_are_not_summed_densely(monkeypatch):
    """Every line of >= _CHIRP_MIN points that a connected integral or a
    Saalschutz point reads goes through the chirp-z sum."""
    dense_sizes, chirp_sizes = [], []
    dense, chirp = hypgamma._dense_sum, hypgamma._chirp_sum

    def dense_spy(z, b, expo):
        dense_sizes.append(z.size)
        return dense(z, b, expo)

    def chirp_spy(z0, h, m, b, expo):
        chirp_sizes.append(m)
        return chirp(z0, h, m, b, expo)

    monkeypatch.setattr(hypgamma, "_dense_sum", dense_spy)
    monkeypatch.setattr(hypgamma, "_chirp_sum", chirp_spy)
    clear_connector_cache()
    cfg = QuadConfig(rel_tol=1e-7, abs_tol=1e-9)
    ctx = GammaContext(OmegaParam(0.6), cfg=cfg)
    # the offset 0.09 gives near runs of more than 1000 points (1169)
    connected_integral((1,), (1,), OhnoParams(0.007 + 0.003j, -0.005j), ctx,
                       eps=0.09)
    saalschutz_check(*saalschutz_points(ctx.omega_bar)[0], ctx)
    clear_connector_cache()
    assert max(dense_sizes, default=0) < _CHIRP_MIN
    assert max(chirp_sizes) > 1000


def test_uniform_step_accepts_rounded_grids():
    """x0 + h*arange(n) rounds each point to the ulp of the line's
    largest |x|; such grids must always be detected as uniform."""
    rng = np.random.default_rng(1201)
    for _ in range(200):
        x0 = rng.uniform(-300.0, 300.0)
        h = rng.uniform(1e-3, 0.05)
        n = int(rng.integers(_CHIRP_MIN, 40_001))
        assert _uniform_step(x0 + h * np.arange(n)) is not None, (x0, h, n)


def test_log_G_at_zero(ctx1):
    assert log_G(0.0, ctx1) == 0.0


@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_reflection(omega):
    ctx = make_ctx(omega)
    for z in sample_grid(ctx):
        assert abs(np.exp(log_G(z, ctx) + log_G(-z, ctx)) - 1.0) < 1e-8


@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_shift_identities(omega):
    ctx = make_ctx(omega)
    w = omega
    for z in sample_grid(ctx):
        lhs = np.exp(log_G(z, ctx) - log_G(z - 1j, ctx))
        rhs = -2j * np.sinh(math.pi * w * z + 1j * math.pi * (1.0 - w) / 2)
        assert abs(lhs / rhs - 1.0) < 1e-8
        lhs = np.exp(log_G(z, ctx) - log_G(z - 1j / w, ctx))
        rhs = -2j * np.sinh(math.pi * z + 1j * math.pi * (1.0 - 1.0 / w) / 2)
        assert abs(lhs / rhs - 1.0) < 1e-8


@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_far_field_asymptotic(omega):
    ctx = make_ctx(omega)
    thr = _far_threshold(omega)
    for x in (0.7 * thr, thr - 0.2):
        for sgn in (1.0, -1.0):
            z = sgn * x + 0.1j * ctx.core_band
            quad_val = np.exp(log_G(z, ctx))
            asym = np.exp(complex(_log_G_far(np.asarray(z), omega)))
            assert abs(quad_val / asym - 1.0) < 1e-3


def test_far_field_switch_is_seamless(ctx1):
    thr = _far_threshold(1.0)
    below = log_G(thr - 1e-6, ctx1)
    above = log_G(thr + 1e-6, ctx1)
    assert abs(below - above) / abs(above) < 1e-6


def test_log_G_pole_raises(ctx1):
    with pytest.raises(QuadError):
        log_G(2j, ctx1)


@pytest.mark.parametrize("omega", [0.05, 1.0, 1.99])
@pytest.mark.parametrize("z", [complex(math.nan, 0.1), complex(0.3, math.nan),
                               complex(math.inf, 0.1),
                               complex(0.3, -math.inf), 0.3 + 1e7j,
                               0.3 - 1e17j, 0.3 + 1e308j])
def test_unbounded_shift_path_raises(omega, z):
    """A non-finite argument, or one whose shift path to the core band
    has more than 10^5 steps, raises at once instead of walking it."""
    with pytest.raises(QuadError):
        log_G(z, make_ctx(omega))


@pytest.mark.parametrize("omega, z", [(1.0, 1e200), (1.0, -1e160),
                                      (1.0, 1.1e154 + 0.3j),
                                      (1.99, -7.7e153 - 40j), (0.05, 1e308)])
def test_log_G_beyond_the_float_range_raises(omega, z):
    """Far out on the real axis the far-field term pi w x^2 / 2
    overflows: log G raises QuadError, with no numpy warning, where it
    returned NaN and warned.  A point inside the range stays finite."""
    ctx = make_ctx(omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadError, match="float range"):
            log_G(z, ctx)
        assert np.isfinite(log_G(-1e153 + 0.3j, ctx))


@pytest.mark.parametrize("omega, im, steps", [(1.0, 100.25, 100),
                                               (0.5, 200.25, 100),
                                               (1.6, 100.0, 100),
                                               (0.3, 9.5, 5),
                                               (0.6, 2.166666666666667, 2)])
def test_shift_path_count_is_exact(monkeypatch, omega, im, steps):
    """The closed-form count is the length of the walk: a path of
    exactly the budget runs and walks that many steps (one term per
    step and point), a budget one step shorter refuses it.  The last
    two heights end a big step on the core band's lower edge, where a
    walk with its own stopping rule took fewer steps than the count."""
    ctx = make_ctx(omega)
    walked = []
    terms = hypgamma._log_m2i_sinh
    monkeypatch.setattr(hypgamma, "_log_m2i_sinh",
                        lambda v: walked.append(np.size(v)) or terms(v))
    monkeypatch.setattr(hypgamma, "_MAX_SHIFTS", steps)
    assert np.isfinite(log_G_line(np.array([0.3]), im, ctx)).all()
    assert sum(walked) == steps
    monkeypatch.setattr(hypgamma, "_MAX_SHIFTS", steps - 1)
    with pytest.raises(QuadError, match="step budget"):
        log_G_line(np.array([0.3]), im, ctx)


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
def test_log_G_line_of_an_empty_line(omega):
    """An empty line gives an empty complex array at a height inside the
    core band and at heights whose shift path walks down to the band
    (above it) or, reflected, up to it (below it)."""
    ctx = make_ctx(omega)
    for im in (0.25 * ctx.core_band, 40.25, -40.25):
        got = log_G_line(np.array([]), im, ctx)
        assert got.dtype == complex and got.shape == (0,)


def stepwise_log_G_line(re, im, ctx, one_call=False):
    """log_G_line as the walk down its shift path, one step at a time:
    each step's term from its own call (or, with one_call, all terms
    from one call), added to the sum in the path's order, then the
    value at the path's end."""
    w = ctx.p.omega
    s0 = ctx.core_band
    big, small = max(1.0, 1.0 / w), min(1.0, 1.0 / w)
    ys, scales = [], []
    im_cur = float(im)
    while im_cur > s0 + 1e-12:
        step = big if im_cur - big >= -s0 - 1e-12 else small
        im_cur -= step
        ys.append(im_cur + ctx.omega_bar)
        scales.append(math.pi * w if step == 1.0 else math.pi)
    if one_call:
        terms = hypgamma._log_m2i_sinh(
            np.array(scales)[:, None] * (re + 1j * np.array(ys)[:, None]))
    else:
        terms = (hypgamma._log_m2i_sinh(c * (re + 1j * y))
                 for y, c in zip(ys, scales))
    acc = np.zeros(re.shape, dtype=complex)
    for term in terms:
        acc = acc + term
    return acc + log_G_line(re, im_cur, ctx), len(ys)


@pytest.mark.parametrize("omega, re, im, one_call", [
    (1.0, np.linspace(-4.0, 4.0, 301), 1000.25, False),
    (0.6, np.linspace(-2.0, 3.0, 97), 1700.25, False),
    (1.0, np.array([0.3]), 1e5 + 0.25, True),
    (1.0, np.linspace(-1.0, 1.0, 7), 99990.5, True)])
def test_blocked_shift_path_matches_stepwise(omega, re, im, one_call):
    """The shift path's terms are evaluated in blocks of steps x points
    and summed in the path's order: a 10^3-step path over a line of many
    blocks and 10^5-step paths agree with the step-by-step walk."""
    ctx = make_ctx(omega)
    want, steps = stepwise_log_G_line(re, im, ctx, one_call)
    assert steps >= (1e5 - 20 if one_call else 1e3)
    got = log_G_line(re, im, ctx)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_long_shift_path_is_fast():
    """A path just inside the 10^5-step budget takes well under a second
    (it took 1.5 s walked one step at a time); best of three runs."""
    ctx = make_ctx(1.0)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        log_G_line(np.array([0.3]), 1e5 + 0.25, ctx)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.2
