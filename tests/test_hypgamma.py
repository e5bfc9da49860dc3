"""Hyperbolic gamma: strip integral against mpmath, chirp-z against
dense sums, reflection, quasi-periods, far field, poles."""

import math

import mpmath as mp
import numpy as np
import pytest

from omzv import GammaContext, OmegaParam, QuadConfig, QuadError
from omzv.hypgamma import (_CHIRP_MIN, _far_threshold, _log_G_far,
                           _uniform_step, log_G, log_G_line)


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
