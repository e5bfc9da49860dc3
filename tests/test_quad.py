"""Contour quadrature on vertical lines: accuracy, honesty, and guards."""

import cmath
import math

import numpy as np
import pytest

from omzv import OmegaParam, QuadConfig, QuadError, quad, zeta_omega
from omzv.omega import clear_value_cache
from omzv.quad import ChainStage, chain_line_integral, measure_kernel

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


def reference_chain_pass(stages, eps, h, ys):
    """chain_pass with each stage as a direct O(n^2) convolution."""
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
            chi = h * np.convolve(chi, dvals)[n - 1:2 * n - 1]
        if st.cum is not None:
            chi = chi * st.cum(line)
    return chi


@pytest.mark.parametrize("omega, k", [(0.6, (1, 1, 1, 1, 3)),
                                      (1.0, (1, 1, 1, 1, 3)),
                                      (0.3, (1, 1, 1, 1, 2, 2))])
def test_fft_chain_matches_direct(monkeypatch, omega, k):
    """These chains span many decades; an untilted FFT misses the direct
    value by more than its error estimate on each of them."""
    p = OmegaParam(omega)
    clear_value_cache()
    fft = zeta_omega(k, p)
    monkeypatch.setattr(quad, "chain_pass", reference_chain_pass)
    clear_value_cache()
    ref = zeta_omega(k, p)
    clear_value_cache()
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
    assert base.fingerprint() == "r1e-09,a1e-12,m6,s0.8,q2.2"
