"""Deformed values at omega = 1 against hand-derived constants, plus the
reduced/direct agreement, duality spots, and the depth-2 recurrence."""

import math

import mpmath as mp
import numpy as np
import pytest

from omzv import (AMonomial, HPoly, HbarLaurent, OmegaParam, Z_omega,
                  Z_omega_monomial, circle_coefficients, index_to_e_word,
                  parse_amonomial, r1_generating, r1_recurrence,
                  r_omega_integral, zeta_omega)
from omzv.omega import clear_value_cache, default_eps, inverse_x_variable

PI = math.pi
H = HbarLaurent.h

# value of each admissible monomial at omega = 1, from the closed-form
# depth-1/depth-2 generating function
OMEGA1_VALUES = [
    ("G1", -1.0),
    ("G2", PI * 1j),
    ("E G1", PI * 1j),
    ("G3", 4.0 * PI ** 2 / 3.0),
    ("E E G1", 4.0 * PI ** 2 / 3.0),
    ("E G2", PI ** 2 - PI * 1j),
    ("G1 G1", (1.0 - PI * 1j) / 2.0),
]


@pytest.mark.parametrize("text,want", OMEGA1_VALUES)
def test_omega1_constants(p1, fast_cfg, text, want):
    res = Z_omega_monomial(parse_amonomial(text), p1, fast_cfg)
    assert abs(res.value - want) < 1e-8


def test_zeta_omega1(p1, fast_cfg):
    res = zeta_omega((2,), p1, fast_cfg)
    assert abs(res.value - (-PI * 1j)) < 1e-8


def mp_zeta_depth1(k, omega):
    """zeta_w(k) = i int_R dy K(t)/(e^{2 pi i t} - 1), t = -eps + i y,
    K(t) = (2 pi i w)^k e^{2 pi i w (k-1) t}/(1 - e^{2 pi i w t})^k, to
    30 digits.  Both ends decay exponentially; the cut points leave
    under 1e-24."""
    with mp.workdps(30):
        hb = 2j * mp.pi * mp.mpf(omega)
        eps = mp.mpf(default_eps(omega, 1))

        def f(y):
            t = -eps + 1j * y
            return (hb ** k * mp.exp(hb * (k - 1) * t)
                    / ((mp.exp(2j * mp.pi * t) - 1)
                       * (1 - mp.exp(hb * t)) ** k))

        return complex(1j * mp.quad(f, [-12, -4, -1, 0, 1, 4, 12, 30]))


@pytest.mark.parametrize("k, omega", [(7, 1.0), (5, 1.4), (4, 1.8),
                                      (2, 0.6), (3, 0.3)])
def test_zeta_depth1_matches_mpmath(k, omega):
    """The first three overflowed e^{2 pi i w t}-powers on the grid and
    came out NaN before the kernel was written sign by sign."""
    res = zeta_omega((k,), OmegaParam(omega))
    ref = mp_zeta_depth1(k, omega)
    assert abs(res.value - ref) <= res.err_estimate
    assert abs(res.value - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("k", [(2,), (1, 3)])
def test_e_and_g_routes_agree_at_large_omega(k):
    """The g-letter kernels overflowed to NaN at omega = 1.9 before they
    were written sign by sign."""
    p = OmegaParam(1.9)
    z = zeta_omega(k, p)
    g = Z_omega(index_to_e_word(k), p)
    assert abs(z.value - g.value) <= z.err_estimate + g.err_estimate


def test_zeta_is_linear_in_the_e_basis(p1, fast_cfg):
    # e_2 = g_2 + h g_1 with h = 2 pi i at omega = 1
    z = zeta_omega((2,), p1, fast_cfg).value
    g2 = Z_omega_monomial(parse_amonomial("G2"), p1, fast_cfg).value
    g1 = Z_omega_monomial(parse_amonomial("G1"), p1, fast_cfg).value
    assert abs(z - (g2 + 2j * PI * g1)) < 1e-8


def test_reduced_matches_direct(p1, fast_cfg):
    for text in ("G2", "E G1", "E G2", "G1 G1"):
        m = parse_amonomial(text)
        a = Z_omega_monomial(m, p1, fast_cfg, mode="reduced")
        b = Z_omega_monomial(m, p1, fast_cfg, mode="direct")
        assert abs(a.value - b.value) <= max(
            1e-8, 5.0 * (a.err_estimate + b.err_estimate))


def test_duality_spots_off_symmetric_point(fast_cfg):
    from omzv import sigma_monomial
    p = OmegaParam(0.8)
    for text in ("G2", "G3", "G1 G2"):
        m = parse_amonomial(text)
        a = Z_omega_monomial(m, p, fast_cfg)
        b = Z_omega_monomial(sigma_monomial(m), p, fast_cfg)
        assert abs(a.value - b.value) <= max(
            1e-6, 5.0 * (a.err_estimate + b.err_estimate))


def test_rejections(p1, fast_cfg):
    with pytest.raises(ValueError):
        Z_omega_monomial(parse_amonomial("G1 E"), p1, fast_cfg)
    with pytest.raises(ValueError):
        zeta_omega((2, 1), p1, fast_cfg)
    with pytest.raises(ValueError):
        Z_omega(HPoly.word("ba", H(-1)), p1, fast_cfg)
    with pytest.raises(ValueError):
        OmegaParam(0.0)
    with pytest.raises(ValueError):
        OmegaParam(2.0)
    with pytest.raises(ValueError):
        Z_omega_monomial(parse_amonomial("G2"), p1, fast_cfg, mode="series")


def test_r1_generating_basics():
    assert r1_generating(0.0, 0.0) == pytest.approx(-1.0)
    x = 0.2
    want = 2j * PI * x / (1.0 - np.exp(2j * PI * x))
    assert r1_generating(x, 0.0) == pytest.approx(want, rel=1e-13)
    assert r1_generating(0.2, 0.11) == pytest.approx(
        r1_generating(0.11, 0.2), rel=1e-13)


def test_first_taylor_coefficient_is_g2_value(p1, fast_cfg):
    coeffs = circle_coefficients(lambda x: r1_generating(x, 0.0), 1)
    g2 = Z_omega_monomial(parse_amonomial("G2"), p1, fast_cfg)
    assert abs(coeffs[0] - (-1.0)) < 1e-10
    assert abs(coeffs[1] - g2.value) < 1e-6


def test_depth2_recurrence_matches_integral(p1, fast_cfg):
    xs, ys = (0.1, 0.05), (0.02, 0.03)
    rec = r1_recurrence(xs, ys)
    quad = r_omega_integral(xs, ys, p1, fast_cfg)
    assert abs(rec - quad.value) <= max(1e-8, 5.0 * quad.err_estimate)


def test_recurrence_depth_guard():
    with pytest.raises(ValueError):
        r1_recurrence((0.1, 0.2, 0.3), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        r1_recurrence((0.1,), (0.0, 0.0))


def test_inverse_x_variable_round_trip():
    for omega in (0.5, 1.0, 1.6):
        w = 2j * PI * omega
        for x in (0.01, 0.02 - 0.015j, -0.03j):
            xhat = (np.exp(w * x) - 1.0) / w
            assert inverse_x_variable(xhat, omega) == pytest.approx(
                x, rel=1e-12)


def test_value_cache_is_transparent(p1, fast_cfg):
    m = parse_amonomial("G2")
    before = Z_omega_monomial(m, p1, fast_cfg).value
    clear_value_cache()
    after = Z_omega_monomial(m, p1, fast_cfg).value
    assert before == after
