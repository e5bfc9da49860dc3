"""Deformed values at omega = 1 against hand-derived constants, plus the
reduced/direct agreement, duality spots, and the depth-2 recurrence."""

import math

import mpmath as mp
import numpy as np
import pytest

from omzv import (AMonomial, HPoly, HbarLaurent, OmegaParam, QuadConfig,
                  QuadError, Z_omega, Z_omega_monomial, dual_index,
                  index_to_e_word, parse_amonomial, zeta_omega)
from omzv.omega import clear_value_cache, contour_offset, decay_hint, kernel_e
from omzv.quad import ChainStage, cexpm1, chain_line_integral

from expansion import inverse_x_variable

PI = math.pi
H = HbarLaurent.h
TWO_PI = 2.0 * PI


# ---------------------------------------------------------------------------
# Oracles: closed generating forms at omega = 1, the general-omega
# generating integral (a chain with a distinct diff kernel per stage and
# a prefactor), and Taylor coefficients by sampling on a circle.

def r1_generating(x1, y1):
    """Closed depth-1 generating value at omega = 1:
    2 pi i (1 - e^{2 pi i x y}) / ((1 - e^{2 pi i x})(1 - e^{2 pi i y})).
    Symmetric in (x1, y1); poles at nonzero integer x1 or y1."""
    x1 = complex(x1)
    y1 = complex(y1)
    cx = complex(cexpm1(TWO_PI * 1j * x1))
    cy = complex(cexpm1(TWO_PI * 1j * y1))
    cxy = complex(cexpm1(TWO_PI * 1j * x1 * y1))
    if x1 == 0 and y1 == 0:
        return -1.0 + 0.0j
    if x1 == 0:
        return TWO_PI * 1j * y1 / (-cy)
    if y1 == 0:
        return TWO_PI * 1j * x1 / (-cx)
    for v, cv in ((x1, cx), (y1, cy)):
        if abs(cv) < 1e-8 and abs(v) > 1e-6:
            raise ValueError("argument %s too close to a nonzero integer"
                             % v)
    return -TWO_PI * 1j * cxy / (cx * cy)


def r1_recurrence(xs, ys):
    """Depth <= 2 generating values at omega = 1 through the two-point
    contraction of the last slot:

    R(x1,x2;y1,y2) = 2 pi i / ((1-e^{2 pi i y2})(e^{2 pi i x1}-e^{2 pi i x2}))
      * { R(x1;y1) - R(x2;y1)
          - e^{2 pi i (x2-1) y2} (R(x1;y1-y2) - R(x2;y1-y2)) }.

    (Integrating the last contour variable by the kernel lemma
    contracts the two stage kernels into a difference quotient.)"""
    xs = [complex(v) for v in xs]
    ys = [complex(v) for v in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equally many x and y arguments")
    if len(xs) == 1:
        return r1_generating(xs[0], ys[0])
    if len(xs) > 2:
        raise ValueError("recurrence implemented for depth <= 2 only")
    x1, x2 = xs
    y1, y2 = ys
    ey2 = complex(cexpm1(TWO_PI * 1j * y2))
    dx = np.exp(TWO_PI * 1j * x1) - np.exp(TWO_PI * 1j * x2)
    if abs(ey2) < 1e-10:
        raise ValueError("y2 too close to an integer")
    if abs(dx) < 1e-10:
        raise ValueError("x1 and x2 coincide modulo 1")
    inner = (r1_generating(x1, y1) - r1_generating(x2, y1)
             - np.exp(TWO_PI * 1j * (x2 - 1.0) * y2)
             * (r1_generating(x1, y1 - y2) - r1_generating(x2, y1 - y2)))
    return complex(TWO_PI * 1j / (-ey2) / dx * inner)


def r_omega_integral(xs, ys, p, cfg=None):
    """Generating integral at general omega:

    (2 pi i w)^r e^{-2 pi i w sum(y)} prod_a int dt_a/(e^{2 pi i t_a}-1)
      e^{2 pi i w (T_a - y_a t_a)} / (1 - e^{2 pi i w (x_a + T_a)})

    with cumulative T_a and per-slot gaps t_a."""
    cfg = cfg or QuadConfig()
    xs = [complex(v) for v in xs]
    ys = [complex(v) for v in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equally many x and y arguments")
    r = len(xs)
    w = p.omega

    # the stage-a kernel has poles on Re T = -Re x_a + m/omega; the line
    # Re T = -a*eps must stay in the cell between m = 0 and m = -1
    lo = max([0.0] + [x.real / a for a, x in enumerate(xs, start=1)])
    hi = min([1.0] + [(x.real + 1.0 / w) / a
                      for a, x in enumerate(xs, start=1)])
    if hi - lo < 1e-3:
        raise QuadError("contour separation violated: no admissible eps",
                        lo=lo, hi=hi)

    def separation(eps):
        sep = min(eps, 1.0 - eps)
        for a, x in enumerate(xs, start=1):
            base = x.real - a * eps
            m = round(base * w)
            for mm in (m - 1, m, m + 1):
                sep = min(sep, abs(base - mm / w))
        return sep

    cands = [lo + (hi - lo) * t for t in np.linspace(0.12, 0.88, 39)]
    eps = max(cands, key=separation)
    min_sep = separation(eps)
    if min_sep < 3e-3:
        raise QuadError("contour separation violated", separation=min_sep,
                        eps=eps)

    stages = []
    for x, y in zip(xs, ys):
        def diff(delta, y=y):
            return (np.exp(-p.hbar_value * y * delta)
                    / cexpm1(TWO_PI * 1j * delta))

        def cum(t, x=x):
            return np.exp(p.hbar_value * t) / (-cexpm1(p.hbar_value * (x + t)))

        stages.append(ChainStage(cum=cum, diff=diff))

    pref = p.hbar_value ** r * np.exp(-p.hbar_value * sum(ys))
    slow = max([abs(v.real) for v in xs + ys] + [0.0])
    hint = decay_hint(w) * max(0.15, 1.0 - 2.0 * slow)
    return chain_line_integral(
        stages, eps, cfg, decay=(TWO_PI, hint), pole_dist=min_sep,
        prefactor=pref)


def circle_coefficients(f, order, radius=0.05):
    """Taylor coefficients c_0..c_order of f around 0 by sampling on a
    circle of the given radius (discrete Fourier transform)."""
    npts = max(16, 4 * (order + 1))
    thetas = TWO_PI * np.arange(npts) / npts
    zs = radius * np.exp(1j * thetas)
    vals = np.array([complex(f(z)) for z in zs])
    coeffs = np.fft.fft(vals) / npts
    ks = np.arange(order + 1)
    return coeffs[: order + 1] / radius ** ks


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
def test_omega1_constants(p1, text, want):
    """Asked for 1e-10 of values up to 13, well inside the 1e-8 checked."""
    cfg = QuadConfig(rel_tol=1e-10, abs_tol=1e-10)
    res = Z_omega_monomial(parse_amonomial(text), p1, cfg)
    assert abs(res.value - want) < 1e-8


def test_zeta_omega1():
    """zeta_w(2) = (pi^2/6)(1 - w^2) - i pi w, -i pi at w = 1: the error
    estimate must bound the error, which is at rounding level when the
    grid is asked for it."""
    cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-14)
    for w in (0.05, 0.3, 0.6, 1.0, 1.3, 1.4, 1.7, 1.9, 1.99):
        res = zeta_omega((2,), OmegaParam(w), cfg)
        err = abs(res.value - (PI ** 2 / 6.0 * (1.0 - w * w) - 1j * PI * w))
        assert err <= 1e-13
        assert err <= res.err_estimate


@pytest.mark.parametrize("w", [0.05, 0.3, 1.0, 1.4, 1.9, 1.99])
def test_zeta_22_closed_form(w):
    """zeta_w(2,2) = zeta(2,2) - (zeta(2)/2) hb + ((zeta(2) + 1)/8) hb^2
    - hb^3/16 + (3/640) hb^4, with hb = 2 pi i w and zeta(2,2) = pi^4/120:
    the error estimate must bound the error."""
    hb = TWO_PI * 1j * w
    z2 = PI ** 2 / 6.0
    want = (PI ** 4 / 120.0 - z2 / 2.0 * hb + (z2 + 1.0) / 8.0 * hb ** 2
            - hb ** 3 / 16.0 + 3.0 / 640.0 * hb ** 4)
    res = zeta_omega((2, 2), OmegaParam(w))
    assert abs(res.value - want) <= res.err_estimate


def closed_form(k, omega):
    """zeta_w(2) = zeta(2) - hb/2 + hb^2/24 and zeta_w(2,2) = zeta(2,2)
    - (zeta(2)/2) hb + ((zeta(2) + 1)/8) hb^2 - hb^3/16 + (3/640) hb^4,
    with hb = 2 pi i w and zeta(2,2) = pi^4/120."""
    hb = TWO_PI * 1j * omega
    z2 = PI ** 2 / 6.0
    if k == (2,):
        return z2 - hb / 2.0 + hb ** 2 / 24.0
    return (PI ** 4 / 120.0 - z2 / 2.0 * hb + (z2 + 1.0) / 8.0 * hb ** 2
            - hb ** 3 / 16.0 + 3.0 / 640.0 * hb ** 4)


@pytest.mark.parametrize("w", [0.05, 0.3, 1.0, 1.4, 1.9, 1.99])
@pytest.mark.parametrize("k", [(2,), (2, 2)])
def test_estimates_are_honest_and_tight(cfg, k, w):
    """Against the closed forms the error estimate bounds the error and
    exceeds it, or the rounding floor 1e-13 |value| and abs_tol, by at
    most 10^3.  The step-doubled estimate was 2e4 to 8e6 times the
    error here."""
    res = zeta_omega(k, OmegaParam(w), cfg)
    error = abs(res.value - closed_form(k, w))
    floor = max(cfg.abs_tol, 1e-13 * abs(res.value))
    assert error <= res.err_estimate <= 1e3 * max(error, floor)


def zeta_at_offset(k, omega, eps, cfg=None):
    """zeta_w(k) as `zeta_omega` computes it, on the contour stack at
    offset eps instead of the default one."""
    p = OmegaParam(omega)
    return chain_line_integral(
        [ChainStage(cum=(lambda t, e=e: kernel_e(e, t, p))) for e in k],
        eps, cfg, decay=(TWO_PI, decay_hint(omega)))


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.9])
@pytest.mark.parametrize("k", [(3,), (1, 2), (2, 3), (1, 2, 2),
                               (1, 1, 2, 3), (1, 1, 1, 1, 1, 1, 2),
                               (2, 1, 3, 1, 1, 1, 2), (2, 2, 2, 2, 2, 2, 2),
                               (1, 1, 1, 1, 1, 1, 1, 2),
                               (1, 2, 1, 1, 2, 1, 1, 3),
                               (3, 1, 2, 1, 1, 2, 1, 2)])
def test_two_offsets_agree_within_estimates(k, omega):
    """By Cauchy the value does not depend on the offset, so the stacks at
    eps and 0.7 eps are two independent grids for one value: they differ
    by at most the sum of their estimates.  That holds to depth 8, the
    deepest chain quad._MAX_DIM admits (at most 0.24 of the sum here);
    deeper, the fixed rounding floor of the estimate can stop covering
    the difference."""
    eps = contour_offset(omega, len(k))[0]
    a, b = (zeta_at_offset(k, omega, e) for e in (eps, 0.7 * eps))
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


@pytest.mark.parametrize("omega", [0.005, 0.02])
def test_limit_identities_hold_near_zero(cfg, omega):
    """zeta(1,2) = zeta(3) and zeta(4) = zeta(1,3) + zeta(2,2) hold for
    the deformed values at every omega (duality and the sum formula), so
    also close to the classical limit, within the summed estimates."""
    p = OmegaParam(omega)
    a, b = zeta_omega((1, 2), p, cfg), zeta_omega((3,), p, cfg)
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate
    c, d, e = (zeta_omega(k, p, cfg) for k in ((4,), (1, 3), (2, 2)))
    assert (abs(c.value - d.value - e.value)
            <= c.err_estimate + d.err_estimate + e.err_estimate)


def quarter_eps(omega, depth):
    """A second admissible offset, min(1, 1/(r w), 3/(pi r w))/4: the
    fixed contour of the mpmath oracle and the reference stack of the
    contour regression test."""
    return min(1.0, 1.0 / (depth * omega),
               3.0 / (math.pi * depth * omega)) / 4.0


def mp_zeta_depth1(k, omega):
    """zeta_w(k) = i int_R dy K(t)/(e^{2 pi i t} - 1), t = -eps + i y,
    K(t) = (2 pi i w)^k e^{2 pi i w (k-1) t}/(1 - e^{2 pi i w t})^k, to
    30 digits.  Both ends decay exponentially; the cut points leave
    under 1e-24."""
    with mp.workdps(30):
        hb = 2j * mp.pi * mp.mpf(omega)
        eps = mp.mpf(quarter_eps(omega, 1))

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
    res = zeta_omega((k,), OmegaParam(omega),
                     QuadConfig(rel_tol=1e-13, abs_tol=1e-13))
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


def test_contour_stack_keeps_poles_at_eps():
    """The lines Re T_a = -a*eps, a = 1..r, stay strictly inside the
    pole-free region, the nearest pole (measure poles at distance eps
    and 1 - eps, letter poles at a*eps and 1/w - a*eps) is at distance
    eps, and eps is at least 0.9 of the best offset found by search."""
    for w in np.linspace(0.01, 1.99, 67):
        for r in range(1, 7):
            eps = contour_offset(w, r)[0]
            dist = min([eps, 1.0 - eps]
                       + [d for a in range(1, r + 1)
                          for d in (a * eps, 1.0 / w - a * eps)])
            assert dist > 0.0
            assert dist == pytest.approx(eps, rel=1e-12)
            e = np.linspace(0.0, min(1.0, 1.0 / (r * w)), 4001)
            best = np.minimum(np.minimum(e, 1.0 - e), 1.0 / w - r * e).max()
            assert eps >= 0.9 * best - 1e-12


REGRESSION_INDEX = {1: (3,), 2: (1, 2), 3: (1, 2, 2), 4: (1, 1, 1, 2),
                    5: (1, 1, 2, 1, 2), 6: (1, 1, 1, 1, 1, 2)}


@pytest.mark.parametrize(
    "omega, depth", [(w, r) for w in (0.3, 1.0, 1.4) for r in range(1, 7)]
    + [(w, r) for w in (0.05, 1.9) for r in range(1, 4)])
def test_contour_stack_against_quarter_rule(omega, depth):
    """The default stack gives the value of the quarter-offset stack
    within the two estimates, on at most 0.6 of its nodes."""
    p = OmegaParam(omega)
    k = REGRESSION_INDEX[depth]
    new = zeta_omega(k, p)
    eps = quarter_eps(omega, depth)
    ref = chain_line_integral(
        [ChainStage(cum=(lambda t, e=e: kernel_e(e, t, p))) for e in k],
        eps, decay=(TWO_PI, decay_hint(omega)),
        pole_dist=min(eps, 1.0 / omega - depth * eps))
    assert abs(new.value - ref.value) <= new.err_estimate + ref.err_estimate
    assert new.meta["nodes"] <= 0.6 * ref.meta["nodes"]


def test_depth3_at_omega_199():
    """At w = 1.99 the quarter-offset stack needed 240,119 nodes for
    (1,1,2), above the chain budget, and a plus side sized by the decay
    rate pi(2 - w) 84,927; it must be finite, take few nodes and agree
    with its dual (4) and with the e-word route."""
    p = OmegaParam(1.99)
    k = (1, 1, 2)
    z = zeta_omega(k, p)
    assert np.isfinite(z.value) and np.isfinite(z.err_estimate)
    assert z.meta["nodes"] <= 5_000
    for other in (zeta_omega(dual_index(k), p),
                  Z_omega(index_to_e_word(k), p)):
        assert (abs(z.value - other.value)
                <= z.err_estimate + other.err_estimate)


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
    with pytest.raises(TypeError, match="expected AMonomial"):
        Z_omega_monomial((2,), p1, fast_cfg)
    with pytest.raises(ValueError, match="unknown contour geometry"):
        contour_offset(1.0, 2, "bogus")


def test_empty_monomial_is_exactly_one(p1, fast_cfg):
    res = Z_omega_monomial(AMonomial(()), p1, fast_cfg)
    assert (res.value, res.err_estimate) == (1.0, 0.0)
    assert res.meta == {"exact": True}


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
