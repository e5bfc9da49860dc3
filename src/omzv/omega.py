"""Contour-integral model of the deformed values.

The deformation parameter h acts as 2*pi*i*omega for 0 < omega < 2.  An
admissible monomial u_1 ... u_r evaluates to the iterated integral

    Z(u_1...u_r) = prod_a int_{Re t_a = -a eps} dt_a/(e^{2 pi i t_a}-1)
                   * prod_a I(u_a | t_1 + ... + t_a)

with the letter kernels

    I(E | t)    = 2 pi i omega
    I(G(k) | t) = (2 pi i omega / (e^{-2 pi i omega t} - 1))^k.

Runs of E letters collapse: a block E^alpha G(beta+1) contributes the
difference kernel (-2 pi i omega)^alpha * C(t+alpha, alpha) /
(e^{2 pi i t} - 1) in the block gap t together with I(G(beta+1)) at the
block's cumulative point.  This reduced form is the default route; the
letter-by-letter direct route is kept for cross checks.

Depth-1 and depth-2 values at omega = 1 have closed generating forms
(`r1_generating`, `r1_recurrence`); the general-omega generating
integral is `r_omega_integral`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cache as _cache
from .quad import (ChainStage, EvalResult, QuadConfig, QuadError,
                   chain_line_integral, measure_kernel)
from .words import ALetter, AMonomial, APoly, HPoly, check_index

__all__ = [
    "OmegaParam",
    "default_eps",
    "cexpm1",
    "Z_omega_monomial",
    "Z_omega",
    "zeta_omega",
    "r1_generating",
    "r1_recurrence",
    "r_omega_integral",
    "inverse_x_variable",
    "circle_coefficients",
    "clear_value_cache",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OmegaParam:
    omega: float

    def __post_init__(self):
        if not (0.0 < self.omega < 2.0):
            raise ValueError("omega must lie in (0, 2)")

    @property
    def hbar_value(self):
        return 2j * math.pi * self.omega

    @property
    def omega_bar(self):
        return 0.5 * (1.0 + 1.0 / self.omega)


def decay_hint(omega):
    """Safe exponential decay rate per contour axis."""
    return math.pi * (1.0 - abs(1.0 - omega))


def default_eps(omega, depth):
    """Contour offset for a depth-`depth` iterated integral.  Keeps
    every line Re T_a = -a*eps strictly between the pole lattices
    (constant A = 3.0 in the oscillation budget term)."""
    if depth < 1:
        return 0.25
    return min(1.0, 1.0 / (depth * omega),
               3.0 / (math.pi * depth * omega)) / 4.0


def _pole_distance(omega, eps, depth):
    """Distance from the contour stack to the nearest kernel pole."""
    return min(eps, max(1.0 / omega - depth * eps, 1e-9))


def cexpm1(z):
    """exp(z) - 1, accurate for small |z| (numpy expm1 is real-only)."""
    z = np.asarray(z, dtype=complex)
    out = np.exp(z) - 1.0
    small = np.abs(z) < 1e-4
    if np.any(small):
        zs = np.where(small, z, 0.0)
        series = zs * (1.0 + zs / 2.0 * (1.0 + zs / 3.0 * (1.0 + zs / 4.0)))
        out = np.where(small, series, out)
    return out


# ---------------------------------------------------------------------------
# Letter kernels

def kernel_I(letter, t, p):
    """Kernel of one alphabet letter at the cumulative point t."""
    t = np.asarray(t, dtype=complex)
    if letter.is_e:
        return np.full(t.shape, p.hbar_value)
    # hbar/(e^{-x} - 1) with x = 2 pi i omega t, as hbar e^x/(1 - e^x)
    # where Re x < 0, so that no exponential overflows
    x = p.hbar_value * t
    neg = x.real < 0.0
    s = np.where(neg, x, -x)
    den = cexpm1(s)
    bad = np.abs(den) < 1e-12
    if np.any(bad):
        raise QuadError("kernel pole: omega*t at an integer",
                        t=complex(t.flat[int(np.argmax(bad))]))
    return (p.hbar_value * np.where(neg, -np.exp(s), 1.0) / den) ** letter.k


def kernel_e(k, t, p):
    """Kernel of the letter combination e_k = g_k + h g_{k-1}:
    (2 pi i omega)^k e^{2 pi i omega (k-1) t} / (1 - e^{2 pi i omega t})^k."""
    t = np.asarray(t, dtype=complex)
    # with x = 2 pi i omega t the kernel is e^{(k-1)x}/(1 - e^x)^k for
    # Re x <= 0 and e^{-x}/(e^{-x} - 1)^k for Re x > 0: both exponentials
    # have Re <= 0, and the reciprocal is taken before the power
    x = p.hbar_value * t
    pos = x.real > 0.0
    s = np.where(pos, -x, x)
    den = cexpm1(s)
    bad = np.abs(den) < 1e-12
    if np.any(bad):
        raise QuadError("kernel pole: omega*t at an integer",
                        t=complex(t.flat[int(np.argmax(bad))]))
    num = np.exp(np.where(pos, s, (k - 1) * s))
    sign = np.where(pos, 1.0, (-1.0) ** k)
    return p.hbar_value ** k * sign * num * (1.0 / den) ** k


def _binom_poly(delta, alpha):
    """C(delta + alpha, alpha) as a polynomial in delta."""
    out = np.ones_like(np.asarray(delta, dtype=complex))
    for j in range(1, alpha + 1):
        out = out * (delta + j) / j
    return out


# ---------------------------------------------------------------------------
# Monomial evaluation

def clear_value_cache():
    """Empty the process-wide memo (shared with the connector)."""
    _cache.clear_memo()


def Z_omega_monomial(mono, p, cfg=None, mode="reduced"):
    """Value of one admissible monomial.  mode "reduced" collapses E
    runs into binomial difference kernels (the default); "direct" keeps
    one integration stage per letter."""
    cfg = cfg or QuadConfig()
    if not isinstance(mono, AMonomial):
        raise TypeError("expected AMonomial")
    if not mono.is_admissible():
        raise ValueError("monomial ends in E: not admissible")
    if not len(mono):
        return EvalResult(1.0 + 0.0j, 0.0, {"exact": True})
    if mode not in ("reduced", "direct"):
        raise ValueError("unknown mode %r" % mode)

    def compute():
        if mode == "reduced":
            stages = _reduced_stages(mono.blocks(), p)
        else:
            stages = [ChainStage(cum=(lambda t, l=l: kernel_I(l, t, p)))
                      for l in mono.letters]
        return _chain_value(stages, p, cfg)

    return _cache.memoized("mono %s %s" % (mono, mode), p.omega, cfg,
                           compute, {"monomial": str(mono), "mode": mode})


def _reduced_stages(blocks, p):
    """Block-form stages of the monomial E^a1 G(b1+1) ... E^ar G(br+1),
    given as its (alpha, beta) blocks."""
    stages = []
    for alpha, beta in blocks:
        if alpha:
            scale = (-p.hbar_value) ** alpha

            def diff(delta, alpha=alpha, scale=scale):
                return (scale * _binom_poly(delta, alpha)
                        * measure_kernel(delta))
        else:
            diff = None
        letter = ALetter(beta + 1)
        stages.append(ChainStage(
            cum=(lambda t, l=letter: kernel_I(l, t, p)),
            diff=diff))
    return stages


def _chain_value(stages, p, cfg):
    """The chain integral of the stages on the default contour stack."""
    eps = default_eps(p.omega, len(stages))
    return chain_line_integral(
        stages, eps, cfg, decay=(TWO_PI, decay_hint(p.omega)),
        pole_dist=_pole_distance(p.omega, eps, len(stages)))


def Z_omega(arg, p, cfg=None, mode="reduced"):
    """Linear extension over the admissible span; the coefficient ring
    Q[h] acts through h = 2 pi i omega.  Errors add up."""
    cfg = cfg or QuadConfig()
    if isinstance(arg, HPoly):
        arg = APoly.from_hpoly(arg)
    if isinstance(arg, AMonomial):
        arg = APoly.monomial(arg)
    if not isinstance(arg, APoly):
        raise TypeError("expected APoly, HPoly, or AMonomial")
    total = 0.0 + 0.0j
    err = 0.0
    for mono, coeff in arg.t.items():
        if not mono.is_admissible():
            raise ValueError("monomial %s not admissible" % mono)
        if not coeff.is_polynomial():
            raise ValueError("coefficient of %s has h^-1 terms" % mono)
        c = coeff.eval(p.hbar_value)
        r = Z_omega_monomial(mono, p, cfg, mode)
        total += c * r.value
        err += abs(c) * r.err_estimate
    return EvalResult(total, err, {"omega": p.omega, "mode": mode})


def zeta_omega(k, p, cfg=None):
    """Deformed zeta value of an admissible index, via the e-letter
    kernels (one stage per index entry)."""
    cfg = cfg or QuadConfig()
    k = check_index(k)

    def compute():
        return _chain_value([ChainStage(cum=(lambda t, e=e: kernel_e(e, t, p)))
                             for e in k], p, cfg)

    return _cache.memoized("zeta " + ",".join(str(e) for e in k), p.omega,
                           cfg, compute, {"index": k})


# ---------------------------------------------------------------------------
# Generating functions

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


def inverse_x_variable(xhat, omega):
    """Solve (e^{2 pi i w x} - 1)/(2 pi i w) = xhat for x (principal
    branch; valid for small |xhat|)."""
    w = TWO_PI * 1j * omega
    return np.log(1.0 + w * xhat) / w


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
