"""Contour-integral model of the deformed values.

The deformation parameter h acts as 2*pi*i*omega for 0 < omega < 2.  An
admissible monomial u_1 ... u_r evaluates to the iterated integral

    Z(u_1...u_r) = prod_a int_{Re t_a = -eps} dt_a/(e^{2 pi i t_a}-1)
                   * prod_a I(u_a | t_1 + ... + t_a)

with the letter kernels

    I(E | t)    = 2 pi i omega
    I(G(k) | t) = (2 pi i omega / (e^{-2 pi i omega t} - 1))^k.

Runs of E letters collapse: a block E^alpha G(beta+1) contributes the
difference kernel (-2 pi i omega)^alpha * C(t+alpha, alpha) /
(e^{2 pi i t} - 1) in the block gap t together with I(G(beta+1)) at the
block's cumulative point.  This reduced form is the default route; the
letter-by-letter direct route is kept for cross checks.

Every value is one `chain_line_integral` on the contour stack
Re T_a = -a*eps of the cumulative points T_a = t_1 + ... + t_a, with
the offset eps of `default_eps`: by Cauchy the value does not depend on
eps inside the pole-free region, so eps is chosen to hold the stack as
far from every kernel pole as the geometry allows.

The generating functions of these values are power series in the
hatted variable (e^{2 pi i omega x} - 1)/(2 pi i omega);
`inverse_x_variable` maps it back to x.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cache as _cache
from .quad import (ChainStage, EvalResult, QuadConfig, QuadError,
                   chain_line_integral, measure_kernel)
from .words import ALetter, AMonomial, APoly, check_index

__all__ = [
    "OmegaParam",
    "default_eps",
    "cexpm1",
    "Z_omega_monomial",
    "Z_omega",
    "zeta_omega",
    "inverse_x_variable",
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
    """Decay rate of a zeta chain integrand as Im T -> +inf, which sizes
    the plus side of its lines.  Each letter kernel (I(G(k)), and e_k
    with k >= 2 at the last stage) decays like e^{-2 pi omega Im T} per
    power, the measure kernel tends to -1, and the last stage carries at
    least one power.  The factor 1/2 covers the algebraic stretch
    |T| <~ 1/(2 pi omega), where a kernel behaves like T^{-k}."""
    return math.pi * omega


def default_eps(omega, depth):
    """Contour offset eps of the stack Re T_a = -a*eps, a = 1..depth.

    The lines meet two pole lattices.  The measure and E-block diff
    kernels have poles where T_a - T_{a-1} is an integer: at distance
    eps and 1 - eps from the lines.  The letter kernels have poles where
    omega*T_a is an integer: at T = 0, distance a*eps, and T = -1/omega,
    distance 1/omega - a*eps, nearest for the last line a = depth.  The
    trapezoid error decays like exp(-2 pi d/h) in the smallest of these
    distances d, so the grid step grows with it.  The smallest distance
    min(eps, 1 - eps, 1/omega - depth*eps) is largest at
    eps* = min(1/2, 1/((depth+1)*omega)).  The offset is 0.9*eps*,
    which keeps the last line a little further from the higher-order
    letter poles at -1/omega; the nearest pole is then always the one at
    distance eps."""
    return 0.9 * min(0.5, 1.0 / ((depth + 1) * omega))


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
    given as its (alpha, beta) blocks.  Blocks with the same alpha share
    one diff kernel, which the chain then evaluates once."""
    diffs = {0: None}
    stages = []
    for alpha, beta in blocks:
        if alpha not in diffs:
            scale = (-p.hbar_value) ** alpha

            def diff(delta, alpha=alpha, scale=scale):
                return (scale * _binom_poly(delta, alpha)
                        * measure_kernel(delta))
            diffs[alpha] = diff
        letter = ALetter(beta + 1)
        stages.append(ChainStage(
            cum=(lambda t, l=letter: kernel_I(l, t, p)),
            diff=diffs[alpha]))
    return stages


def _chain_value(stages, p, cfg):
    """The chain integral of the stages on the default contour stack."""
    return chain_line_integral(
        stages, default_eps(p.omega, len(stages)), cfg,
        decay=(TWO_PI, decay_hint(p.omega)))


def Z_omega(arg, p, cfg=None, mode="reduced"):
    """Linear extension over the admissible span; the coefficient ring
    Q[h] acts through h = 2 pi i omega.  Errors add up."""
    cfg = cfg or QuadConfig()
    arg = APoly.of(arg)
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
# Generating-function variables

def inverse_x_variable(xhat, omega):
    """Solve (e^{2 pi i w x} - 1)/(2 pi i w) = xhat for x (principal
    branch; valid for small |xhat|)."""
    w = TWO_PI * 1j * omega
    return np.log(1.0 + w * xhat) / w
