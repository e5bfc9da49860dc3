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
letter-by-letter direct route is kept for cross checks.  Every kernel
is a product of the factors (e^x/(1 - e^x))^a (1/(1 - e^x))^b that
`quad.geometric_factor` evaluates without overflow.

Every value is one `chain_line_integral` on the contour stack
Re T_a = -a*eps of the cumulative points T_a = t_1 + ... + t_a, with
the offset eps of `contour_offset`: by Cauchy the value does not depend on
eps inside the pole-free region, so eps is chosen to hold the stack as
far from every kernel pole as the geometry allows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cache as _cache
from .quad import (_MEASURE_MEMO, TWO_PI, ChainStage, EvalResult,
                   QuadConfig, chain_line_integral, geometric_factor,
                   measure_kernel)
from .words import AMonomial, APoly, check_index

__all__ = [
    "OmegaParam",
    "contour_offset",
    "Z_omega_monomial",
    "Z_omega",
    "zeta_omega",
    "clear_value_cache",
]


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


def contour_offset(omega, depth, geometry="zeta"):
    """(eps, bound) for the contour stack Re T_a = -a*eps, a = 1..depth:
    the offset, and the supremum of the offsets the integral is valid
    for.  Below the bound the value does not depend on eps (Cauchy), and
    the trapezoid error decays like exp(-2 pi d/h) in the smallest pole
    distance d, so eps is where d is largest.  The measure and E-block
    diff kernels have poles where T_a - T_{a-1} is an integer, at eps
    and 1 - eps; the letter and J kernels where w*(T_a + nu) is (w is
    omega, nu is 0 or a deformation point lam, mu): at T = -nu, distance
    a*eps - Re nu, and at T = -nu - 1/w, distance 1/w - a*eps + Re nu.

    "zeta" (`zeta_omega`, `Z_omega`): bound min(1, 1/(depth*w)); d =
    min(eps, 1 - eps, 1/w - depth*eps) peaks at eps* = min(1/2,
    1/((depth+1)*w)), and eps = 0.9*eps* keeps the last line off the
    higher-order letter poles at -1/w: the nearest pole is at eps.

    "generating" (`ohno_generating`, depth = r): the bound 1/(2*r*w)
    keeps the last line nearer T = 0 than -1/w, so that eps alone sets
    the series radius eps/(3 pi) in (lam, mu).  Below it d = min(eps,
    1 - eps), largest at min(1/2, bound): eps = min(1/2, 0.9*bound).

    "connector" (`connected_integral`, depth = r + s): chains of lengths
    r and s meet on the sum line S = T_r + U_s, Re S = -(r+s)*eps.  The
    Theta factor G(i(ob + T)) / (G(i(ob + T + lam)) G(i(ob + T + mu)))
    (G heights ob - r*eps + Re nu; likewise for U) has poles at zeroes
    of G, T = -nu + a + b/w (a, b >= 0), right of the line, and at poles
    of G, Re T <= -2*ob, further left.  In G(i(ob + S + lam + mu)) /
    (1 - e^{hbar (S + lam + mu)}) zeroes of G cancel those of the log
    factor at S + lam + mu = n/w, n >= 0; the one at -1/w stays, at
    1/w - (r+s)*eps.  As 1 - eps >= 1 - (r+s)*eps, d is at least
    min(eps, min(1, 1/w) - (r+s)*eps) - |lam + mu|.  The admitted points
    |lam|, |mu| < eps shift by up to 2*eps: the "+2" of the bound
    min(1, 1/w)/(r+s+2) keeps d > 0 at all of them.  Below the bound
    d = eps at lam = mu = 0, so eps = 0.9*bound."""
    if geometry == "zeta":
        return (0.9 * min(0.5, 1.0 / ((depth + 1) * omega)),
                min(1.0, 1.0 / (depth * omega)))
    if geometry == "generating":
        bound = 1.0 / (2.0 * depth * omega)
        return min(0.5, 0.9 * bound), bound
    if geometry == "connector":
        bound = min(1.0, 1.0 / omega) / (depth + 2)
        return 0.9 * bound, bound
    raise ValueError("unknown contour geometry %r" % geometry)


# ---------------------------------------------------------------------------
# Letter kernels

def kernel_I(k, t, p):
    """Kernel of the alphabet letter of index k at the cumulative point
    t: hbar for E (k = 0), and (hbar e^x/(1 - e^x))^k for G(k),
    x = 2 pi i omega t (`geometric_factor`)."""
    t = np.asarray(t, dtype=complex)
    if k == 0:
        return np.full(t.shape, p.hbar_value)
    return p.hbar_value ** k * geometric_factor(p.hbar_value * t, k, 0)


def kernel_e(k, t, p):
    """Kernel of the letter combination e_k = g_k + h g_{k-1}:
    (2 pi i omega)^k e^{2 pi i omega (k-1) t} / (1 - e^{2 pi i omega t})^k,
    that is hbar^k (e^x/(1 - e^x))^{k-1} / (1 - e^x) with
    x = 2 pi i omega t (`geometric_factor`)."""
    x = p.hbar_value * np.asarray(t, dtype=complex)
    return p.hbar_value ** k * geometric_factor(x, k - 1, 1)


def _binom_poly(delta, alpha):
    """C(delta + alpha, alpha) as a polynomial in delta."""
    out = np.ones_like(np.asarray(delta, dtype=complex))
    for j in range(1, alpha + 1):
        out = out * (delta + j) / j
    return out


# ---------------------------------------------------------------------------
# Monomial evaluation

def clear_value_cache():
    """Empty the process-wide memos (values, shared with the connector,
    and log G lines) and the measure-kernel tables of the chain grids."""
    _cache.clear_memo()
    _MEASURE_MEMO.clear()


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
            stages = [ChainStage(cum=(lambda t, k=k: kernel_I(k, t, p)))
                      for k in mono]
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
        stages.append(ChainStage(
            cum=(lambda t, k=beta + 1: kernel_I(k, t, p)),
            diff=diffs[alpha]))
    return stages


def _chain_value(stages, p, cfg):
    """The chain integral of the stages on the default contour stack."""
    return chain_line_integral(
        stages, contour_offset(p.omega, len(stages))[0], cfg,
        decay=(TWO_PI, decay_hint(p.omega)))


def Z_omega(arg, p, cfg=None):
    """Linear extension over the admissible span; the coefficient ring
    Q[h] acts through h = 2 pi i omega.  Errors add up."""
    cfg = cfg or QuadConfig()
    arg = APoly.of(arg)
    for mono, coeff in arg.t.items():
        if not mono.is_admissible():
            raise ValueError("monomial %s not admissible" % (mono,))
        if not coeff.is_polynomial():
            raise ValueError("coefficient of %s has h^-1 terms" % (mono,))
    return EvalResult.combine(
        [(coeff.eval(p.hbar_value), Z_omega_monomial(mono, p, cfg))
         for mono, coeff in arg.t.items()],
        {"omega": p.omega, "mode": "reduced"})


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
