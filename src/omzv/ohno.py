"""Double Ohno sums and the connected integral that relates them.

Three layers:

  * composition sums O_{m,n}(k) of deformed zeta values, and their
    generating function O(k | lam, mu) as a chain integral with J
    kernels;
  * the connected integral I(k, l | lam, mu): two J chains joined by
    the Theta coupling built from hyperbolic gamma functions, plus the
    d(lam, mu) normalization, the initial and transport relations, and
    the Saalschutz identity they rest on;
  * the Omega coefficient tables on xy-words, whose equality
    Omega(y w x) = Omega(y tau(w) x) is the extended double Ohno
    relation.

Each coefficient table, O_{m,n}(k) and Omega, is an `OhnoTable`: a
dict (m, n) -> EvalResult whose cells are summed by
`EvalResult.combine`.  The connector functions take a
`GammaContext` and compute everything, chains and log G lines, at its
`cfg`, by which the memos and the store key their values and lines.

The Theta stage couples the two chain lines only through the sum
T + U and the cross phase e^{-pi i w T U}.  On a shared uniform grid
the sum part is a discrete convolution, and the cross phase splits
into per-line chirps times a chirp on the sum grid, so each grid level
costs one tilted FFT convolution instead of a dense double loop.  It
finishes the shared chain pass (`quad._chain_integral`) once per grid.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cache as _cache
from .hypgamma import log_G, log_G_line
from .ncseries import z_decompose
from .omega import clear_value_cache, contour_offset, zeta_omega
from .quad import (TWO_PI, ChainStage, EvalResult, QuadConfig, QuadError,
                   STEPS, cexpm1, chain_line_integral, geometric_factor,
                   _chain_grid, _chain_integral, _tilted_convolve, _worst)
from .words import check_index

__all__ = [
    "OhnoParams",
    "OhnoTable",
    "compositions",
    "double_ohno_sum",
    "ohno_generating",
    "ohno_series",
    "d_norm",
    "connected_integral",
    "initial_relation",
    "transport_relation",
    "saalschutz_check",
    "ohno_table",
    "omega_Omega",
    "clear_connector_cache",
]

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # log of the largest float


@dataclass(frozen=True)
class OhnoParams:
    """The deformation point (lam, mu) of the generating functions."""
    lam: complex = 0.0 + 0.0j
    mu: complex = 0.0 + 0.0j


class OhnoTable(dict):
    """Coefficient table: a dict (m, n) -> EvalResult.  `coeffs` and
    `errs` are copies of its values and of its error estimates."""

    @property
    def coeffs(self):
        return {cell: res.value for cell, res in self.items()}

    @property
    def errs(self):
        return {cell: res.err_estimate for cell, res in self.items()}

    def cells(self):
        return sorted(self)

    def max_abs_diff(self, other):
        """Largest |difference| over the union of cells, a missing cell
        counting as 0; NaN if any difference is."""
        a, b = self.coeffs, other.coeffs
        return _worst(abs(a.get(c, 0j) - b.get(c, 0j))
                      for c in a.keys() | b.keys())


# ---------------------------------------------------------------------------
# Composition sums

def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`,
    in lexicographic order."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in compositions(total - first, parts - 1))


def double_ohno_sum(k, m, n, p, cfg=None):
    """O_{m,n}(k): the sum of zeta values over all ways of distributing
    extra weight m (first direction) and n (second direction) over the
    entries of the admissible index k."""
    k = check_index(k)
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    cfg = cfg or QuadConfig()
    r = len(k)
    terms = [(1, zeta_omega(tuple(k[a] + ms[a] + ns[a] for a in range(r)),
                            p, cfg))
             for ms in compositions(m, r) for ns in compositions(n, r)]
    return EvalResult.combine(terms, {"index": k, "m": m, "n": n,
                                      "terms": len(terms)})


def hat_shift(z, p):
    """(e^{2 pi i w z} - 1) / (2 pi i w), the variable in which the
    generating functions are power series."""
    hbar = p.hbar_value
    return complex(cexpm1(hbar * complex(z))) / hbar


# ---------------------------------------------------------------------------
# Generating integral with J kernels

def _j_kernel(kk, t, lam, mu, p):
    """J_k(t | lam, mu) = e^{2 pi i w (k-1) t} / [(1 - e^{2 pi i w (lam+t)})
    (1 - e^{2 pi i w (mu+t)}) (1 - e^{2 pi i w t})^{k-2}].  With
    x = 2 pi i w t, P(x) = e^x/(1 - e^x) and Q(x) = 1/(1 - e^x) (the
    factors of `geometric_factor`) it is e^{-hbar lam} P(x + hbar lam)
    Q(x + hbar mu) P(x)^{k-2}, and Q(x + hbar lam) Q(x + hbar mu) / Q(x)
    for k = 1."""
    hbar = p.hbar_value
    x = hbar * np.asarray(t, dtype=complex)
    x_lam, x_mu = x + hbar * lam, x + hbar * mu
    if kk == 1:
        return (geometric_factor(x_lam, 0, 1) * geometric_factor(x_mu, 0, 1)
                / geometric_factor(x, 0, 1))
    out = (np.exp(-hbar * lam) * geometric_factor(x_lam, 1, 0)
           * geometric_factor(x_mu, 0, 1))
    if kk > 2:
        out = out * geometric_factor(x, kk - 2, 0)
    return out


def _j_stages(k, lam, mu, p):
    """One J stage per entry of k."""
    return [ChainStage(cum=(lambda t, kk=e: _j_kernel(kk, t, lam, mu, p)))
            for e in k]


def _shift_margin(lam, mu):
    return max(abs(complex(lam)), abs(complex(mu)),
               abs(complex(lam) + complex(mu)))


def ohno_generating(k, op, p, cfg=None, eps=None):
    """O(k | lam, mu): the generating integral of the double Ohno sums,
    one J stage per index entry on the lines Re T_a = -a*eps."""
    k = check_index(k)
    cfg = cfg or QuadConfig()
    w = p.omega
    r = len(k)
    default, bound = contour_offset(w, r, "generating")
    eps = default if eps is None else eps
    if not 0.0 < eps < bound:
        raise QuadError("contour shift outside (0, 1/2rw)", eps=eps)
    radius = eps / (3.0 * math.pi)
    if abs(complex(op.lam)) >= radius or abs(complex(op.mu)) >= radius:
        raise QuadError("deformation point outside the series region",
                        radius=radius)
    stages = _j_stages(k, op.lam, op.mu, p)
    pole = (min(eps, 1.0 - eps, 1.0 / w - r * eps)
            - _shift_margin(op.lam, op.mu))
    if pole <= 0.1 * eps:
        raise QuadError("contour too close to a kernel pole", dist=pole)
    dp = 0.8 * TWO_PI * w * (k[-1] - 1)
    pref = p.hbar_value ** sum(k)
    res = chain_line_integral(stages, eps, cfg, decay=(TWO_PI, dp),
                              pole_dist=pole, prefactor=pref)
    res.meta.update(index=k, lam=complex(op.lam), mu=complex(op.mu))
    return res


def ohno_series(k, op, order, p, cfg=None):
    """Truncated double series sum_{m+n <= order} O_{m,n}(k) L^m M^n in
    the hatted variables; the error estimate folds in a geometric bound
    on the dropped tail."""
    k = check_index(k)
    table = ohno_table(k, order, p, cfg)
    lam_hat = hat_shift(op.lam, p)
    mu_hat = hat_shift(op.mu, p)
    rho = max(abs(lam_hat), abs(mu_hat))
    q = 4.0 * rho
    if q >= 0.5:
        raise QuadError("deformation too large for series truncation",
                        rho=rho)
    terms = [(lam_hat ** m * mu_hat ** n, table[m, n])
             for m, n in table.cells()]
    res = EvalResult.combine(terms, {"index": k, "order": order})
    top = sum(abs(lam_hat ** m * mu_hat ** (order - m)
                  * table[m, order - m].value) for m in range(order + 1))
    res.err_estimate += top * q / (1.0 - q)
    return res


# ---------------------------------------------------------------------------
# Normalization d and the connected integral

def d_norm(lam, mu, ctx):
    """d(lam, mu) = (i/sqrt w) e^{pi i w (lam+mu-lam*mu)}
    G(i(ob - lam - 1/w)) G(i(ob - mu - 1/w)); equals i at w = 1 and
    lam = mu = 0."""
    w = ctx.p.omega
    ob = ctx.omega_bar
    lam, mu = complex(lam), complex(mu)
    logs = (log_G(1j * (ob - lam - 1.0 / w), ctx)
            + log_G(1j * (ob - mu - 1.0 / w), ctx))
    pref = (1j / math.sqrt(w)) * np.exp(1j * math.pi * w
                                        * (lam + mu - lam * mu))
    return complex(pref * np.exp(logs))


def _descending_log_line(ctx, tops, h, shift, height):
    """log G(i(ob + line + shift)) where line = -a*eps + i*ys runs over
    a grid with imaginary parts `tops` (ascending, spacing h); the G
    argument then has fixed height and descending real part.  The
    ascending G line is kept, read-only, in the process-wide line memo."""
    n = len(tops)
    x0 = -float(tops[-1]) - shift.imag
    key = (ctx.p.omega, ctx.cfg, x0, float(h), n, float(height))
    hit = _cache._LINE_MEMO.get(key)
    if hit is None:
        hit = log_G_line(x0 + h * np.arange(n), height, ctx)
        hit.flags.writeable = False
        _cache._LINE_MEMO.put(key, hit)
    return hit[::-1]


def _prefix_stages(k, lam, mu, p):
    """J stages for all but the last entry, then the bare power kernel
    (e^x/(1 - e^x))^{k-1}, x = 2 pi i w t, of the last entry k (identity
    when it is 1)."""
    last = k[-1]
    cum = None if last == 1 else (lambda t, kk=last: geometric_factor(
        p.hbar_value * t, kk - 1, 0))
    return _j_stages(k[:-1], lam, mu, p) + [ChainStage(cum=cum)]


def _theta_value(ctx, pref, r, s, lam, mu, eps, dp, h, ys, rows):
    """The Theta-coupled double sum of the chains' last rows at each grid
    level, times pref, and the fine level's boundary-tail bound and sum
    of its terms' magnitudes (`quad._chain_integral`'s finisher).  The
    lines and chirps are formed once on the fine grid (h, ys)."""
    w = ctx.p.omega
    ob = ctx.omega_bar
    both = lam + mu

    def log_line(a):
        # log of G(i(ob + T)) / (G(i(ob + T + lam)) G(i(ob + T + mu)))
        top = ob - a * eps
        return (_descending_log_line(ctx, ys, h, 0.0j, top)
                - _descending_log_line(ctx, ys, h, lam, top + lam.real)
                - _descending_log_line(ctx, ys, h, mu, top + mu.real))

    log_a, log_b = log_line(r), log_line(s)
    ysum = np.concatenate([ys[0] + ys[:-1], ys[-1] + ys])
    s_line = -(r + s) * eps + 1j * ysum
    log_c = (_descending_log_line(ctx, ysum, h, both,
                                  ob - (r + s) * eps + both.real)
             - np.log(-cexpm1(ctx.p.hbar_value * (s_line + both))))
    for name, logs in (("a", log_a), ("b", log_b), ("c", log_c)):
        if not np.max(logs.real) < _LOG_FLOAT_MAX:
            raise QuadError("Theta factor beyond the float range", factor=name)
    exp_a, exp_b, c = np.exp(log_a), np.exp(log_b), np.exp(log_c)

    # cross phase e^{-pi i w T U} split into line chirps and a sum chirp
    f_t = np.exp((-math.pi * w * s * eps) * ys - 0.5j * math.pi * w * ys ** 2)
    f_u = np.exp((-math.pi * w * r * eps) * ys - 0.5j * math.pi * w * ys ** 2)
    f_sum = np.exp(0.5j * math.pi * w * ysum ** 2)
    const = np.exp(-1j * math.pi * w * r * s * eps * eps)

    levels = []
    for chi_t, chi_u, m in zip(*rows, STEPS):
        a_vec = chi_t[::m] * exp_a[::m] * f_t[::m]
        b_vec = chi_u[::m] * exp_b[::m] * f_u[::m]
        conv = _tilted_convolve(a_vec, b_vec, 0, 2 * len(a_vec) - 1)
        levels.append((a_vec, b_vec, conv * c[::m] * f_sum[::m]))
    values = [pref * (const * (1j ** (r + s)) * (m * h) * (m * h) * v.sum())
              for (_, _, v), m in zip(levels, STEPS)]
    a_vec, b_vec, summand = levels[0]
    scale = h * h * np.abs(summand).sum()

    # boundary monitors: top/bottom rows of each line and of the sum
    a_abs, b_abs, c_abs = np.abs(a_vec), np.abs(b_vec), np.abs(c)
    hi, lo = c_abs[len(ys) - 1:], c_abs[:len(ys)]
    tail = h * ((a_abs[-1] * (b_abs @ hi) + b_abs[-1] * (a_abs @ hi)) / dp
                + (a_abs[0] * (b_abs @ lo) + b_abs[0] * (a_abs @ lo)) / TWO_PI)
    return values, abs(pref) * float(tail), abs(pref) * scale


clear_connector_cache = clear_value_cache   # one memo with the chains


def _connector_grid(cfg, w, r, s, lam, mu, eps):
    """(dp, h, ys): upward decay rate and grid of a connected integral."""
    d0 = min(eps, min(1.0, 1.0 / w) - (r + s) * eps) - _shift_margin(lam, mu)
    if d0 <= 1e-3:
        raise QuadError("contour too close to a kernel pole", dist=d0)
    # Theta decays like exp(-2 pi w eps (s Im T + r Im U)); the step also
    # resolves the cross-phase chirp, of local frequency pi*w*|Im U|
    dp = TWO_PI * w * eps * min(r, s)
    return (dp,) + _chain_grid(eps, cfg, (TWO_PI, dp), max(r, s),
                               pole_dist=d0, chirp=math.pi * w)


def connected_integral(k, l, op, ctx, eps=None):
    """I(k, l | lam, mu): two J chains joined by the Theta coupling.

    Chain a of length r runs on Re T_a = -a*eps, likewise the second
    chain; the Theta factor depends on (T_r, U_s) only through the sum
    and the cross phase, evaluated by convolution on the shared grid.
    Both chains run in `quad._chain_integral` with the Theta stage times
    the hbar prefactor as finisher, at the tolerance `ctx.cfg`; a chain
    may not exceed _MAX_DIM.
    """
    k, l = check_index(k, admissible=False), check_index(l, admissible=False)
    cfg = ctx.cfg
    p = ctx.p
    w = p.omega
    r, s = len(k), len(l)
    default, bound = contour_offset(w, r + s, "connector")
    eps = default if eps is None else eps
    if not 0.0 < eps < bound:
        raise QuadError("contour shift outside the convergence region",
                        eps=eps)
    lam, mu = complex(op.lam), complex(op.mu)
    if abs(lam) >= eps or abs(mu) >= eps:
        raise QuadError("deformation point outside the holomorphy region",
                        eps=eps)

    def compute():
        dp, h, ys = _connector_grid(cfg, w, r, s, lam, mu, eps)
        theta = partial(_theta_value, ctx, p.hbar_value ** (sum(k) + sum(l)),
                        r, s, lam, mu, eps, dp)
        return _chain_integral([_prefix_stages(k, lam, mu, p),
                                _prefix_stages(l, lam, mu, p)],
                               eps, cfg, h, ys, theta, lam=lam, mu=mu)

    expr = "conn %s;%s lam=%r mu=%r eps=%r" % (
        ",".join(map(str, k)), ",".join(map(str, l)), lam, mu, float(eps))
    return _cache.memoized(expr, w, cfg, compute,
                           {"k": k, "l": l, "eps": eps})


def index_up(k):
    k = tuple(k)
    return k[:-1] + (k[-1] + 1,)


def index_right(k):
    return tuple(k) + (1,)


def initial_relation(k, op, ctx):
    """Both sides of I(k, {1} | lam, mu) = d(lam, mu) O(k_up | lam, mu);
    returns (lhs, rhs) EvalResults with the d factor folded into rhs."""
    lhs = connected_integral(k, (1,), op, ctx)
    d = d_norm(op.lam, op.mu, ctx)
    gen = ohno_generating(index_up(k), op, ctx.p, ctx.cfg)
    return lhs, EvalResult.combine([(d, gen)],
                                   {"d": d, "index": index_up(k)})


def transport_relation(k, l, op, ctx, variant=1):
    """Residual data for the transport relations.

    variant 1:  I(k_right, l) = I(k, l_up) + LM * I(k_right_up, l_up)
    variant 2:  I(k_up, l)    = I(k, l_right) - LM * I(k_up, l_right_up)

    Returns (lhs, rhs) EvalResults.
    """
    p = ctx.p
    lm = hat_shift(op.lam, p) * hat_shift(op.mu, p)
    if variant == 1:
        legs = [(index_right(k), l), (k, index_up(l)),
                (index_up(index_right(k)), index_up(l))]
    elif variant == 2:
        lm = -lm
        legs = [(index_up(k), l), (k, index_right(l)),
                (index_up(k), index_up(index_right(l)))]
    else:
        raise ValueError("variant must be 1 or 2")
    lhs, t1, t2 = (connected_integral(a, b, op, ctx) for a, b in legs)
    return lhs, EvalResult.combine([(1, t1), (lm, t2)], {"variant": variant})


# ---------------------------------------------------------------------------
# Saalschutz identity

def saalschutz_check(u1, u2, u4, u5, ctx):
    """Both sides of the hyperbolic Saalschutz identity.

    lhs = int_R du exp((4 i ob - sum u) pi i w u) G(u-u4)G(u-u5) /
          (G(u+u1)G(u+u2)),
    rhs = (1/sqrt w) exp((u1 u2 - u4 u5 + i ob (u4+u5-u1-u2)) pi i w)
          G(-3 i ob + sum u) prod_{j=1,2; k=4,5} G(i ob - u_j - u_k).

    The contour is the straight real line, valid when every Im u_j is
    below ob (pole families separated) and Im sum u > 2 ob (decay at
    -infinity).  It is the depth-1 chain on the line Re t = -gap with
    u = Im t, so each G factor is one log G line on the uniform grid.
    Returns (lhs EvalResult, rhs complex).
    """
    p = ctx.p
    w = p.omega
    ob = ctx.omega_bar
    us = [complex(u1), complex(u2), complex(u4), complex(u5)]
    total = sum(us)
    gap = ob - max(u.imag for u in us)
    if gap <= 0.02:
        raise QuadError("pole lattice too close to the real line", gap=gap)
    if total.imag <= 2.0 * ob + 0.02:
        raise QuadError("no decay at -infinity: need Im(sum u) > 2*ob",
                        im_sum=total.imag)
    coeff = (4j * ob - total) * 1j * math.pi * w

    def f(t):
        x = t.imag
        logs = (log_G(x - us[2], ctx) + log_G(x - us[3], ctx)
                - log_G(x + us[0], ctx) - log_G(x + us[1], ctx))
        return np.exp(coeff * x + logs)

    dm = 0.9 * math.pi * w * (2.0 * total.imag - 4.0 * ob)
    dp = 0.9 * TWO_PI * (1.0 + w)
    freq = math.pi * w * (4.0 * ob + 2.0 * abs(total))
    lhs = chain_line_integral([ChainStage(diff=f)], gap, ctx.cfg,
                              decay=(dm, dp), freq=freq, prefactor=-1j)
    lhs.meta["pole_gap"] = gap

    expo = (us[0] * us[1] - us[2] * us[3]
            + 1j * ob * (us[2] + us[3] - us[0] - us[1])) * 1j * math.pi * w
    logs = log_G(-3j * ob + total, ctx)
    for j in (0, 1):
        for kk in (2, 3):
            logs += log_G(1j * ob - us[j] - us[kk], ctx)
    rhs = complex(np.exp(expo + logs) / math.sqrt(w))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Coefficient tables

def ohno_table(k, order, p, cfg=None):
    """Table of O_{m,n}(k) for m+n <= order."""
    k = check_index(k)
    if order < 0:
        raise ValueError("order must be >= 0")
    return OhnoTable({(m, n): double_ohno_sum(k, m, n, p, cfg)
                      for m in range(order + 1) for n in range(order + 1 - m)})


def omega_Omega(w, order, p, cfg=None):
    """Omega table of an XSeries whose X^j coefficients are words in
    y h x: each word contributes its O table shifted by (j, j)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    terms = {}
    for (word, j), q in w.items_sorted():
        if 2 * j > order:
            continue
        block = ohno_table(z_decompose(word), order - 2 * j, p, cfg)
        for (m, n), cell in block.items():
            terms.setdefault((m + j, n + j), []).append((complex(q), cell))
    return OhnoTable({cell: EvalResult.combine(pairs)
                      for cell, pairs in terms.items()})
