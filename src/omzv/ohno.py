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

The Theta stage couples the two chain lines only through the sum
T + U and the cross phase e^{-pi i w T U}.  On a shared uniform grid
the sum part is a discrete convolution, and the cross phase splits
into per-line chirps times a chirp on the sum grid, so the double sum
costs one tilted FFT convolution instead of a dense double loop.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cache as _cache
from .hypgamma import log_G, log_G_line
from .ncseries import z_decompose
from .omega import contour_offset, inverse_x_variable, zeta_omega
from .quad import (ChainStage, EvalResult, QuadConfig, QuadError,
                   cexpm1, chain_line_integral, chain_pass, chain_tables,
                   geometric_factor, _chain_grid, _require_finite,
                   _tilted_convolve, _worst)
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
    "connected_expansion",
    "clear_connector_cache",
]

TWO_PI = 2.0 * math.pi
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)  # log of the largest float
# Bound of the composition memo; tier-1 holds at most 9 entries.
_COMPOSITIONS_CACHE_SIZE = 256


@dataclass(frozen=True)
class OhnoParams:
    """Generating-function parameters: the deformation point (lam, mu)
    and the table order for (xi, eta) expansions."""
    lam: complex = 0.0 + 0.0j
    mu: complex = 0.0 + 0.0j
    order: int = 2

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")


class OhnoTable:
    """Triangular table of coefficients indexed by (m, n), m+n <= order,
    with a parallel table of error estimates."""

    def __init__(self, order):
        self.order = int(order)
        self.coeffs = {}
        self.errs = {}

    def set(self, m, n, value, err=0.0):
        if m < 0 or n < 0 or m + n > self.order:
            raise ValueError("cell (%d, %d) outside order %d"
                             % (m, n, self.order))
        self.coeffs[(m, n)] = complex(value)
        self.errs[(m, n)] = float(err)

    def add(self, m, n, value, err=0.0):
        cur = self.coeffs.get((m, n), 0.0 + 0.0j)
        self.set(m, n, cur + complex(value),
                 self.errs.get((m, n), 0.0) + float(err))

    def get(self, m, n):
        return self.coeffs.get((m, n), 0.0 + 0.0j)

    def cells(self):
        return sorted(self.coeffs)

    def max_abs_diff(self, other):
        """Largest |difference| over the shared triangle, NaN if any is."""
        top = min(self.order, other.order)
        return _worst(abs(self.get(m, n) - other.get(m, n))
                      for m in range(top + 1) for n in range(top + 1 - m))


# ---------------------------------------------------------------------------
# Composition sums

@lru_cache(maxsize=_COMPOSITIONS_CACHE_SIZE)
def compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`,
    in lexicographic order."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def double_ohno_sum(k, m, n, p, cfg=None):
    """O_{m,n}(k): the sum of zeta values over all ways of distributing
    extra weight m (first direction) and n (second direction) over the
    entries of the admissible index k."""
    k = check_index(k)
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    cfg = cfg or QuadConfig()
    r = len(k)
    total = 0.0 + 0.0j
    err = 0.0
    count = 0
    for ms in compositions(m, r):
        for ns in compositions(n, r):
            shifted = tuple(k[a] + ms[a] + ns[a] for a in range(r))
            res = zeta_omega(shifted, p, cfg)
            total += complex(res.value)
            err += res.err_estimate
            count += 1
    return EvalResult(total, err, {"index": k, "m": m, "n": n,
                                   "terms": count})


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
    stages = [ChainStage(cum=(lambda t, kk=e: _j_kernel(kk, t, op.lam,
                                                        op.mu, p)))
              for e in k]
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


def ohno_series(k, op, p, cfg=None):
    """Truncated double series sum_{m+n <= order} O_{m,n}(k) L^m M^n in
    the hatted variables; the error estimate folds in a geometric bound
    on the dropped tail."""
    k = check_index(k)
    cfg = cfg or QuadConfig()
    lam_hat = hat_shift(op.lam, p)
    mu_hat = hat_shift(op.mu, p)
    rho = max(abs(lam_hat), abs(mu_hat))
    q = 4.0 * rho
    if q >= 0.5:
        raise QuadError("deformation too large for series truncation",
                        rho=rho)
    table = ohno_table(k, op.order, p, cfg)
    total = 0.0 + 0.0j
    err = 0.0
    top = 0.0
    for m, n in table.cells():
        term = table.coeffs[(m, n)] * lam_hat ** m * mu_hat ** n
        total += term
        err += table.errs[(m, n)] * abs(lam_hat ** m * mu_hat ** n)
        if m + n == op.order:
            top += abs(term)
    err += top * q / (1.0 - q)
    return EvalResult(total, err, {"index": k, "order": op.order})


# ---------------------------------------------------------------------------
# Normalization d and the connected integral

def d_norm(lam, mu, ctx):
    """d(lam, mu) = (i/sqrt w) e^{pi i w (lam+mu-lam*mu)}
    G(i(ob - lam - 1/w)) G(i(ob - mu - 1/w)); equals i at w = 1 and
    lam = mu = 0."""
    w = ctx.p.omega
    ob = ctx.omega_bar
    lam = complex(lam)
    mu = complex(mu)
    logs = (log_G(1j * (ob - lam - 1.0 / w), ctx)
            + log_G(1j * (ob - mu - 1.0 / w), ctx))
    pref = (1j / math.sqrt(w)) * np.exp(1j * math.pi * w
                                        * (lam + mu - lam * mu))
    return complex(pref * np.exp(logs))


def _descending_log_line(ctx, tops, h, shift, height):
    """log G(i(ob + line + shift)) where line = -a*eps + i*ys runs over
    a grid with imaginary parts `tops` (ascending, spacing h); the G
    argument then has fixed height and descending real part.  The
    ascending G line is memoized on the context; a step-doubled grid is
    a subsample of its fine parent, so it is served by slicing."""
    n = len(tops)
    x0 = -float(tops[-1]) - shift.imag
    key = (x0, float(h), n, float(height))
    hit = ctx.line_cache.get(key)
    if hit is None:
        parent = ctx.line_cache.get((x0, 0.5 * key[1], 2 * n - 1, key[3]))
        hit = (parent[::2] if parent is not None
               else log_G_line(x0 + h * np.arange(n), height, ctx))
        ctx.line_cache.put(key, hit)
    return hit[::-1]


def _connector_grid(eps, cfg, p, r, s, shift):
    """Shared grid for the two chains feeding the Theta stage: the chain
    grid whose step also resolves the cross-phase chirp, whose local
    frequency pi*w*|Im U| grows linearly with the extent."""
    w = p.omega
    d0 = min(eps, min(1.0, 1.0 / w) - (r + s) * eps) - shift
    if d0 <= 1e-3:
        raise QuadError("contour too close to a kernel pole", dist=d0)
    dp = 1.6 * math.pi * w * eps * min(r, s)
    h, ys = _chain_grid(eps, cfg, (TWO_PI, dp), max(r, s), pole_dist=d0,
                        chirp=math.pi * w)
    return h, ys, dp


def _prefix_stages(k, lam, mu, p):
    """J stages for all but the last entry, then the bare power kernel
    (e^x/(1 - e^x))^{k-1}, x = 2 pi i w t, of the last entry k (identity
    when it is 1)."""
    stages = [ChainStage(cum=(lambda t, kk=e: _j_kernel(kk, t, lam, mu, p)))
              for e in k[:-1]]
    last = k[-1]
    cum = None if last == 1 else (lambda t, kk=last: geometric_factor(
        p.hbar_value * t, kk - 1, 0))
    stages.append(ChainStage(cum=cum))
    return stages


def _theta_value(ctx, cfg, p, r, s, lam, mu, eps, h, ys, chi_t, chi_u, dp):
    """Assemble the coupled double sum for one grid resolution."""
    w = p.omega
    ob = ctx.omega_bar
    n = len(ys)
    lam, mu = complex(lam), complex(mu)
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
             - np.log(-cexpm1(p.hbar_value * (s_line + both))))
    for name, logs in (("a", log_a), ("b", log_b), ("c", log_c)):
        if not np.max(logs.real) < _LOG_FLOAT_MAX:
            raise QuadError("Theta factor beyond the float range", factor=name)

    # cross phase e^{-pi i w T U} split into line chirps and a sum chirp
    f_t = np.exp((-math.pi * w * s * eps) * ys - 0.5j * math.pi * w * ys ** 2)
    f_u = np.exp((-math.pi * w * r * eps) * ys - 0.5j * math.pi * w * ys ** 2)
    f_sum = np.exp(0.5j * math.pi * w * ysum ** 2)
    const = np.exp(-1j * math.pi * w * r * s * eps * eps)

    a_vec = chi_t * np.exp(log_a) * f_t
    b_vec = chi_u * np.exp(log_b) * f_u
    conv = _tilted_convolve(a_vec, b_vec, 0, 2 * n - 1)
    c = np.exp(log_c)
    summand = conv * c * f_sum
    value = const * (1j ** (r + s)) * h * h * summand.sum()

    # boundary monitors: top/bottom rows of each line and of the sum
    a_abs, b_abs, c_abs = np.abs(a_vec), np.abs(b_vec), np.abs(c)
    hi, lo = c_abs[n - 1:], c_abs[:n]
    tail = h * ((a_abs[-1] * (b_abs @ hi) + b_abs[-1] * (a_abs @ hi)) / dp
                + (a_abs[0] * (b_abs @ lo) + b_abs[0] * (a_abs @ lo)) / TWO_PI)
    return value, float(tail)


def clear_connector_cache():
    """Empty the process-wide memo (shared with the chain values)."""
    _cache.clear_memo()


def connected_integral(k, l, op, ctx, cfg=None, eps=None):
    """I(k, l | lam, mu): two J chains joined by the Theta coupling.

    Chain a of length r runs on Re T_a = -a*eps, likewise the second
    chain; the Theta factor depends on (T_r, U_s) only through the sum
    and the cross phase, evaluated by convolution on the shared grid.
    """
    k = tuple(int(e) for e in k)
    l = tuple(int(e) for e in l)
    if not k or not l or min(k) < 1 or min(l) < 1:
        raise QuadError("index entries must be >= 1", k=k, l=l)
    cfg = cfg or ctx.cfg
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
        h, ys, dp = _connector_grid(eps, cfg, p, r, s, _shift_margin(lam, mu))
        tables = chain_tables([_prefix_stages(k, lam, mu, p),
                               _prefix_stages(l, lam, mu, p)], eps, h, ys)
        (chi_t, chi_t_c), (chi_u, chi_u_c) = (chain_pass(t, h)
                                              for t in tables)

        pref = p.hbar_value ** (sum(k) + sum(l))
        fine, tail = _theta_value(ctx, cfg, p, r, s, lam, mu, eps,
                                  h, ys, chi_t, chi_u, dp)
        value = pref * fine
        _require_finite(value, abs(pref) * tail, nodes=len(ys), stage="fine")
        coarse, _ = _theta_value(ctx, cfg, p, r, s, lam, mu, eps, 2 * h,
                                 ys[::2], chi_t_c[::2], chi_u_c[::2], dp)
        err = abs(pref) * (abs(fine - coarse) + tail) + cfg.abs_tol
        _require_finite(pref * coarse, err, nodes=len(ys), stage="coarse")
        return EvalResult(value, err, {"h": h, "nodes": len(ys),
                                       "lam": lam, "mu": mu})

    expr = "conn %s;%s lam=%r mu=%r eps=%r" % (
        ",".join(map(str, k)), ",".join(map(str, l)), lam, mu, float(eps))
    return _cache.memoized(expr, w, cfg, compute,
                           {"k": k, "l": l, "eps": eps})


def index_up(k):
    k = tuple(k)
    return k[:-1] + (k[-1] + 1,)


def index_right(k):
    return tuple(k) + (1,)


def initial_relation(k, op, ctx, cfg=None):
    """Both sides of I(k, {1} | lam, mu) = d(lam, mu) O(k_up | lam, mu);
    returns (lhs, rhs) EvalResults with the d factor folded into rhs."""
    cfg = cfg or ctx.cfg
    lhs = connected_integral(k, (1,), op, ctx, cfg)
    d = d_norm(op.lam, op.mu, ctx)
    gen = ohno_generating(index_up(k), op, ctx.p, cfg)
    rhs = EvalResult(d * complex(gen.value), abs(d) * gen.err_estimate,
                     {"d": d, "index": index_up(k)})
    return lhs, rhs


def transport_relation(k, l, op, ctx, cfg=None, variant=1):
    """Residual data for the transport relations.

    variant 1:  I(k_right, l) = I(k, l_up) + LM * I(k_right_up, l_up)
    variant 2:  I(k_up, l)    = I(k, l_right) - LM * I(k_up, l_right_up)

    Returns (lhs, rhs) EvalResults.
    """
    cfg = cfg or ctx.cfg
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
    lhs, t1, t2 = (connected_integral(a, b, op, ctx, cfg) for a, b in legs)
    rhs = EvalResult(complex(t1.value) + lm * complex(t2.value),
                     t1.err_estimate + abs(lm) * t2.err_estimate,
                     {"variant": variant})
    return lhs, rhs


# ---------------------------------------------------------------------------
# Saalschutz identity

def saalschutz_check(u1, u2, u4, u5, ctx, cfg=None):
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
    cfg = cfg or ctx.cfg
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
    lhs = chain_line_integral([ChainStage(diff=f)], gap, cfg,
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
    table = OhnoTable(order)
    for m in range(order + 1):
        for n in range(order + 1 - m):
            cell = double_ohno_sum(k, m, n, p, cfg)
            table.set(m, n, cell.value, cell.err_estimate)
    return table


def omega_Omega(w, op, p, cfg=None):
    """Omega table of an XSeries whose X^j coefficients are words in
    y h x: each word contributes its O table shifted by (j, j)."""
    table = OhnoTable(op.order)
    for (word, j), q in w.items_sorted():
        if 2 * j > op.order:
            continue
        sub = op.order - 2 * j
        idx = z_decompose(word)
        c = complex(q)
        for m in range(sub + 1):
            for n in range(sub + 1 - m):
                cell = double_ohno_sum(idx, m, n, p, cfg)
                table.add(m + j, n + j, c * complex(cell.value),
                          abs(c) * cell.err_estimate)
    return table


def connected_expansion(k, l, order, ctx, cfg=None, radius=None):
    """Coefficients Z_{m,n} of I(k, l | lam, mu)/d(lam, mu) as a series
    in the hatted variables, by least squares over a small product grid
    of phases."""
    if order > 2:
        raise ValueError("order above the supported expansion depth")
    cfg = cfg or ctx.cfg
    w = ctx.p.omega
    if radius is None:
        radius = min(1.0, 1.0 / w) / (16.0 * (len(k) + len(l) + 4))
    npts = order + 3
    cells = [(m, n) for m in range(order + 1)
             for n in range(order + 1 - m)]

    def fit(rho):
        # On a product grid of npts-th roots the monomial columns are
        # orthogonal, so truncation enters only through aliasing at
        # exponent gap npts; two radii expose that error directly.
        hats = rho * np.exp(2j * math.pi * np.arange(npts) / npts)
        rows = []
        vals = []
        errpt = 0.0
        for lh in hats:
            lam = complex(inverse_x_variable(lh, w))
            for mh in hats:
                mu = complex(inverse_x_variable(mh, w))
                conn = connected_integral(k, l, OhnoParams(lam, mu), ctx, cfg)
                dd = d_norm(lam, mu, ctx)
                vals.append(complex(conn.value) / dd)
                errpt = max(errpt, conn.err_estimate / abs(dd))
                rows.append([lh ** m * mh ** n for (m, n) in cells])
        a = np.array(rows)
        b = np.array(vals)
        sol, _, _, sv = np.linalg.lstsq(a, b, rcond=None)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if cond > 1e8:
            raise QuadError("expansion fit is ill-conditioned", cond=cond)
        return sol, errpt

    sol_wide, _ = fit(radius)
    sol, errpt = fit(radius / 2.0)
    table = OhnoTable(order)
    for (m, n), c, c_wide in zip(cells, sol, sol_wide):
        err = abs(c - c_wide) + errpt / max((radius / 2.0) ** (m + n), 1e-30)
        table.set(m, n, c, err)
    return table
