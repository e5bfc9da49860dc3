"""Verification suites: named checks with both sides, residual, and
tolerance.

Each suite returns a list of CheckRecord.  A record compares two
independently computed sides of one identity; batteries over many
exact cases are folded into a single record whose residual is the
failure count or the worst case.  Suite contents and record names are
fixed, so two runs at the same configuration produce the same report
up to the fields that vary between identical runs: the top-level
`timestamp` and `runtime_s` and each check's `runtime_s`.  Nothing else
in the report may differ.
"""

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .hypgamma import GammaContext, _far_threshold, _log_G_far, log_G
from .ncseries import XSeries, tau
from .ohno import (OhnoParams, double_ohno_sum, initial_relation,
                   ohno_generating, ohno_series, omega_Omega,
                   saalschutz_check, transport_relation)
from .omega import OmegaParam, Z_omega, Z_omega_monomial, zeta_omega
from .qseries import QParam, mzv, z_q, z_q_monomial
from .quad import QuadConfig, QuadError, _worst
from .words import (APoly, dual_index, harmonic, monomials_up_to_weight,
                    satoh_residual, shuffle, sigma, sigma_monomial)

__all__ = ["CheckRecord", "SUITES", "run_suite"]


@dataclass
class CheckRecord:
    name: str
    anchor: str
    lhs: complex
    rhs: complex
    residual: float
    tolerance: float
    passed: bool
    runtime: float
    fingerprint: str = ""
    error: str = ""


def _record(name, anchor, lhs, rhs, tolerance, t0,
            residual=None, relative=False, passed=None):
    lhs = complex(lhs)
    rhs = complex(rhs)
    if residual is None:
        residual = abs(lhs - rhs)
        if relative:
            residual /= max(abs(rhs), 1e-300)
    if passed is None:
        passed = residual <= tolerance
    return CheckRecord(name, anchor, lhs, rhs, float(residual),
                       float(tolerance), bool(passed),
                       time.perf_counter() - t0)


def _monomials(max_weight):
    return [m for m in monomials_up_to_weight(max_weight) if len(m)]


def _pairs(max_weight):
    """Unordered monomial pairs (diagonal included) with total weight
    bounded by max_weight + 1."""
    mons = _monomials(max_weight)
    return [(m1, m2) for i, m1 in enumerate(mons) for m2 in mons[i:]
            if m1.weight + m2.weight <= max_weight + 1]


def _identity_tol(tol, err):
    """Tolerance of a two-sided identity whose sides carry the combined
    error estimate err: tol if given, else 5 err, at least 1e-6."""
    return tol if tol is not None else max(1e-6, 5.0 * err)


def _prod_err(z1, z2):
    return (abs(z1.value) * z2.err_estimate
            + abs(z2.value) * z1.err_estimate
            + z1.err_estimate * z2.err_estimate)


# ---------------------------------------------------------------------------
# Exact algebra and the q-series oracle

def suite_algebra(omega, cfg, max_weight, order, seed, tol):
    out = []
    mons = _monomials(max_weight)
    pairs = [(m1, m2) for i, m1 in enumerate(mons) for m2 in mons[i:]]

    t0 = time.perf_counter()
    bad = sum(1 for m1, m2 in pairs
              if not satoh_residual(APoly.monomial(m1),
                                    APoly.monomial(m2)).is_zero())
    out.append(_record("satoh-zero", "u *_h v = sigma(sigma(u) sh_h sigma(v))",
                       bad, 0, 0.0, t0, residual=float(bad)))

    t0 = time.perf_counter()
    small = _pairs(max_weight)
    bad = sum(1 for m1, m2 in small
              if shuffle(m1.to_hpoly(), m2.to_hpoly())
              != shuffle(m2.to_hpoly(), m1.to_hpoly()))
    out.append(_record("shuffle-commutative", "u sh_h v = v sh_h u",
                       bad, 0, 0.0, t0, residual=float(bad)))

    t0 = time.perf_counter()
    bad = sum(1 for m1, m2 in small
              if harmonic(APoly.monomial(m1), APoly.monomial(m2))
              != harmonic(APoly.monomial(m2), APoly.monomial(m1)))
    out.append(_record("harmonic-commutative", "u *_h v = v *_h u",
                       bad, 0, 0.0, t0, residual=float(bad)))

    triples = [(m1, m2, m3)
               for i, m1 in enumerate(mons)
               for j, m2 in enumerate(mons[i:], i)
               for m3 in mons[j:]
               if m1.weight + m2.weight + m3.weight <= max_weight + 1]
    t0 = time.perf_counter()
    bad = sum(1 for m1, m2, m3 in triples
              if shuffle(shuffle(m1.to_hpoly(), m2.to_hpoly()), m3.to_hpoly())
              != shuffle(m1.to_hpoly(), shuffle(m2.to_hpoly(), m3.to_hpoly())))
    out.append(_record("shuffle-associative",
                       "(u sh_h v) sh_h w = u sh_h (v sh_h w)",
                       bad, 0, 0.0, t0, residual=float(bad)))
    t0 = time.perf_counter()
    bad = 0
    for m1, m2, m3 in triples:
        a1, a2, a3 = (APoly.monomial(m) for m in (m1, m2, m3))
        if harmonic(harmonic(a1, a2), a3) != harmonic(a1, harmonic(a2, a3)):
            bad += 1
    out.append(_record("harmonic-associative",
                       "(u *_h v) *_h w = u *_h (v *_h w)",
                       bad, 0, 0.0, t0, residual=float(bad)))

    t0 = time.perf_counter()
    bad = sum(1 for m in mons
              if sigma(sigma(m.to_hpoly())) != m.to_hpoly())
    out.append(_record("sigma-involution", "sigma(sigma(u)) = u",
                       bad, 0, 0.0, t0, residual=float(bad)))

    t0 = time.perf_counter()
    bad = sum(1 for m in mons if APoly.from_hpoly(sigma(m.to_hpoly()))
              != APoly.monomial(sigma_monomial(m)))
    out.append(_record("sigma-block-form",
                       "sigma reverses and swaps the (alpha, beta) blocks",
                       bad, 0, 0.0, t0, residual=float(bad)))

    t0 = time.perf_counter()
    idx = [k + (last,)
           for total in range(2, 7)
           for last in range(2, total + 1)
           for k in _compositions_of(total - last)]
    bad = sum(1 for k in idx if dual_index(dual_index(k)) != k)
    out.append(_record("dual-involution", "(k_dual)_dual = k",
                       bad, 0, 0.0, t0, residual=float(bad)))

    qp = QParam()
    qtol = tol if tol is not None else 1e-8
    t0 = time.perf_counter()
    worst = _worst(abs(z_q_monomial(m, qp).value
                       - z_q_monomial(sigma_monomial(m), qp).value)
                   for m in mons)
    out.append(_record("q-duality", "Z_q(sigma(m)) = Z_q(m)",
                       worst, 0, qtol, t0, residual=worst))

    t0 = time.perf_counter()
    d_sh, d_ha, d_ds = [], [], []
    for m1, m2 in small:
        prod = z_q_monomial(m1, qp).value * z_q_monomial(m2, qp).value
        sh = z_q(shuffle(m1.to_hpoly(), m2.to_hpoly()), qp)
        ha = z_q(harmonic(APoly.monomial(m1), APoly.monomial(m2)), qp)
        d_sh.append(abs(sh.value - prod))
        d_ha.append(abs(ha.value - prod))
        d_ds.append(abs(sh.value - ha.value))
    worst_sh, worst_ha, worst_ds = _worst(d_sh), _worst(d_ha), _worst(d_ds)
    out.append(_record("q-shuffle", "Z_q(u sh_h v) = Z_q(u) Z_q(v)",
                       worst_sh, 0, qtol, t0, residual=worst_sh))
    out.append(_record("q-harmonic", "Z_q(u *_h v) = Z_q(u) Z_q(v)",
                       worst_ha, 0, qtol, time.perf_counter(),
                       residual=worst_ha))
    out.append(_record("q-double-shuffle", "Z_q(u sh_h v) = Z_q(u *_h v)",
                       worst_ds, 0, qtol, time.perf_counter(),
                       residual=worst_ds))
    return out


def _compositions_of(total):
    """All compositions of `total` into positive parts (empty for 0)."""
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions_of(total - first):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# Contour-integral batteries

def suite_duality(omega, cfg, max_weight, order, seed, tol):
    p = OmegaParam(omega)
    out = []
    for m in _monomials(max_weight):
        t0 = time.perf_counter()
        a = Z_omega_monomial(m, p, cfg)
        b = Z_omega_monomial(sigma_monomial(m), p, cfg)
        t = _identity_tol(tol, a.err_estimate + b.err_estimate)
        out.append(_record("duality %s" % (m,), "Z_w(sigma(m)) = Z_w(m)",
                           b.value, a.value, t, t0))
    for k in ((3,), (4,), (1, 3), (2, 2)):
        t0 = time.perf_counter()
        a = zeta_omega(k, p, cfg)
        b = zeta_omega(dual_index(k), p, cfg)
        t = _identity_tol(tol, a.err_estimate + b.err_estimate)
        out.append(_record("zeta-duality %s" % ",".join(map(str, k)),
                           "zeta_w(k_dual) = zeta_w(k)",
                           b.value, a.value, t, t0))
    return out


def _product_suite(kind, omega, cfg, max_weight, tol):
    p = OmegaParam(omega)
    out = []
    for m1, m2 in _pairs(max_weight):
        t0 = time.perf_counter()
        z1 = Z_omega_monomial(m1, p, cfg)
        z2 = Z_omega_monomial(m2, p, cfg)
        prod = z1.value * z2.value
        perr = _prod_err(z1, z2)
        name = "%s %s | %s" % (kind, m1, m2)
        if kind == "shuffle":
            lhs = Z_omega(shuffle(m1.to_hpoly(), m2.to_hpoly()), p, cfg)
            t = _identity_tol(tol, lhs.err_estimate + perr)
            out.append(_record(name, "Z_w(u sh_h v) = Z_w(u) Z_w(v)",
                               lhs.value, prod, t, t0))
        elif kind == "harmonic":
            lhs = Z_omega(harmonic(APoly.monomial(m1), APoly.monomial(m2)),
                          p, cfg)
            t = _identity_tol(tol, lhs.err_estimate + perr)
            out.append(_record(name, "Z_w(u *_h v) = Z_w(u) Z_w(v)",
                               lhs.value, prod, t, t0))
        else:
            sh = Z_omega(shuffle(m1.to_hpoly(), m2.to_hpoly()), p, cfg)
            ha = Z_omega(harmonic(APoly.monomial(m1), APoly.monomial(m2)),
                         p, cfg)
            t = _identity_tol(tol, sh.err_estimate + ha.err_estimate)
            out.append(_record(name, "Z_w(u sh_h v) = Z_w(u *_h v)",
                               sh.value, ha.value, t, t0))
    return out


def suite_shuffle(omega, cfg, max_weight, order, seed, tol):
    return _product_suite("shuffle", omega, cfg, max_weight, tol)


def suite_harmonic(omega, cfg, max_weight, order, seed, tol):
    return _product_suite("harmonic", omega, cfg, max_weight, tol)


def suite_double_shuffle(omega, cfg, max_weight, order, seed, tol):
    return _product_suite("double-shuffle", omega, cfg, max_weight, tol)


# ---------------------------------------------------------------------------
# Hyperbolic gamma

def suite_gamma(omega, cfg, max_weight, order, seed, tol):
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=cfg)
    w = p.omega
    s0 = ctx.core_band
    res = np.array([-1.7, -0.8, 0.25, 0.9, 1.8])
    ims = s0 * np.array([-0.8, -0.4, 0.0, 0.4, 0.8])
    grid = [re + 1j * im for re in res for im in ims]
    t_exact = tol if tol is not None else 1e-8
    out = []

    t0 = time.perf_counter()
    worst = _worst(abs(np.exp(log_G(z, ctx) + log_G(-z, ctx)) - 1.0)
                   for z in grid)
    out.append(_record("gamma-reflection", "G(z) G(-z) = 1",
                       worst, 0, t_exact, t0, residual=worst))

    t0 = time.perf_counter()
    worst = _worst(
        abs(np.exp(log_G(z, ctx) - log_G(z - 1j, ctx))
            / (-2j * np.sinh(math.pi * w * z + 1j * math.pi * (1.0 - w) / 2))
            - 1.0) for z in grid)
    out.append(_record("gamma-shift-period-1",
                       "G(z)/G(z - i) = -2i sinh(pi w z + pi i (1-w)/2)",
                       worst, 0, t_exact, t0, residual=worst))

    t0 = time.perf_counter()
    worst = _worst(
        abs(np.exp(log_G(z, ctx) - log_G(z - 1j / w, ctx))
            / (-2j * np.sinh(math.pi * z + 1j * math.pi * (1.0 - 1.0 / w) / 2))
            - 1.0) for z in grid)
    out.append(_record("gamma-shift-period-1/w",
                       "G(z)/G(z - i/w) = -2i sinh(pi z + pi i (1-1/w)/2)",
                       worst, 0, t_exact, t0, residual=worst))

    t0 = time.perf_counter()
    thr = _far_threshold(w)
    # just inside the far-field switch, so the strip quadrature is what
    # gets compared against the quadratic asymptotic
    far = [sgn * x + 1j * im for x in (0.45 * thr, 0.7 * thr, thr - 0.2)
           for im in (0.0, 0.3 * s0) for sgn in (1.0, -1.0)]
    worst = _worst(abs(np.exp(log_G(z, ctx)
                              - complex(_log_G_far(np.asarray(z), w))) - 1.0)
                   for z in far)
    out.append(_record(
        "gamma-asymptotic",
        "log G(z) ~ -i sgn(Re z)(pi w z^2/2 + pi(w + 1/w)/24)",
        worst, 0, tol if tol is not None else 1e-3, t0, residual=worst))
    return out


# ---------------------------------------------------------------------------
# Connector identities

def saalschutz_points(ob):
    """The suite's three points (u1, u2, u4, u5) for strip half-width
    ob: every Im u_j below ob, Im sum u above 2 ob."""
    return [
        (0.20 + 0.55j * ob, -0.15 + 0.70j * ob,
         -0.05 + 0.80j * ob, 0.12 + 0.78j * ob),
        (0.05 + 0.60j * ob, 0.10 + 0.72j * ob,
         0.25 + 0.85j * ob, -0.20 + 0.70j * ob),
        (-0.10 + 0.65j * ob, 0.08 + 0.68j * ob,
         0.15 + 0.75j * ob, 0.02 + 0.82j * ob),
    ]


def suite_saalschutz(omega, cfg, max_weight, order, seed, tol):
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=cfg)
    t = tol if tol is not None else 1e-5
    out = []
    for i, us in enumerate(saalschutz_points(ctx.omega_bar), 1):
        t0 = time.perf_counter()
        lhs, rhs = saalschutz_check(*us, ctx)
        out.append(_record(
            "saalschutz point %d" % i,
            "int e^{(4i ob - S) pi i w u} G(u-u4)G(u-u5)"
            "/(G(u+u1)G(u+u2)) du = closed product",
            lhs.value, rhs, t, t0, relative=True))
    return out


_OHNO_POINTS = [
    (0.013 + 0.004j, -0.009 + 0.007j),
    (0.011 - 0.006j, 0.008 + 0.009j),
    (-0.012 + 0.005j, 0.010 - 0.008j),
]


def suite_ohno(omega, cfg, max_weight, order, seed, tol):
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=cfg)
    t_rel = tol if tol is not None else 1e-4
    out = []
    for k in ((1,), (2,)):
        for i, (lam, mu) in enumerate(_OHNO_POINTS, 1):
            t0 = time.perf_counter()
            op = OhnoParams(lam=lam, mu=mu)
            lhs, rhs = initial_relation(k, op, ctx)
            out.append(_record(
                "initial k=(%s) point %d" % (",".join(map(str, k)), i),
                "I(k, (1) | lam, mu) = d(lam, mu) O(k_up | lam, mu)",
                lhs.value, rhs.value, t_rel, t0, relative=True))

    t0 = time.perf_counter()
    op = OhnoParams(lam=0.003 + 0.001j, mu=-0.002 + 0.0025j)
    gen = ohno_generating((2,), op, p, cfg)
    ser = ohno_series((2,), op, order, p, cfg)
    t = tol if tol is not None else max(
        1e-9, gen.err_estimate + ser.err_estimate)
    out.append(_record(
        "generating-vs-series k=(2)",
        "O(k | lam, mu) = sum_{m+n<=order} O_{m,n}(k) lam_hat^m mu_hat^n",
        gen.value, ser.value, t, t0))

    t0 = time.perf_counter()
    # only the single-direction row is self-dual; mixed cells need the
    # tau correction layers checked by the extended-do suite.  Cells of
    # 2.4e3 near omega = 2 need rel_tol 1e-9 for a 1e-6 residual.
    row_cfg = QuadConfig(min(cfg.rel_tol, 1e-9), cfg.abs_tol)
    diff = _worst(abs(double_ohno_sum((3,), m, 0, p, row_cfg).value
                      - double_ohno_sum((1, 2), m, 0, p, row_cfg).value)
                  for m in range(order + 1))
    t = tol if tol is not None else 1e-6
    out.append(_record("ohno-row-duality (3) vs (1,2)",
                       "O_{m,0}(k) = O_{m,0}(k_dual)",
                       diff, 0, t, t0, residual=diff))
    out[-1].fingerprint = row_cfg.fingerprint()
    return out


def suite_transport(omega, cfg, max_weight, order, seed, tol):
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=cfg)
    rng = random.Random(seed)
    rad = 0.006 + 0.006 * rng.random()
    ang = 2.0 * math.pi * rng.random()
    lam = rad * complex(math.cos(ang), math.sin(ang))
    rad = 0.006 + 0.006 * rng.random()
    ang = 2.0 * math.pi * rng.random()
    mu = rad * complex(math.cos(ang), math.sin(ang))
    op = OhnoParams(lam=lam, mu=mu)
    t = tol if tol is not None else 1e-4
    out = []
    anchors = {
        1: "I(k_right, l) = I(k, l_up) + lam_hat mu_hat I(k_right_up, l_up)",
        2: "I(k_up, l) = I(k, l_right) - lam_hat mu_hat I(k_up, l_right_up)",
    }
    for variant in (1, 2):
        for k in ((1,), (2,)):
            for l in ((1,), (2,)):
                t0 = time.perf_counter()
                lhs, rhs = transport_relation(k, l, op, ctx, variant=variant)
                out.append(_record(
                    "transport v%d k=(%s) l=(%s)"
                    % (variant, ",".join(map(str, k)), ",".join(map(str, l))),
                    anchors[variant], lhs.value, rhs.value, t, t0,
                    relative=True))
    return out


def suite_extended_do(omega, cfg, max_weight, order, seed, tol):
    p = OmegaParam(omega)
    out = []
    t0 = time.perf_counter()
    a = zeta_omega((4,), p, cfg)
    b = zeta_omega((1, 3), p, cfg)
    c = zeta_omega((2, 2), p, cfg)
    t = tol if tol is not None else 1e-6
    out.append(_record("zeta sum rule (4)=(1,3)+(2,2)",
                       "zeta_w(4) = zeta_w(1,3) + zeta_w(2,2)",
                       a.value, b.value + c.value, t, t0))

    t0 = time.perf_counter()
    x, y = XSeries.word("x"), XSeries.word("y")
    lhs_word = y * x * x
    rhs_word = y * tau(x, order) * x
    ta = omega_Omega(lhs_word, order, p, cfg)
    tb = omega_Omega(rhs_word, order, p, cfg)
    diff = ta.max_abs_diff(tb)
    t = tol if tol is not None else 1e-5
    out.append(_record("omega-table y x x vs y tau(x) x",
                       "Omega(y w x) = Omega(y tau(w) x)",
                       diff, 0, t, t0, residual=diff))
    return out


# ---------------------------------------------------------------------------
# Classical limit

def suite_limit(omega, cfg, max_weight, order, seed, tol):
    steps = (0.2, 0.1, 0.05, 0.02)
    pi26 = math.pi ** 2 / 6.0
    g1 = _monomials(1)[0]
    gaps = []
    mags = []
    for w in steps:
        p = OmegaParam(w)
        gaps.append(abs(zeta_omega((2,), p, cfg).value - pi26))
        mags.append(abs(p.hbar_value
                        * Z_omega_monomial(g1, p, cfg).value))
    out = []
    for i in range(len(steps) - 1):
        t0 = time.perf_counter()
        out.append(_record(
            "zeta2-limit step %g->%g" % (steps[i], steps[i + 1]),
            "|zeta_w(2) - pi^2/6| decreases as w -> 0",
            gaps[i + 1], gaps[i], 0.0, t0,
            residual=gaps[i + 1] - gaps[i], passed=gaps[i + 1] < gaps[i]))
        out.append(_record(
            "hbar-g1-limit step %g->%g" % (steps[i], steps[i + 1]),
            "|Z_w(h g_1)| decreases as w -> 0",
            mags[i + 1], mags[i], 0.0, t0,
            residual=mags[i + 1] - mags[i], passed=mags[i + 1] < mags[i]))
    t0 = time.perf_counter()
    out.append(_record("zeta2-limit final gap (documented)",
                       "|zeta_w(2) - pi^2/6| at the smallest w",
                       gaps[-1], 0, 1.0, t0, residual=gaps[-1]))
    out.append(_record("hbar-g1-limit final gap (documented)",
                       "|Z_w(h g_1)| at the smallest w",
                       mags[-1], 0, 1.0, t0, residual=mags[-1]))

    n = 100_000
    t0 = time.perf_counter()
    a, b = mzv((1, 2), n), mzv((3,), n)
    t = tol if tol is not None else 5.0 * (a.err_estimate + b.err_estimate)
    out.append(_record("mzv-oracle 1,2=3", "zeta(1,2) = zeta(3)",
                       a.value, b.value, t, t0))
    t0 = time.perf_counter()
    a = mzv((4,), n)
    b, c = mzv((1, 3), n), mzv((2, 2), n)
    t = tol if tol is not None else 5.0 * (a.err_estimate + b.err_estimate
                                           + c.err_estimate)
    out.append(_record("mzv-oracle 4=1,3+2,2",
                       "zeta(4) = zeta(1,3) + zeta(2,2)",
                       a.value, b.value + c.value, t, t0))
    return out


# ---------------------------------------------------------------------------
# Registry

SUITES = {
    "algebra": suite_algebra,
    "duality": suite_duality,
    "shuffle": suite_shuffle,
    "harmonic": suite_harmonic,
    "double-shuffle": suite_double_shuffle,
    "gamma": suite_gamma,
    "saalschutz": suite_saalschutz,
    "ohno": suite_ohno,
    "transport": suite_transport,
    "extended-do": suite_extended_do,
    "limit": suite_limit,
}


# The connector identities are checked at tolerances around 1e-4, so
# the default 1e-9 target would only buy grid.
_SUITE_CFG = dict.fromkeys(("saalschutz", "ohno", "transport"),
                           QuadConfig(rel_tol=1e-7, abs_tol=1e-9))


def run_suite(name, omega=1.0, cfg=None, max_weight=4, order=2, seed=0,
              tol=None):
    """Run one named suite (or "all") and return its CheckRecords.

    Each suite runs at cfg if given, else at its own configuration
    (rel_tol 1e-7 and abs_tol 1e-9 for the connector suites, the
    default QuadConfig() for the rest), and each record carries the
    fingerprint of the configuration it ran at (a check that asks for
    more accuracy than its suite names its own).  A suite that raises
    QuadError yields one failed record whose `error` holds the message;
    the others still run."""
    if name != "all" and name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    out = []
    for key in (SUITES if name == "all" else (name,)):
        scfg = cfg or _SUITE_CFG.get(key, QuadConfig())
        t0 = time.perf_counter()
        try:
            records = SUITES[key](omega, scfg, max_weight, order, seed, tol)
        except QuadError as exc:
            records = [_record(key, "the suite raised QuadError", math.nan,
                               math.nan, 0.0, t0, residual=math.nan)]
            records[0].error = str(exc)
        for rec in records:
            rec.fingerprint = rec.fingerprint or scfg.fingerprint()
        out.extend(records)
    return out
