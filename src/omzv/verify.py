"""Verification suites: named checks with both sides, residual, and
tolerance.

Each suite is a plan: a list of Checks, each naming the values its two
sides read and the rule that judges them.  Batteries over many exact
cases are folded into a single check whose residual is the failure
count or the worst case, NaN over no cases.  `run_suite` judges each
check into the report row that `omzv verify` prints.  Suite contents
and check names are fixed, so two runs at the same configuration give
the same report up to the fields that vary between identical runs: the
top-level `timestamp` and `runtime_s` and each row's `runtime_s`.

A plan writes each check's tolerance; a run's `tol` (`omzv verify
--tol`) replaces it in every check but the `fixed` ones, the exact
counts of `algebra` and the `limit` checks, which keep their own.
"""

import bisect
import functools
import math
import operator
import random
import time
from dataclasses import dataclass

import numpy as np

from .hypgamma import GammaContext, _far_threshold, _log_G_far, log_G
from .ncseries import XSeries, tau
from .ohno import (OhnoParams, compositions, double_ohno_sum,
                   initial_relation, ohno_generating, ohno_series,
                   omega_Omega, saalschutz_check, transport_relation)
from .omega import OmegaParam, Z_omega_monomial, zeta_omega
from .qseries import QParam, z_q, z_q_monomial
from .quad import EvalResult, QuadConfig, QuadError, _worst
from .words import (APoly, dual_index, harmonic, monomials_up_to_weight,
                    satoh_residual, shuffle, sigma, sigma_monomial)

__all__ = ["SUITES", "run_suite"]


def _abs(lhs, rhs):
    return abs(lhs - rhs)


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


@dataclass(frozen=True)
class Check:
    """One identity of a plan.  Each side is a pair (f, keys): f of the
    values that keys name, an EvalResult or a number.  A key is a call
    (g, *args), evaluated once per run as g(*args); its arguments carry
    the omega and QuadConfig (or the GammaContext) it runs at.  tol is a
    number or a rule tol(lhs, rhs) of the sides, replaced by a run's tol
    unless fixed; the check passes if cmp(resid(lhs value, rhs value),
    tol).  A check at its own configuration names its fingerprint."""
    name: str
    anchor: str
    lhs: tuple
    rhs: tuple = (float, ())    # 0.0
    tol: object = 0.0
    resid: object = _abs
    cmp: object = operator.le
    fingerprint: str = ""
    fixed: bool = False


def _judge(chk, table, fingerprint, tol):
    """The report row of one check under the run's tol (see Check and
    run_suite), its values read from `table` after evaluating there
    those it lacks; a QuadError is kept as the value."""
    t0 = time.perf_counter()
    rule = chk.tol if tol is None or chk.fixed else tol
    keys = chk.lhs[1] + chk.rhs[1]
    for key in keys:
        if key not in table:
            try:
                table[key] = key[0](*key[1:])
            except QuadError as exc:    # kept without the failed frames
                table[key] = exc.with_traceback(None)
    failed = [table[k] for k in keys if isinstance(table[k], QuadError)]
    if failed:
        lhs = rhs = complex(math.nan, math.nan)
        residual = math.nan
        tol = math.nan if callable(rule) else rule
    else:
        a, b = (f(*(table[k] for k in ks)) for f, ks in (chk.lhs, chk.rhs))
        lhs, rhs = (complex(getattr(s, "value", s)) for s in (a, b))
        tol = rule(a, b) if callable(rule) else rule
        residual = float(chk.resid(lhs, rhs))
    return {"name": chk.name, "anchor": chk.anchor, "lhs": lhs, "rhs": rhs,
            "residual": residual, "tolerance": float(tol),
            "pass": bool(chk.cmp(residual, tol)),
            "fingerprint": chk.fingerprint or fingerprint,
            "runtime_s": round(time.perf_counter() - t0, 6),
            **({"error": str(failed[0])} if failed else {})}


# ---------------------------------------------------------------------------
# Sides and tolerance rules

def _one(*call):
    """The side that is the value of one call."""
    return (lambda value: value, (call,))


def _part(i, *call):
    """The side that is item i of a call's result."""
    return (operator.itemgetter(i), (call,))


def _halves(*call):
    """The two sides of a call returning (lhs, rhs)."""
    return _part(0, *call), _part(1, *call)


def _product(z1, z2):
    return EvalResult(z1.value * z2.value,
                      abs(z1.value) * z2.err_estimate
                      + abs(z2.value) * z1.err_estimate
                      + z1.err_estimate * z2.err_estimate)


def _poly(poly, p, cfg):
    """The side Z_w(poly): its monomials' values combined in `poly.t`
    order, as Z_omega adds them."""
    poly = APoly.of(poly)
    coeffs = [c.eval(p.hbar_value) for c in poly.t.values()]
    return (lambda *zs: EvalResult.combine(zip(coeffs, zs)),
            tuple((Z_omega_monomial, m, p, cfg) for m in poly.t))


def _err_rule(floor, factor=1.0):
    """The rule max(floor, factor * the two sides' summed error
    estimates)."""
    return lambda a, b: max(floor, factor * (a.err_estimate + b.err_estimate))


def _text(k):
    return ",".join(map(str, k))


def _monomials(max_weight):
    return [m for m in monomials_up_to_weight(max_weight) if len(m)]


def _pairs(max_weight):
    """Unordered monomial pairs (diagonal included) with total weight
    bounded by max_weight + 1."""
    mons = _monomials(max_weight)
    return [(m1, m2) for i, m1 in enumerate(mons) for m2 in mons[i:]
            if m1.weight + m2.weight <= max_weight + 1]


# ---------------------------------------------------------------------------
# Exact algebra and the q-series oracle

def _sh(m1, m2):
    return shuffle(m1.to_hpoly(), m2.to_hpoly())


def _ha(m1, m2):
    return harmonic(APoly.monomial(m1), APoly.monomial(m2))


def _count(bad, cases):
    """The side counting the cases where bad(*case) holds, NaN over none."""
    return (lambda: float(sum(1 for c in cases if bad(*c)))
            if cases else math.nan, ())


def _q_products(pairs, qp):
    """The worst |Z_q(u sh_h v) - Z_q(u) Z_q(v)|, |Z_q(u *_h v) - Z_q(u)
    Z_q(v)| and |Z_q(u sh_h v) - Z_q(u *_h v)| over the pairs."""
    d_sh, d_ha, d_ds = [], [], []
    for m1, m2 in pairs:
        prod = z_q_monomial(m1, qp).value * z_q_monomial(m2, qp).value
        sh, ha = z_q(_sh(m1, m2), qp), z_q(_ha(m1, m2), qp)
        d_sh.append(abs(sh.value - prod))
        d_ha.append(abs(ha.value - prod))
        d_ds.append(abs(sh.value - ha.value))
    return _worst(d_sh), _worst(d_ha), _worst(d_ds)


def suite_algebra(omega, cfg, max_weight, order, seed):
    A = APoly.monomial
    mons = _monomials(max_weight)
    small = _pairs(max_weight)
    # mons ascends in weight (so w2 <= w3): fit(w) ends those of weight <= w
    ws = [m.weight for m in mons]
    fit = functools.partial(bisect.bisect_right, ws)
    triples = [(m1, mons[j], m3)
               for i, m1 in enumerate(mons)
               for j in range(i, fit((max_weight + 1 - m1.weight) // 2))
               for m3 in mons[j:fit(max_weight + 1 - m1.weight - ws[j])]]
    idx = [tuple(e + 1 for e in c) for w in range(2, 7) for r in range(1, w)
           for c in compositions(w - r, r) if c[-1] > 0]
    singles = [(m,) for m in mons]
    exact = [
        ("satoh-zero", "u *_h v = sigma(sigma(u) sh_h sigma(v))",
         [(m1, m2) for i, m1 in enumerate(mons) for m2 in mons[i:]],
         lambda m1, m2: not satoh_residual(A(m1), A(m2)).is_zero()),
        ("shuffle-commutative", "u sh_h v = v sh_h u", small,
         lambda m1, m2: _sh(m1, m2) != _sh(m2, m1)),
        ("harmonic-commutative", "u *_h v = v *_h u", small,
         lambda m1, m2: _ha(m1, m2) != _ha(m2, m1)),
        ("shuffle-associative", "(u sh_h v) sh_h w = u sh_h (v sh_h w)",
         triples, lambda m1, m2, m3: (shuffle(_sh(m1, m2), m3.to_hpoly())
                                      != shuffle(m1.to_hpoly(), _sh(m2, m3)))),
        ("harmonic-associative", "(u *_h v) *_h w = u *_h (v *_h w)",
         triples, lambda m1, m2, m3: (harmonic(_ha(m1, m2), A(m3))
                                      != harmonic(A(m1), _ha(m2, m3)))),
        ("sigma-involution", "sigma(sigma(u)) = u", singles,
         lambda m: sigma(sigma(m.to_hpoly())) != m.to_hpoly()),
        ("sigma-block-form",
         "sigma reverses and swaps the (alpha, beta) blocks", singles,
         lambda m: (APoly.from_hpoly(sigma(m.to_hpoly()))
                    != A(sigma_monomial(m)))),
        ("dual-involution", "(k_dual)_dual = k", [(k,) for k in idx],
         lambda k: dual_index(dual_index(k)) != k),
    ]
    plan = [Check(name, anchor, _count(bad, cases), fixed=True)
            for name, anchor, cases, bad in exact]

    qp = QParam()
    plan.append(Check(
        "q-duality", "Z_q(sigma(m)) = Z_q(m)",
        (lambda: _worst(abs(z_q_monomial(m, qp).value
                            - z_q_monomial(sigma_monomial(m), qp).value)
                        for m in mons), ()), tol=1e-8))
    battery = (_q_products, tuple(small), qp)
    plan += [Check(name, anchor, _part(i, *battery), tol=1e-8)
             for i, (name, anchor) in enumerate((
                 ("q-shuffle", "Z_q(u sh_h v) = Z_q(u) Z_q(v)"),
                 ("q-harmonic", "Z_q(u *_h v) = Z_q(u) Z_q(v)"),
                 ("q-double-shuffle", "Z_q(u sh_h v) = Z_q(u *_h v)")))]
    return plan


# ---------------------------------------------------------------------------
# Contour-integral batteries

def suite_duality(omega, cfg, max_weight, order, seed):
    p = OmegaParam(omega)
    rule = _err_rule(1e-6, 5.0)
    plan = [Check("duality %s" % (m,), "Z_w(sigma(m)) = Z_w(m)",
                  _one(Z_omega_monomial, sigma_monomial(m), p, cfg),
                  _one(Z_omega_monomial, m, p, cfg), rule)
            for m in _monomials(max_weight)]
    plan += [Check("zeta-duality %s" % _text(k), "zeta_w(k_dual) = zeta_w(k)",
                   _one(zeta_omega, dual_index(k), p, cfg),
                   _one(zeta_omega, k, p, cfg), rule)
             for k in ((3,), (4,), (1, 3), (2, 2))]
    return plan


def _product_suite(kind, left, right, anchor):
    """The battery over `_pairs`: Z_w of left(m1, m2) against Z_w of
    right(m1, m2), or against Z_w(m1) Z_w(m2) if right is None."""
    def suite(omega, cfg, max_weight, order, seed):
        p = OmegaParam(omega)
        return [Check("%s %s | %s" % (kind, m1, m2), anchor,
                      _poly(left(m1, m2), p, cfg),
                      _poly(right(m1, m2), p, cfg) if right else
                      (_product, ((Z_omega_monomial, m1, p, cfg),
                                  (Z_omega_monomial, m2, p, cfg))),
                      _err_rule(1e-6, 5.0))
                for m1, m2 in _pairs(max_weight)]
    return suite


suite_shuffle = _product_suite("shuffle", _sh, None,
                               "Z_w(u sh_h v) = Z_w(u) Z_w(v)")
suite_harmonic = _product_suite("harmonic", _ha, None,
                                "Z_w(u *_h v) = Z_w(u) Z_w(v)")
suite_double_shuffle = _product_suite("double-shuffle", _sh, _ha,
                                      "Z_w(u sh_h v) = Z_w(u *_h v)")


# ---------------------------------------------------------------------------
# Hyperbolic gamma

def _gamma_worst(f, rows, ctx):
    """The side reading log G at the points of every row (z, u, ...):
    the worst of f(z, log G(u), ...) over the rows."""
    n = len(rows[0]) - 1
    keys = tuple((log_G, u, ctx) for row in rows for u in row[1:])
    return (lambda *logs: _worst(f(row[0], *logs[n * i:n * i + n])
                                 for i, row in enumerate(rows)), keys)


def _shift_ratio(c, d):
    """|G(z)/G(z - shift) / (-2i sinh(c z + d)) - 1| from the two logs."""
    return lambda z, a, b: abs(np.exp(a - b) / (-2j * np.sinh(c * z + d))
                               - 1.0)


def suite_gamma(omega, cfg, max_weight, order, seed):
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=cfg)
    w = p.omega
    s0 = ctx.core_band
    res = np.array([-1.7, -0.8, 0.25, 0.9, 1.8])
    ims = s0 * np.array([-0.8, -0.4, 0.0, 0.4, 0.8])
    grid = [re + 1j * im for re in res for im in ims]
    thr = _far_threshold(w)
    # just inside the far-field switch, so the strip quadrature is what
    # gets compared against the quadratic asymptotic
    far = [sgn * x + 1j * im for x in (0.45 * thr, 0.7 * thr, thr - 0.2)
           for im in (0.0, 0.3 * s0) for sgn in (1.0, -1.0)]
    plan = [Check(name, anchor, _gamma_worst(
                      f, [(z, z, partner(z)) for z in grid], ctx), tol=1e-8)
            for name, anchor, partner, f in (
                ("gamma-reflection", "G(z) G(-z) = 1", operator.neg,
                 lambda z, a, b: abs(np.exp(a + b) - 1.0)),
                ("gamma-shift-period-1",
                 "G(z)/G(z - i) = -2i sinh(pi w z + pi i (1-w)/2)",
                 lambda z: z - 1j,
                 _shift_ratio(math.pi * w, 1j * math.pi * (1.0 - w) / 2)),
                ("gamma-shift-period-1/w",
                 "G(z)/G(z - i/w) = -2i sinh(pi z + pi i (1-1/w)/2)",
                 lambda z: z - 1j / w,
                 _shift_ratio(math.pi, 1j * math.pi * (1.0 - 1.0 / w) / 2)))]
    plan.append(Check(
        "gamma-asymptotic",
        "log G(z) ~ -i sgn(Re z)(pi w z^2/2 + pi(w + 1/w)/24)",
        _gamma_worst(lambda z, a: abs(
            np.exp(a - complex(_log_G_far(np.asarray(z), w))) - 1.0),
            [(z, z) for z in far], ctx), tol=1e-3))
    return plan


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


def suite_saalschutz(omega, cfg, max_weight, order, seed):
    ctx = GammaContext(OmegaParam(omega), cfg=cfg)
    return [Check("saalschutz point %d" % i,
                  "int e^{(4i ob - S) pi i w u} G(u-u4)G(u-u5)"
                  "/(G(u+u1)G(u+u2)) du = closed product",
                  *_halves(saalschutz_check, *us, ctx), 1e-5, _rel)
            for i, us in enumerate(saalschutz_points(ctx.omega_bar), 1)]


_OHNO_POINTS = [
    (0.013 + 0.004j, -0.009 + 0.007j),
    (0.011 - 0.006j, 0.008 + 0.009j),
    (-0.012 + 0.005j, 0.010 - 0.008j),
]


def suite_ohno(omega, cfg, max_weight, order, seed):
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=cfg)
    initial = [(k, i, (initial_relation, k, OhnoParams(lam=lam, mu=mu), ctx))
               for k in ((1,), (2,))
               for i, (lam, mu) in enumerate(_OHNO_POINTS, 1)]
    plan = [Check("initial k=(%s) point %d" % (_text(k), i),
                  "I(k, (1) | lam, mu) = d(lam, mu) O(k_up | lam, mu)",
                  *_halves(*call), 1e-4, _rel)
            for k, i, call in initial]

    op = OhnoParams(lam=0.003 + 0.001j, mu=-0.002 + 0.0025j)
    plan.append(Check(
        "generating-vs-series k=(2)",
        "O(k | lam, mu) = sum_{m+n<=order} O_{m,n}(k) lam_hat^m mu_hat^n",
        _one(ohno_generating, (2,), op, p, cfg),
        _one(ohno_series, (2,), op, order, p, cfg), _err_rule(1e-9)))

    # only the single-direction row is self-dual; mixed cells need the
    # tau correction layers checked by the extended-do suite.  Cells of
    # 2.4e3 near omega = 2 need rel_tol 1e-9 for a 1e-6 residual.
    row_cfg = QuadConfig(min(cfg.rel_tol, 1e-9), cfg.abs_tol)
    plan.append(Check(
        "ohno-row-duality (3) vs (1,2)", "O_{m,0}(k) = O_{m,0}(k_dual)",
        (lambda *v: _worst(abs(a.value - b.value)
                           for a, b in zip(v[::2], v[1::2])),
         tuple((double_ohno_sum, k, m, 0, p, row_cfg)
               for m in range(order + 1) for k in ((3,), (1, 2)))),
        tol=1e-6, fingerprint=row_cfg.fingerprint()))
    return plan


def suite_transport(omega, cfg, max_weight, order, seed):
    ctx = GammaContext(OmegaParam(omega), cfg=cfg)
    rng = random.Random(seed)

    def point():
        rad = 0.006 + 0.006 * rng.random()
        ang = 2.0 * math.pi * rng.random()
        return rad * complex(math.cos(ang), math.sin(ang))
    op = OhnoParams(lam=point(), mu=point())
    anchors = {
        1: "I(k_right, l) = I(k, l_up) + lam_hat mu_hat I(k_right_up, l_up)",
        2: "I(k_up, l) = I(k, l_right) - lam_hat mu_hat I(k_up, l_right_up)",
    }
    return [Check("transport v%d k=(%s) l=(%s)" % (v, _text(k), _text(l)),
                  anchors[v], *_halves(transport_relation, k, l, op, ctx, v),
                  1e-4, _rel)
            for v in (1, 2) for k in ((1,), (2,)) for l in ((1,), (2,))]


def suite_extended_do(omega, cfg, max_weight, order, seed):
    p = OmegaParam(omega)
    x, y = XSeries.word("x"), XSeries.word("y")
    return [
        Check("zeta sum rule (4)=(1,3)+(2,2)",
              "zeta_w(4) = zeta_w(1,3) + zeta_w(2,2)",
              _one(zeta_omega, (4,), p, cfg),
              (lambda a, b: EvalResult.combine([(1, a), (1, b)]),
               ((zeta_omega, (1, 3), p, cfg), (zeta_omega, (2, 2), p, cfg))),
              1e-6),
        Check("omega-table y x x vs y tau(x) x",
              "Omega(y w x) = Omega(y tau(w) x)",
              (lambda ta, tb: ta.max_abs_diff(tb),
               ((omega_Omega, y * x * x, order, p, cfg),
                (omega_Omega, y * tau(x, order) * x, order, p, cfg))),
              tol=1e-5),
    ]


# ---------------------------------------------------------------------------
# Classical limit

def suite_limit(omega, cfg, max_weight, order, seed):
    steps = (0.2, 0.1, 0.05, 0.02)
    pi26 = math.pi ** 2 / 6.0
    g1 = _monomials(1)[0]
    ps = [OmegaParam(w) for w in steps]
    series = (
        ("zeta2-limit", "|zeta_w(2) - pi^2/6|",
         [(lambda z: abs(z.value - pi26), ((zeta_omega, (2,), p, cfg),))
          for p in ps]),
        ("hbar-g1-limit", "|Z_w(h g_1)|",
         [(lambda z, p=p: abs(p.hbar_value * z.value),
           ((Z_omega_monomial, g1, p, cfg),)) for p in ps]))
    return ([Check("%s step %g->%g" % (name, steps[i], steps[i + 1]),
                   gap + " decreases as w -> 0", sides[i + 1], sides[i],
                   resid=lambda lhs, rhs: (lhs - rhs).real, cmp=operator.lt,
                   fixed=True)
             for i in range(len(steps) - 1) for name, gap, sides in series]
            + [Check(name + " final gap (documented)",
                     gap + " at the smallest w", sides[-1], tol=1.0,
                     fixed=True)
               for name, gap, sides in series])


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


def run_suite(name, omega=1.0, max_weight=4, order=2, seed=0, tol=None):
    """Run one named suite (or "all") and return its report rows: per
    check a dict of name, anchor, lhs, rhs, residual, tolerance, pass,
    fingerprint and runtime_s, in that order, then `error` only if a
    value the check read failed.  `omzv verify` prints them as they are.

    Each suite is a plan, SUITES[name](omega, cfg, max_weight, order,
    seed) -> [Check]; its checks are judged here, tol (if given)
    replacing the tolerance of each that is not `fixed`.

    Each suite runs at its own configuration (rel_tol 1e-7 and abs_tol
    1e-9 for the connector suites, the default QuadConfig() for the
    rest), and each record carries the fingerprint of the configuration
    it ran at (a check that asks for more accuracy than its suite names
    its own).  The suites share one
    value table, so each distinct value is evaluated once per run; a
    value that raises QuadError fails exactly the checks that read it,
    each with the message as its `error`, and no other."""
    if name != "all" and name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    table, out = {}, []
    for key in (SUITES if name == "all" else (name,)):
        scfg = _SUITE_CFG.get(key, QuadConfig())
        out += [_judge(chk, table, scfg.fingerprint(), tol)
                for chk in SUITES[key](omega, scfg, max_weight, order, seed)]
    return out
