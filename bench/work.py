"""Set-up, request execution and the correctness gate.

Every call the benchmark makes into an `omzv` layer goes through
`Calls`, which wraps it in a span named after the layer and records
the exact counts the result carries (nodes, terms, cache flags).
Checks against oracles run in `gate`, after the timed region, with the
value store uninstalled so they leave no trace in the measured state.
"""

import importlib
import math
import sys
import time
import types

import numpy as np

import oracles

# The connector suites run at this tolerance; everything else uses the
# package default QuadConfig().
CONN_TOL = {"rel_tol": 1e-7, "abs_tol": 1e-9}
# Check thresholds, as the package's verify suites set them.
IDENTITY_FLOOR = 1e-6        # residual <= max(floor, 5 * combined err)
RELATION_REL = 1e-4          # initial relation
SAAL_REL = 1e-5              # Saalschutz
GAMMA_EXACT = 1e-8           # reflection, shift equations, mpmath strip
DIRECT_MAX_LETTERS = 3       # direct-route oracle for short monomials
E_WORD_MAX_DEPTH = 2         # e-word route oracle for shallow zeta
LINE_SAMPLES = (0, 0.5, 1.0)  # fractions of a line checked in the gate
CONN_KINDS = ("line", "point", "initial", "saal")


def load_package():
    """Import omzv afresh: drop it from sys.modules first, so
    module-level memos and caches start empty as in a new process."""
    for name in [n for n in sys.modules
                 if n == "omzv" or n.startswith("omzv.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace()
    for name in ("cache", "hypgamma", "ohno", "omega", "quad", "words"):
        setattr(mods, name, importlib.import_module("omzv." + name))
    mods.pkg = importlib.import_module("omzv")
    return mods


def setup(stream, store_path):
    """Import, store load and context construction, timed."""
    t0 = time.perf_counter()
    m = load_package()
    t1 = time.perf_counter()
    store = None
    if store_path is not None:
        store = m.cache.ValueCache(store_path)
    m.cache.install(store)
    m.omega.clear_value_cache()
    m.ohno.clear_connector_cache()
    t2 = time.perf_counter()
    env = types.SimpleNamespace(m=m, store=store, store_path=store_path)
    env.cfg = m.quad.QuadConfig()
    env.conn_cfg = m.quad.QuadConfig(**CONN_TOL)
    env.params = {}
    env.ctxs = {}
    env.prepared = [_prepare(env, req) for req in stream]
    t3 = time.perf_counter()
    env.times = {"load_s": t2 - t1, "setup_s": t3 - t0}
    return env


def _param(env, w):
    p = env.params.get(w)
    if p is None:
        p = env.params[w] = env.m.omega.OmegaParam(w)
    return p


def _ctx(env, w):
    ctx = env.ctxs.get(w)
    if ctx is None:
        ctx = env.ctxs[w] = env.m.hypgamma.GammaContext(
            _param(env, w), cfg=env.conn_cfg)
    return ctx


def _prepare(env, req):
    """Parse one request into package objects."""
    words = env.m.words
    out = dict(req)
    kind = req["kind"]
    if "omega" in req:
        out["p"] = _param(env, req["omega"])
    if kind in CONN_KINDS:
        out["ctx"] = _ctx(env, req["omega"])
    if kind in ("algebra", "product"):
        out["m"] = [words.parse_amonomial(s) for s in req["pair"]]
    elif kind == "duality":
        out["m"] = words.parse_amonomial(req["mono"])
    elif kind in ("zeta", "zeta_dual", "ohno"):
        out["k"] = tuple(req["index"])
    elif kind == "line":
        out["re"] = req["x0"] + req["h"] * np.arange(req["m"])
    elif kind == "point":
        out["z"] = complex(*req["z"])
    elif kind == "initial":
        out["op"] = env.m.ohno.OhnoParams(lam=complex(*req["lam"]),
                                          mu=complex(*req["mu"]))
    elif kind == "saal":
        out["u"] = [complex(*u) for u in req["u"]]
    return out


# ---------------------------------------------------------------------------
# Layer calls

def finite(z):
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


class Calls:
    """Span-wrapped calls into the layers, plus exact counts."""

    def __init__(self, env, tr):
        self.env = env
        self.tr = tr
        self.seen = set()
        self.nodes = 0      # nodes of the results of the current request

    def words(self, sub, fn, *args):
        with self.tr.span("words." + sub):
            out = fn(*args)
        self.tr.count("words.calls")
        terms = getattr(out, "t", None)
        if terms is not None:
            self.tr.count("words.terms_out", len(terms))
        return out

    def counted(self, res, depth, layer):
        """Count one returned EvalResult: for a fresh (not memo, not
        store) chain result its nodes and the MACs of its fine plus
        step-doubled convolution passes."""
        tr = self.tr
        nodes = res.meta.get("nodes")
        self.nodes += nodes or 0
        if id(res) in self.seen:
            return
        self.seen.add(id(res))
        if not finite(res.value) or not math.isfinite(res.err_estimate):
            tr.count("quad.fail")
        if nodes is None or res.meta.get("cached"):
            return
        if layer == "omega":
            tr.count("quad.nodes", nodes)
            tr.count("quad.conv_macs",
                     (depth - 1) * nodes * (2 * nodes - 1) * 5 // 4)
        else:
            tr.count("ohno.nodes", nodes)

    def omega(self, depth, fn, *args, **kw):
        try:
            with self.tr.span("omega.d%d" % depth):
                res = fn(*args, **kw)
        except self.env.m.quad.QuadError:
            self.tr.count("quad.fail")
            raise
        self.counted(res, depth, "omega")
        return res

    def ohno(self, fn, *args):
        try:
            with self.tr.span("ohno"):
                out = fn(*args)
        except self.env.m.quad.QuadError:
            self.tr.count("quad.fail")
            raise
        self.tr.count("ohno.calls")
        return out

    def hypgamma(self, fn, z, *args):
        try:
            with self.tr.span("hypgamma"):
                out = fn(z, *args)
        except self.env.m.quad.QuadError:
            self.tr.count("quad.fail")
            raise
        self.tr.count("hypgamma.points", np.size(z))
        return out

    # -- requests ----------------------------------------------------------

    def mono_value(self, mono, p):
        om = self.env.m.omega
        return self.omega(len(mono.blocks()), om.Z_omega_monomial, mono, p,
                          self.env.cfg)

    def poly_value(self, apoly, p):
        """Z_w of an A-polynomial, one monomial at a time so that each
        chain result is counted; errors add as in omzv.Z_omega."""
        total, err = 0.0 + 0.0j, 0.0
        for mono, coeff in apoly.t.items():
            c = coeff.eval(p.hbar_value)
            r = self.mono_value(mono, p)
            total += c * r.value
            err += abs(c) * r.err_estimate
        return total, err

    def zeta(self, k, p):
        return self.omega(len(k), self.env.m.omega.zeta_omega, k, p,
                          self.env.cfg)


def _ev(res):
    return (complex(res.value), float(res.err_estimate))


def execute(calls, req):
    """Run one request; returns its record (values and error estimates
    only; checks happen in `gate`)."""
    env = calls.env
    m = env.m
    kind = req["kind"]
    W = m.words
    rec = {"kind": kind}
    if kind == "algebra":
        m1, m2 = req["m"]
        a1 = calls.words("convert", W.APoly.monomial, m1)
        a2 = calls.words("convert", W.APoly.monomial, m2)
        h1 = calls.words("convert", m1.to_hpoly)
        h2 = calls.words("convert", m2.to_hpoly)
        res = calls.words("satoh", W.satoh_residual, a1, a2)
        rec["exact"] = {
            "satoh-zero": res.is_zero(),
            "sigma-involution": all(
                calls.words("sigma", W.sigma, calls.words("sigma", W.sigma, h))
                == h for h in (h1, h2)),
            "shuffle-commutative":
                calls.words("product", W.shuffle, h1, h2)
                == calls.words("product", W.shuffle, h2, h1),
            "harmonic-commutative":
                calls.words("product", W.harmonic, a1, a2)
                == calls.words("product", W.harmonic, a2, a1),
        }
        rec["values"] = []
    elif kind == "zeta":
        rec["evals"] = [_ev(calls.zeta(req["k"], req["p"]))]
    elif kind == "product":
        p = req["p"]
        m1, m2 = req["m"]
        z1 = _ev(calls.mono_value(m1, p))
        z2 = _ev(calls.mono_value(m2, p))
        h1 = calls.words("convert", m1.to_hpoly)
        h2 = calls.words("convert", m2.to_hpoly)
        sh = calls.words("product", W.APoly.from_hpoly,
                         calls.words("product", W.shuffle, h1, h2))
        ha = calls.words("product", W.harmonic,
                         calls.words("convert", W.APoly.monomial, m1),
                         calls.words("convert", W.APoly.monomial, m2))
        rec["evals"] = [z1, z2, calls.poly_value(sh, p),
                        calls.poly_value(ha, p)]
    elif kind == "duality":
        p = req["p"]
        dual = calls.words("sigma", W.sigma_monomial, req["m"])
        rec["evals"] = [_ev(calls.mono_value(req["m"], p)),
                        _ev(calls.mono_value(dual, p))]
    elif kind == "zeta_dual":
        p = req["p"]
        dual = calls.words("sigma", W.dual_index, req["k"])
        rec["evals"] = [_ev(calls.zeta(req["k"], p)),
                        _ev(calls.zeta(dual, p))]
    elif kind == "ohno":
        table = calls.ohno(m.ohno.ohno_table, req["k"], req["order"],
                           req["p"], env.cfg)
        rec["evals"] = [(table.coeffs[c], table.errs[c])
                        for c in table.cells()]
    elif kind == "line":
        vals = calls.hypgamma(m.hypgamma.log_G_line, req["re"], req["im"],
                              req["ctx"])
        rec["values"] = [complex(v) for v in vals]
    elif kind == "point":
        rec["values"] = [complex(calls.hypgamma(m.hypgamma.log_G, req["z"],
                                                req["ctx"]))]
    elif kind == "initial":
        lhs, rhs = calls.ohno(m.ohno.initial_relation, tuple(req["k"]),
                              req["op"], req["ctx"])
        calls.counted(lhs, 0, "ohno")
        rec["evals"] = [_ev(lhs), _ev(rhs)]
    elif kind == "saal":
        lhs, rhs = calls.ohno(m.ohno.saalschutz_check, *req["u"], req["ctx"])
        calls.counted(lhs, 0, "ohno")
        rec["evals"] = [_ev(lhs)]
        rec["rhs"] = complex(rhs)
    else:
        raise ValueError("unknown request kind %r" % kind)
    if "evals" in rec:
        rec["values"] = [v for v, _ in rec["evals"]]
    return rec


def run_request(calls, req):
    """execute() with failures turned into a record instead of raised."""
    calls.nodes = 0
    try:
        rec = execute(calls, req)
    except Exception as exc:   # any failure is a failed request
        rec = {"kind": req["kind"], "values": [],
               "error": "%s: %s" % (type(exc).__name__, exc)}
    rec["nodes"] = calls.nodes
    return rec


# ---------------------------------------------------------------------------
# Correctness gate

def worst(values):
    """max() that never lets NaN drop out: any NaN gives NaN."""
    out = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        out = max(out, v)
    return out


def within(residual, tol):
    """residual <= tol, False on NaN."""
    return bool(residual <= tol)


def exceeds(err, tol):
    """err > tol, True on NaN (an estimate that is not a number bounds
    nothing)."""
    return not err <= tol


def tolerance(cfg, value):
    """The accuracy a request asked for at its value."""
    return max(cfg.abs_tol, cfg.rel_tol * abs(value))


class Verdict:
    """Outcome of the gate for one request, with the node count and
    error estimates it was judged on."""

    def __init__(self, rec):
        self.nodes = rec.get("nodes", 0)
        self.errs = [e for _, e in rec.get("evals", ())]
        self.failed = False
        self.oracle = False
        self.dishonest = False
        self.tol_miss = False
        self.exact_wrong = False
        self.notes = []

    def fail(self, note):
        self.failed = True
        self.notes.append(note)


def _identity(v, a, b, name):
    """Check a ~ b for two (value, err) pairs: pass within the verify
    suites' tolerance; dishonest when the residual exceeds the combined
    estimate."""
    res = abs(a[0] - b[0])
    comb = a[1] + b[1]
    if not within(res, max(IDENTITY_FLOOR, 5.0 * comb)):
        v.fail("%s residual %.3g vs combined err %.3g" % (name, res, comb))
    v.oracle = True
    if exceeds(res, comb):
        v.dishonest = True


def _oracle(v, ev, ref, ref_err, name):
    v.oracle = True
    if exceeds(abs(ev[0] - ref), ev[1] + ref_err):
        v.dishonest = True
        v.notes.append("%s: |value - oracle| %.3g > err %.3g"
                       % (name, abs(ev[0] - ref), ev[1]))


def _gamma_checks(v, env, ctx, zs, vals, w):
    """Reflection and both shift equations at the given points."""
    lg = env.m.hypgamma.log_G
    worst_d = []
    for z, val in zip(zs, vals):
        worst_d.append(abs(np.exp(val + lg(-z, ctx)) - 1.0))
        rhs = -2j * np.sinh(math.pi * w * z + 1j * math.pi * (1.0 - w) / 2)
        worst_d.append(abs(np.exp(val - lg(z - 1j, ctx)) / rhs - 1.0))
        rhs = -2j * np.sinh(math.pi * z + 1j * math.pi * (1.0 - 1.0 / w) / 2)
        worst_d.append(abs(np.exp(val - lg(z - 1j / w, ctx)) / rhs - 1.0))
    d = worst(worst_d)
    if not within(d, GAMMA_EXACT):
        v.fail("functional equations residual %.3g" % d)


def gate(env, prepared, recs):
    """Check every record; returns one Verdict per request.  Runs with
    the store uninstalled and memos cleared afterwards.  A check that
    raises fails its request: it must not pass by not running."""
    env.m.cache.install(None)
    seen = set()      # (kind, omega) pairs already checked against mpmath
    out = []
    for req, rec in zip(prepared, recs):
        v = Verdict(rec)
        out.append(v)
        if "error" in rec:
            v.fail(rec["error"])
            continue
        try:
            _check(v, env, req, rec, seen)
        except Exception as exc:   # any failure of a check fails it
            v.fail("check raised %s: %s" % (type(exc).__name__, exc))
    env.m.omega.clear_value_cache()
    env.m.ohno.clear_connector_cache()
    return out


def _check(v, env, req, rec, seen):
    m = env.m
    kind = rec["kind"]
    cfg = env.conn_cfg if "ctx" in req else env.cfg
    if kind == "algebra":
        for name, ok in rec["exact"].items():
            if not ok:
                v.fail(name)
                v.exact_wrong = True
        return
    if not all(finite(x) for x in rec["values"]) or not all(
            math.isfinite(e) for _, e in rec.get("evals", ())):
        v.fail("non-finite value or error estimate")
    for val, err in rec.get("evals", ()):
        if exceeds(err, tolerance(cfg, val)):
            v.tol_miss = True
    if v.failed:
        return
    p = req.get("p")
    w = req.get("omega")
    if kind == "zeta":
        k = req["k"]
        ev = rec["evals"][0]
        if len(k) == 1 and (kind, w) not in seen:
            seen.add((kind, w))
            _oracle(v, ev, oracles.zeta_depth1(k[0], w), 1e-25, "mpmath")
        elif len(k) <= E_WORD_MAX_DEPTH:
            ref = m.omega.Z_omega(m.words.index_to_e_word(k), p, env.cfg)
            _oracle(v, ev, complex(ref.value), ref.err_estimate,
                    "e-word route")
    elif kind == "product":
        z1, z2, sh, ha = rec["evals"]
        prod = (z1[0] * z2[0], abs(z1[0]) * z2[1] + abs(z2[0]) * z1[1]
                + z1[1] * z2[1])
        _identity(v, sh, prod, "shuffle")
        _identity(v, ha, prod, "harmonic")
        _identity(v, sh, ha, "double shuffle")
    elif kind in ("duality", "zeta_dual"):
        a, b = rec["evals"]
        _identity(v, a, b, kind)
        mono = req.get("m")
        if mono is not None and len(mono) <= DIRECT_MAX_LETTERS:
            ref = m.omega.Z_omega_monomial(mono, p, env.cfg, "direct")
            _oracle(v, a, complex(ref.value), ref.err_estimate,
                    "direct route")
    elif kind in ("initial", "saal"):
        lhs = rec["evals"][0]
        rhs = rec["evals"][1] if kind != "saal" else (rec["rhs"], 0.0)
        rel = abs(lhs[0] - rhs[0]) / max(abs(rhs[0]), 1e-300)
        lim = SAAL_REL if kind == "saal" else RELATION_REL
        if not within(rel, lim):
            v.fail("%s relative residual %.3g" % (kind, rel))
        v.oracle = True
        if exceeds(abs(lhs[0] - rhs[0]), lhs[1] + rhs[1]):
            v.dishonest = True
    elif kind in ("line", "point"):
        if kind == "line":
            idx = [min(int(f * req["m"]), req["m"] - 1)
                   for f in LINE_SAMPLES]
            zs = [complex(req["re"][i], req["im"]) for i in idx]
            vals = [rec["values"][i] for i in idx]
        else:
            zs, vals = [req["z"]], rec["values"]
        _gamma_checks(v, env, req["ctx"], zs, vals, w)
        if kind == "point" and (kind, w) not in seen:
            seen.add((kind, w))
            d = abs(vals[0] - oracles.log_G(zs[0], w))
            if not within(d, GAMMA_EXACT):
                v.fail("mpmath strip integral differs by %.3g" % d)
