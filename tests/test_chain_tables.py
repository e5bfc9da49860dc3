"""Kernel tables: each kernel of a chain is evaluated once per integral,
on the fine grid, and the step-doubled pass and later stages reuse those
values.  The evaluate-per-pass chain is kept here as the reference that
the tables must match bit for bit."""

import math

import numpy as np
import pytest

from omzv import (GammaContext, OhnoParams, OmegaParam, QuadConfig,
                  Z_omega_monomial, connected_integral, ohno, omega,
                  ohno_generating, parse_amonomial, quad, zeta_omega)
from omzv.omega import clear_value_cache
from omzv.quad import ChainStage, chain_line_integral, measure_kernel

TWO_PI = 2.0 * math.pi
FAST = QuadConfig(rel_tol=1e-7, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# The evaluate-per-pass chain: every kernel called again at every stage
# and on the step-doubled grid.

def reference_chain_pass(stages, eps, h, ys):
    n = len(ys)
    ydiff = h * np.arange(-(n - 1), n)
    chi = None
    for a, st in enumerate(stages, start=1):
        line = (-a * eps) + 1j * ys
        if chi is None:
            dline = (-eps) + 1j * ys
            chi = st.diff(dline) if st.diff else measure_kernel(dline)
        else:
            dgrid = (-eps) + 1j * ydiff
            dvals = st.diff(dgrid) if st.diff else measure_kernel(dgrid)
            chi = h * quad._tilted_convolve(chi, dvals, n - 1, 2 * n - 1)
        if st.cum is not None:
            chi = chi * st.cum(line)
    return chi


def reference_chain_line_integral(stages, eps, cfg=None, *, decay,
                                  pole_dist=None, prefactor=1.0, freq=0.0):
    cfg = cfg or quad.DEFAULT_CONFIG
    r = len(stages)
    dm, dp = float(decay[0]), float(decay[1])
    h, ys = quad._chain_grid(eps, cfg, (dm, dp), r, pole_dist, freq)
    chi = reference_chain_pass(stages, eps, h, ys)
    value = complex(prefactor) * (1j ** r) * h * chi.sum()
    tail = abs(prefactor) * (abs(chi[0]) / dm + abs(chi[-1]) / dp)
    chi_c = reference_chain_pass(stages, eps, 2 * h, ys[::2])
    value_c = complex(prefactor) * (1j ** r) * (2 * h) * chi_c.sum()
    err = abs(value - value_c) + tail + cfg.abs_tol
    return quad.EvalResult(value, err, {"nodes": len(ys)})


def reference_connected_integral(k, l, op, ctx, cfg, eps):
    p = ctx.p
    r, s = len(k), len(l)
    lam, mu = complex(op.lam), complex(op.mu)
    h, ys, dp = ohno._connector_grid(eps, cfg, p, r, s,
                                     ohno._shift_margin(lam, mu))
    stages_t = ohno._prefix_stages(k, lam, mu, p)
    stages_u = ohno._prefix_stages(l, lam, mu, p)
    pref = p.hbar_value ** (sum(k) + sum(l))
    fine, tail = ohno._theta_value(
        ctx, cfg, p, r, s, lam, mu, eps, h, ys,
        reference_chain_pass(stages_t, eps, h, ys),
        reference_chain_pass(stages_u, eps, h, ys), dp)
    coarse, _ = ohno._theta_value(
        ctx, cfg, p, r, s, lam, mu, eps, 2 * h, ys[::2],
        reference_chain_pass(stages_t, eps, 2 * h, ys[::2]),
        reference_chain_pass(stages_u, eps, 2 * h, ys[::2]), dp)
    err = abs(pref) * (abs(fine - coarse) + tail) + cfg.abs_tol
    return quad.EvalResult(pref * fine, err)


def bits(res):
    z = complex(res.value)
    return (z.real.hex(), z.imag.hex(), float(res.err_estimate).hex())


def fresh_and_reference(monkeypatch, module, fn):
    """fn() with the kernel tables and with the evaluate-per-pass
    chain_line_integral patched into `module`, each on a cold memo."""
    clear_value_cache()
    got = fn()
    with monkeypatch.context() as m:
        m.setattr(module, "chain_line_integral",
                  reference_chain_line_integral)
        clear_value_cache()
        ref = fn()
    clear_value_cache()
    return got, ref


ZETAS = [(3,), (1, 2), (2, 1, 2), (1, 1, 1, 3), (1, 2, 1, 1, 2),
         (1, 1, 1, 1, 1, 2)]


@pytest.mark.parametrize("w", [0.3, 1.0, 1.4])
@pytest.mark.parametrize("k", ZETAS, ids=lambda k: "d%d" % len(k))
def test_zeta_matches_evaluate_per_pass(monkeypatch, w, k):
    p = OmegaParam(w)
    got, ref = fresh_and_reference(monkeypatch, omega,
                                   lambda: zeta_omega(k, p))
    assert bits(got) == bits(ref)


@pytest.mark.parametrize("w", [0.6, 1.4])
@pytest.mark.parametrize("text", ["E G1", "E E G2 G1", "E G1 E G2",
                                  "G2 E G1 E E G1"])
def test_reduced_monomial_matches_evaluate_per_pass(monkeypatch, w, text):
    """E blocks give binomial diff kernels, one per block length and
    shared by the blocks of that length, next to measure-kernel stages."""
    mono = parse_amonomial(text)
    p = OmegaParam(w)
    got, ref = fresh_and_reference(
        monkeypatch, omega, lambda: Z_omega_monomial(mono, p, FAST))
    assert bits(got) == bits(ref)


@pytest.mark.parametrize("k", [(2,), (1, 3), (2, 1, 2)])
def test_ohno_generating_matches_evaluate_per_pass(monkeypatch, k):
    op = OhnoParams(lam=0.001 + 0.0005j, mu=-0.0007j)
    p = OmegaParam(0.8)
    got, ref = fresh_and_reference(
        monkeypatch, ohno, lambda: ohno_generating(k, op, p, FAST))
    assert bits(got) == bits(ref)


@pytest.mark.parametrize("k, l", [((2,), (1,)), ((1, 2), (1,)),
                                  ((2,), (1, 2)), ((1, 2), (2, 1))])
def test_connected_integral_matches_evaluate_per_pass(k, l):
    """Both J chains share one measure table; depth-1 chains share its
    slice, or their one line evaluation."""
    ctx = GammaContext(OmegaParam(1.2), cfg=FAST)
    op = OhnoParams(lam=0.002j, mu=0.001)
    eps = min(1.0, 1.0 / 1.2) / (2.0 * (len(k) + len(l) + 2))
    clear_value_cache()
    got = connected_integral(k, l, op, ctx, FAST, eps=eps)
    clear_value_cache()
    ref = reference_connected_integral(k, l, op, ctx, FAST, eps)
    assert bits(got) == bits(ref)


# ---------------------------------------------------------------------------
# Each kernel once per integral

def counted(fn, calls, name):
    def wrapper(z):
        calls[name] = calls.get(name, 0) + 1
        return fn(z)
    return wrapper


def test_each_kernel_is_evaluated_once(monkeypatch, cfg):
    """Depth 4: the measure kernel serves stages 1 and 3 (stage 1 as a
    slice of the difference table), one diff kernel stages 2 and 4; the
    step-doubled pass calls nothing again."""
    calls = {}
    plain = measure_kernel
    monkeypatch.setattr(quad, "measure_kernel",
                        counted(plain, calls, "measure"))
    tilted = counted(lambda z: np.exp(0.25j * z) * plain(z), calls, "diff")
    stages = [ChainStage(cum=counted(lambda t, a=a: np.exp(0.1j * a * t),
                                     calls, "cum%d" % a),
                         diff=tilted if a % 2 == 0 else None)
              for a in range(1, 5)]
    for _ in range(2):
        calls.clear()
        res = chain_line_integral(stages, 0.05, cfg, decay=(TWO_PI, 0.1))
        assert math.isfinite(res.err_estimate)
        assert calls == {"measure": 1, "diff": 1, "cum1": 1, "cum2": 1,
                         "cum3": 1, "cum4": 1}


def test_depth1_evaluates_its_line_only(cfg):
    sizes = []

    def kernel(z):
        sizes.append(len(z))
        return measure_kernel(z)

    res = chain_line_integral([ChainStage(diff=kernel)], 0.25, cfg,
                              decay=(TWO_PI, TWO_PI))
    assert sizes == [res.meta["nodes"]]


# ---------------------------------------------------------------------------
# Reusable kernel operand

def test_reused_operand_matches_fresh():
    """An operand keeps its hull and the last convolution's tilted FFTs;
    convolving it again gives the fresh operand's output bit for bit,
    whether its tilts repeat (same magnitudes) or move."""
    n = 300
    y = np.linspace(-8.0, 8.0, n)
    yd = np.linspace(-16.0, 16.0, 2 * n - 1)
    table = np.exp(-3.0 * np.abs(yd) + 2.0j * yd) / (1.0 + yd * yd)
    first = np.exp(-6.0 * np.abs(y) + 1j * y) * np.cos(4.0 * y)
    same_tilts = first * np.exp(0.3j * y)
    moved = np.exp(2.0 * y - 0.5j * y * y) * np.exp(-0.2 * y * y)
    op = quad._Operand(table)
    quad._tilted_convolve(first, op, n - 1, 2 * n - 1)
    kept = dict(op.ffts)
    assert kept
    for a in (same_tilts, moved, first):
        got = quad._tilted_convolve(a, op, n - 1, 2 * n - 1)
        fresh = quad._tilted_convolve(a, table, n - 1, 2 * n - 1)
        assert got.tobytes() == fresh.tobytes()
    # the tilts of `first` repeat for `same_tilts`: served from the cache
    quad._tilted_convolve(first, op, n - 1, 2 * n - 1)
    reused = dict(op.ffts)
    quad._tilted_convolve(same_tilts, op, n - 1, 2 * n - 1)
    assert all(op.ffts[k] is reused[k] for k in reused)
