"""Connector block: deformation tables, generating function, transport,
Saalschutz, and the connected-sum expansion."""

import cmath
import inspect
import itertools
import math

import pytest

from omzv import (EvalResult, GammaContext, OhnoParams, OhnoTable,
                  OmegaParam, QuadConfig, QuadError, compositions, d_norm,
                  double_ohno_sum, dual_index, initial_relation,
                  ohno_generating, ohno_series, ohno_table, omega_Omega,
                  saalschutz_check, transport_relation, zeta_omega)
from omzv.ncseries import XSeries, tau
from omzv.ohno import clear_connector_cache, connected_integral
from omzv.omega import contour_offset
from omzv.verify import saalschutz_points

import expansion
from expansion import connected_expansion


def test_compositions():
    assert compositions(3, 2) == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert compositions(0, 2) == ((0, 0),)
    assert compositions(2, 1) == ((2,),)


def test_table_base_cell_is_zeta(p1, fast_cfg):
    tbl = ohno_table((2,), 1, p1, fast_cfg)
    z = zeta_omega((2,), p1, fast_cfg)
    assert abs(tbl[0, 0].value - z.value) < 1e-8
    assert (1, 1) not in tbl
    assert double_ohno_sum((2,), 0, 0, p1, fast_cfg).value == pytest.approx(
        tbl[0, 0].value, abs=1e-12)


def test_row_duality(p1, fast_cfg):
    k = (3,)
    kd = dual_index(k)
    for m in range(3):
        a = double_ohno_sum(k, m, 0, p1, fast_cfg)
        b = double_ohno_sum(kd, m, 0, p1, fast_cfg)
        assert abs(a.value - b.value) <= max(
            1e-6, 5.0 * (a.err_estimate + b.err_estimate))


def test_generating_at_origin_is_zeta(p1, fast_cfg):
    g = ohno_generating((2,), OhnoParams(0.0, 0.0), p1, fast_cfg)
    z = zeta_omega((2,), p1, fast_cfg)
    assert abs(g.value - z.value) <= max(1e-9, g.err_estimate
                                         + z.err_estimate)


@pytest.mark.parametrize("k", [(2,), (3,)])
def test_generating_contour_at_small_omega(k):
    """At omega < 1/(2r) the default contour offset 1/(4 r omega) passed
    1/2, so the line came within 1 - eps of the measure pole at -1 on a
    grid sized for the distance eps: at omega = 0.3 the values were off
    by 1.5e-5 and 1.7e-5.  At the origin O(k) is zeta_w(k), for k = (2,)
    the closed form (pi^2/6)(1 - w^2) - i pi w."""
    p = OmegaParam(0.3)
    cfg = QuadConfig(rel_tol=1e-13, abs_tol=1e-13)
    g = ohno_generating(k, OhnoParams(), p, cfg)
    if k == (2,):
        ref = math.pi ** 2 / 6.0 * (1.0 - 0.09) - 0.3j * math.pi
    else:
        ref = zeta_omega(k, p, cfg).value
    assert abs(g.value - ref) <= 1e-12
    assert abs(g.value - ref) <= g.err_estimate


def test_generating_matches_series(p1, fast_cfg):
    op = OhnoParams(0.003 + 0.001j, -0.002 + 0.0025j)
    g = ohno_generating((2,), op, p1, fast_cfg)
    s = ohno_series((2,), op, 2, p1, fast_cfg)
    assert abs(g.value - s.value) <= max(1e-9, g.err_estimate
                                         + s.err_estimate)


def test_d_norm_at_origin(ctx1):
    assert d_norm(0.0, 0.0, ctx1) == pytest.approx(1j, rel=1e-12)


def test_initial_relation_point(ctx1, fast_cfg):
    op = OhnoParams(0.013 + 0.004j, -0.009 + 0.007j)
    lhs, rhs = initial_relation((2,), op, ctx1)
    assert abs(lhs.value - rhs.value) / abs(rhs.value) < 1e-4


def test_transport_relation_point(ctx1, fast_cfg):
    op = OhnoParams(0.005 + 0.003j, -0.004 + 0.002j)
    lhs, rhs = transport_relation((1,), (2,), op, ctx1, variant=1)
    assert abs(lhs.value - rhs.value) / abs(rhs.value) < 1e-4


def test_connector_tolerance_is_the_context_one():
    """A connected integral is computed, and memoized, at its context's
    cfg alone: a loose context's value is not served to a tight one.
    When a separate cfg argument set the chains while the context set
    the log G lines, and the memo key named only the first, a value
    from a context at rel_tol 1e-2 came back for one at 1e-12 and was
    5.3e-7 off with an estimate of 1e-9."""
    p = OmegaParam(1.0)
    loose = GammaContext(p, cfg=QuadConfig(rel_tol=1e-2))
    tight = GammaContext(p, cfg=QuadConfig(rel_tol=1e-7))
    clear_connector_cache()
    a = connected_integral((1,), (1,), OhnoParams(), loose)
    b = connected_integral((1,), (1,), OhnoParams(), tight)
    assert a is not b
    assert a.value != b.value
    want = 1j * zeta_omega((2,), p, QuadConfig(rel_tol=1e-13)).value
    assert abs(b.value - want) <= b.err_estimate


def test_connector_functions_take_no_cfg():
    for fn in (connected_integral, initial_relation, transport_relation,
               saalschutz_check, connected_expansion):
        assert "cfg" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("build", [
    lambda p: ohno_table((2,), -1, p),
    lambda p: ohno_series((2,), OhnoParams(), -1, p),
    lambda p: omega_Omega(XSeries.word("yxx"), -1, p),
], ids=["ohno_table", "ohno_series", "omega_Omega"])
def test_negative_order_is_rejected(p1, build):
    with pytest.raises(ValueError, match="order must be >= 0"):
        build(p1)


def test_connected_expansion_checks_its_order_first(ctx1, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("connected_integral evaluated")

    monkeypatch.setattr(expansion, "connected_integral", fail)
    for order in (-1, 3):
        with pytest.raises(ValueError, match="order must be >= 0"):
            connected_expansion((1,), (1,), order, ctx1)


def test_table_diff_counts_a_missing_cell_as_zero():
    a = OhnoTable({(0, 0): EvalResult(1.0, 0.0), (1, 0): EvalResult(2j, 0.0)})
    b = OhnoTable({(0, 0): EvalResult(1.5, 0.0), (0, 1): EvalResult(3.0, 0.0)})
    assert a.max_abs_diff(b) == b.max_abs_diff(a) == 3.0
    assert a.coeffs == {(0, 0): 1.0, (1, 0): 2j}
    assert b.errs == {(0, 0): 0.0, (0, 1): 0.0}
    assert a.cells() == [(0, 0), (1, 0)]


def test_connected_sum_is_symmetric_in_lam_mu(ctx1, fast_cfg):
    a = connected_integral((1,), (1,), OhnoParams(0.004 + 0.002j,
                                                  -0.003 + 0.005j), ctx1)
    b = connected_integral((1,), (1,), OhnoParams(-0.003 + 0.005j,
                                                  0.004 + 0.002j), ctx1)
    assert abs(a.value - b.value) <= max(
        1e-6, 5.0 * (a.err_estimate + b.err_estimate))


def test_connected_integral_symmetric_in_chains(ctx1, fast_cfg):
    """The Theta coupling is symmetric in the two chain points, so
    exchanging the chains leaves the connected integral unchanged."""
    op = OhnoParams(0.004 + 0.002j, -0.003 + 0.005j)
    a = connected_integral((2,), (1,), op, ctx1)
    b = connected_integral((1,), (2,), op, ctx1)
    assert abs(a.value - b.value) <= 1e-12 * abs(a.value)


def test_connected_sum_at_origin(ctx1, fast_cfg, p1):
    res = connected_integral((1,), (1,), OhnoParams(), ctx1)
    want = 1j * zeta_omega((2,), p1, fast_cfg).value
    assert abs(res.value - want) / abs(want) < 1e-6


@pytest.mark.parametrize("point", [0, 1, 2])
@pytest.mark.parametrize("omega", [0.05, 0.3, 0.6, 1.0, 1.4, 1.8, 1.9])
def test_saalschutz_point(fast_cfg, omega, point):
    """The trapezoid line integral meets the closed product to rounding,
    and its error estimate bounds the difference."""
    ctx = GammaContext(OmegaParam(omega), cfg=fast_cfg)
    us = saalschutz_points(ctx.omega_bar)[point]
    lhs, rhs = saalschutz_check(*us, ctx)
    assert abs(lhs.value - rhs) / abs(rhs) <= 1e-12
    assert abs(lhs.value - rhs) <= lhs.err_estimate


def test_saalschutz_region_guards(ctx1, fast_cfg):
    ob = ctx1.omega_bar
    with pytest.raises(QuadError):
        saalschutz_check(0.2, 0.3, 0.1, 0.15, ctx1)
    with pytest.raises(QuadError):
        saalschutz_check(0.2 + 1.2j * ob, -0.15 + 0.7j * ob,
                         -0.05 + 0.8j * ob, 0.12 + 0.78j * ob, ctx1)


def test_connected_integral_region_guards(ctx1, fast_cfg):
    with pytest.raises(QuadError):
        connected_integral((1,), (1,), OhnoParams(0.9, 0.0), ctx1)
    with pytest.raises(QuadError):
        connected_integral((1,), (1,), OhnoParams(0.001, 0.002), ctx1,
                           eps=0.9)


def test_generating_function_refusals(fast_cfg):
    """ohno_generating refuses an offset outside (0, 1/(2rw)), a point
    outside the series radius eps/(3 pi), and a contour whose pole
    distance is at most eps/10 (at w = 0.3 the bound 1/(2w) lets eps
    reach 0.95, a distance 1 - eps from the measure poles)."""
    p = OmegaParam(0.3)
    for eps in (0.0, 1.0 / 0.6, 2.0):
        with pytest.raises(QuadError, match="contour shift outside"):
            ohno_generating((2,), OhnoParams(), p, fast_cfg, eps=eps)
    with pytest.raises(QuadError, match="outside the series region"):
        ohno_generating((2,), OhnoParams(0.02, 0.0), p, fast_cfg, eps=0.15)
    with pytest.raises(QuadError, match="too close to a kernel pole") as exc:
        ohno_generating((2,), OhnoParams(), p, fast_cfg, eps=0.95)
    assert exc.value.detail["dist"] <= 0.095


def test_series_truncation_refusal(p1, fast_cfg):
    """A point whose hatted variables reach 1/8 leaves no geometric bound
    on the dropped tail."""
    with pytest.raises(QuadError, match="too large for series truncation"):
        ohno_series((2,), OhnoParams(0.2, 0.01), 0, p1, fast_cfg)


def test_connector_pole_refusal(ctx1):
    """lam = mu = 0.99 eps pass the holomorphy guard, but their sum moves
    the sum line's pole across the contour."""
    eps = contour_offset(1.0, 2, "connector")[0]
    with pytest.raises(QuadError, match="too close to a kernel pole") as exc:
        connected_integral((1,), (1,), OhnoParams(0.99 * eps, 0.99 * eps),
                           ctx1)
    assert exc.value.detail["dist"] <= 1e-3


def test_transport_relation_has_two_variants(ctx1):
    with pytest.raises(ValueError, match="variant must be 1 or 2"):
        transport_relation((2,), (1,), OhnoParams(), ctx1, variant=3)


def test_connected_integral_rejects_non_integral_entries(ctx1):
    """An entry is an integer >= 1, checked before any quadrature: (2.7,)
    used to be read as (2,)."""
    for k, l in (((2.7,), (1,)), ((1,), (1, 2.5)), ((0,), (1,)), ((), (1,)),
                 ((1,), ("2",))):
        with pytest.raises(ValueError):
            connected_integral(k, l, OhnoParams(), ctx1)
    assert connected_integral((2.0,), (1,), OhnoParams(), ctx1) is \
        connected_integral((2,), (1,), OhnoParams(), ctx1)


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.4, 1.9])
def test_contour_offset_does_not_move_values(fast_cfg, omega):
    """By Cauchy the integrals do not depend on the offset inside the
    pole-free region: the default offsets and the earlier ones, half the
    connector bound and min(1/2, 1/(4 r w)), agree within the two
    estimates."""
    ctx = GammaContext(OmegaParam(omega), cfg=fast_cfg)
    op = OhnoParams(0.004 + 0.002j, -0.003 + 0.003j)
    old = min(1.0, 1.0 / omega) / 8.0
    a = connected_integral((2,), (1,), op, ctx)
    b = connected_integral((2,), (1,), op, ctx, eps=old)
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate
    assert a.meta["nodes"] < b.meta["nodes"]
    a = ohno_generating((1, 2), op, ctx.p, fast_cfg)
    b = ohno_generating((1, 2), op, ctx.p, fast_cfg,
                        eps=min(0.5, 1.0 / (8.0 * omega)))
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k, l, omega, share", [((1, 2), (1,), 1.9, 0.5),
                                                ((1, 2), (1,), 1.99, 0.5),
                                                ((2,), (1,), 1.4, 0.25)])
def test_connector_below_default_offset(fast_cfg, k, l, omega, share):
    """Below the default offset the lines reach further into Im T, where
    |Re 2 pi i w T| passes the exponent range: at these offsets the
    power kernel of the last entry overflowed before every kernel took
    its factors from `geometric_factor`."""
    ctx = GammaContext(OmegaParam(omega), cfg=fast_cfg)
    eps = share * contour_offset(omega, len(k) + len(l), "connector")[1]
    a = connected_integral(k, l, OhnoParams(), ctx)
    b = connected_integral(k, l, OhnoParams(), ctx, eps=eps)
    assert abs(a.value - b.value) <= a.err_estimate + b.err_estimate


def test_connector_node_bound(fast_cfg):
    """A connected integral of total depth 2 at w = 0.6, with a
    deformation point of the size the suites use, took 9,119 nodes at
    half its offset bound (3,365 at 0.9 of it)."""
    ctx = GammaContext(OmegaParam(0.6), cfg=fast_cfg)
    res = connected_integral((1,), (1,), OhnoParams(0.008 - 0.003j,
                                                    -0.004 + 0.006j), ctx)
    assert res.meta["nodes"] <= 4000


def test_connector_chain_depth_budget(ctx1):
    """A connector chain longer than quad._MAX_DIM raises like any other
    chain: every chain grid checks the depth."""
    with pytest.raises(QuadError, match="dimension above the supported"):
        connected_integral((1,) * 8 + (2,), (1,), OhnoParams(), ctx1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_theta_overflow_is_a_quad_error(fast_cfg):
    """At w = 0.05 the Theta factors exceed the float range: the
    integral raises QuadError instead of overflowing to NaN."""
    ctx = GammaContext(OmegaParam(0.05), cfg=fast_cfg)
    try:
        res = connected_integral((1,), (1,), OhnoParams(), ctx)
    except QuadError:
        return
    assert cmath.isfinite(res.value) and math.isfinite(res.err_estimate)


def test_connected_expansion_matches_table(ctx1, fast_cfg, p1):
    exp_tbl = connected_expansion((1,), (1,), 1, ctx1)
    tbl = ohno_table((2,), 1, p1, fast_cfg)
    combined = sum(exp_tbl.errs.values()) + sum(tbl.errs.values())
    assert exp_tbl.max_abs_diff(tbl) <= max(1e-6, 5.0 * combined)


SHORT_WORDS = ["".join(t) for n in range(4)
               for t in itertools.product("xy", repeat=n)]


@pytest.mark.parametrize("w", SHORT_WORDS)
@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_omega_table_respects_tau(omega, w):
    """Omega(y w x) = Omega(y tau(w) x) for every word of length <= 3,
    within the tables' combined error estimates.  Cells reach 1.2e4 at
    omega = 1.4, so a 1e-7 difference needs values to about 1e-12."""
    p = OmegaParam(omega)
    cfg = QuadConfig(rel_tol=1e-12, abs_tol=1e-12)
    x, y, ws = XSeries.word("x"), XSeries.word("y"), XSeries.word(w)
    ta = omega_Omega(y * ws * x, 2, p, cfg)
    tb = omega_Omega(y * tau(ws, 2) * x, 2, p, cfg)
    diff = ta.max_abs_diff(tb)
    assert diff <= 1e-7
    assert diff <= sum(ta.errs.values()) + sum(tb.errs.values())


@pytest.mark.parametrize("cell", [(0, 0), (1, 0), (0, 2)])
def test_table_diff_keeps_nan(cell):
    """A NaN cell anywhere in the triangle makes the largest difference
    NaN, so no check can pass on it."""
    triangle = [(m, n) for m in range(3) for n in range(3 - m)]
    a = OhnoTable({(m, n): EvalResult(1.0 + m + 2j * n, 0.0)
                   for m, n in triangle})
    b = OhnoTable({(m, n): EvalResult(1.5 + m + 2j * n, 0.0)
                   for m, n in triangle})
    b[cell] = EvalResult(complex(math.nan, 0.0), 0.0)
    assert math.isnan(a.max_abs_diff(b))
