"""Connector block: deformation tables, generating function, transport,
Saalschutz, and the connected-sum expansion."""

import cmath
import itertools
import math

import pytest

from omzv import (GammaContext, OhnoParams, OhnoTable, OmegaParam,
                  QuadError, compositions, d_norm, double_ohno_sum,
                  dual_index, initial_relation, ohno_generating,
                  ohno_series, ohno_table, omega_Omega, saalschutz_check,
                  transport_relation, zeta_omega)
from omzv.ncseries import XSeries, tau
from omzv.ohno import connected_expansion, connected_integral
from omzv.omega import contour_offset
from omzv.verify import saalschutz_points


def test_compositions():
    assert compositions(3, 2) == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert compositions(0, 2) == ((0, 0),)
    assert compositions(2, 1) == ((2,),)


def test_table_base_cell_is_zeta(p1, fast_cfg):
    tbl = ohno_table((2,), 1, p1, fast_cfg)
    z = zeta_omega((2,), p1, fast_cfg)
    assert abs(tbl.get(0, 0) - z.value) < 1e-8
    assert tbl.get(1, 1) == 0j
    assert double_ohno_sum((2,), 0, 0, p1, fast_cfg).value == pytest.approx(
        tbl.get(0, 0), abs=1e-12)


def test_row_duality(p1, fast_cfg):
    k = (3,)
    kd = dual_index(k)
    for m in range(3):
        a = double_ohno_sum(k, m, 0, p1, fast_cfg)
        b = double_ohno_sum(kd, m, 0, p1, fast_cfg)
        assert abs(a.value - b.value) <= max(
            1e-6, 5.0 * (a.err_estimate + b.err_estimate))


def test_generating_at_origin_is_zeta(p1, fast_cfg):
    g = ohno_generating((2,), OhnoParams(0.0, 0.0, order=2), p1, fast_cfg)
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
    g = ohno_generating(k, OhnoParams(), p)
    if k == (2,):
        ref = math.pi ** 2 / 6.0 * (1.0 - 0.09) - 0.3j * math.pi
    else:
        ref = zeta_omega(k, p).value
    assert abs(g.value - ref) <= 1e-12
    assert abs(g.value - ref) <= g.err_estimate


def test_generating_matches_series(p1, fast_cfg):
    op = OhnoParams(0.003 + 0.001j, -0.002 + 0.0025j, order=2)
    g = ohno_generating((2,), op, p1, fast_cfg)
    s = ohno_series((2,), op, p1, fast_cfg)
    assert abs(g.value - s.value) <= max(1e-9, g.err_estimate
                                         + s.err_estimate)


def test_d_norm_at_origin(ctx1):
    assert d_norm(0.0, 0.0, ctx1) == pytest.approx(1j, rel=1e-12)


def test_initial_relation_point(ctx1, fast_cfg):
    op = OhnoParams(0.013 + 0.004j, -0.009 + 0.007j)
    lhs, rhs = initial_relation((2,), op, ctx1, fast_cfg)
    assert abs(lhs.value - rhs.value) / abs(rhs.value) < 1e-4


def test_transport_relation_point(ctx1, fast_cfg):
    op = OhnoParams(0.005 + 0.003j, -0.004 + 0.002j)
    lhs, rhs = transport_relation((1,), (2,), op, ctx1, fast_cfg, variant=1)
    assert abs(lhs.value - rhs.value) / abs(rhs.value) < 1e-4


def test_connected_sum_is_symmetric_in_lam_mu(ctx1, fast_cfg):
    a = connected_integral((1,), (1,), OhnoParams(0.004 + 0.002j,
                                                  -0.003 + 0.005j),
                           ctx1, fast_cfg)
    b = connected_integral((1,), (1,), OhnoParams(-0.003 + 0.005j,
                                                  0.004 + 0.002j),
                           ctx1, fast_cfg)
    assert abs(a.value - b.value) <= max(
        1e-6, 5.0 * (a.err_estimate + b.err_estimate))


def test_connected_integral_symmetric_in_chains(ctx1, fast_cfg):
    """The Theta coupling is symmetric in the two chain points, so
    exchanging the chains leaves the connected integral unchanged."""
    op = OhnoParams(0.004 + 0.002j, -0.003 + 0.005j)
    a = connected_integral((2,), (1,), op, ctx1, fast_cfg)
    b = connected_integral((1,), (2,), op, ctx1, fast_cfg)
    assert abs(a.value - b.value) <= 1e-12 * abs(a.value)


def test_connected_sum_at_origin(ctx1, fast_cfg, p1):
    res = connected_integral((1,), (1,), OhnoParams(), ctx1, fast_cfg)
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
        saalschutz_check(0.2, 0.3, 0.1, 0.15, ctx1, fast_cfg)
    with pytest.raises(QuadError):
        saalschutz_check(0.2 + 1.2j * ob, -0.15 + 0.7j * ob,
                         -0.05 + 0.8j * ob, 0.12 + 0.78j * ob,
                         ctx1, fast_cfg)


def test_connected_integral_region_guards(ctx1, fast_cfg):
    with pytest.raises(QuadError):
        connected_integral((1,), (1,), OhnoParams(0.9, 0.0), ctx1, fast_cfg)
    with pytest.raises(QuadError):
        connected_integral((1,), (1,), OhnoParams(0.001, 0.002), ctx1,
                           fast_cfg, eps=0.9)


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
    exp_tbl = connected_expansion((1,), (1,), 1, ctx1, fast_cfg)
    tbl = ohno_table((2,), 1, p1, fast_cfg)
    combined = sum(exp_tbl.errs.values()) + sum(tbl.errs.values())
    assert exp_tbl.max_abs_diff(tbl) <= max(1e-6, 5.0 * combined)


SHORT_WORDS = ["".join(t) for n in range(4)
               for t in itertools.product("xy", repeat=n)]


@pytest.mark.parametrize("w", SHORT_WORDS)
@pytest.mark.parametrize("omega", [0.6, 1.0, 1.4])
def test_omega_table_respects_tau(omega, w, fast_cfg):
    """Omega(y w x) = Omega(y tau(w) x) for every word of length <= 3,
    within the tables' combined error estimates."""
    p = OmegaParam(omega)
    op = OhnoParams(order=2)
    x, y, ws = XSeries.word("x"), XSeries.word("y"), XSeries.word(w)
    ta = omega_Omega(y * ws * x, op, p, fast_cfg)
    tb = omega_Omega(y * tau(ws, op.order) * x, op, p, fast_cfg)
    diff = ta.max_abs_diff(tb)
    assert diff <= 1e-7
    assert diff <= sum(ta.errs.values()) + sum(tb.errs.values())


@pytest.mark.parametrize("cell", [(0, 0), (1, 0), (0, 2)])
def test_table_diff_keeps_nan(cell):
    """A NaN cell anywhere in the triangle makes the largest difference
    NaN, so no check can pass on it."""
    a, b = OhnoTable(2), OhnoTable(2)
    for m in range(3):
        for n in range(3 - m):
            a.set(m, n, 1.0 + m + 2j * n)
            b.set(m, n, 1.5 + m + 2j * n)
    b.set(*cell, complex(math.nan, 0.0))
    assert math.isnan(a.max_abs_diff(b))
