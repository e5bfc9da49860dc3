"""Verification suites: worst-case batteries never pass on NaN."""

import json
import math
import random

import pytest

from click.testing import CliRunner

from omzv import (AMonomial, APoly, EvalResult, HbarLaurent, OmegaParam,
                  Z_omega, cache, monomials_up_to_weight, verify)
from omzv.cli import _jsonable, cli
from omzv.quad import _worst

# The keys of a report row, in order; `error` follows on a failed value.
REPORT_KEYS = ["name", "anchor", "lhs", "rhs", "residual", "tolerance",
               "pass", "fingerprint", "runtime_s"]


def test_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError):
        verify.run_suite("bogus")


def test_rows_are_the_report():
    """Every row of `all` holds the report's keys in the report's order,
    and `omzv verify limit` prints the rows of `limit` as they are, up
    to each row's runtime_s."""
    rows = verify.run_suite("all", 1.0, max_weight=2)
    assert rows and all(list(r) == REPORT_KEYS for r in rows)
    res = CliRunner().invoke(cli, ["verify", "limit"])
    assert res.exit_code == 0, res.output
    printed = json.loads(res.output)["checks"]
    assert [list(c) for c in printed] == [REPORT_KEYS] * len(printed)

    def timeless(checks):
        return [{k: v for k, v in c.items() if k != "runtime_s"}
                for c in checks]
    assert timeless(printed) == timeless(_jsonable(verify.run_suite("limit")))


def test_a_battery_over_no_cases_fails():
    """At max_weight 1 no triple of monomials fits, so exactly the two
    associativity batteries read no case and fail with a NaN count; a
    max_weight below 1 is refused."""
    rows = verify.run_suite("algebra", 1.0, max_weight=1)
    failed = [r["name"] for r in rows if not r["pass"]]
    assert failed == ["shuffle-associative", "harmonic-associative"]
    assert all(math.isnan(r["residual"]) for r in rows
               if r["name"] in failed)
    with pytest.raises(ValueError, match="max_weight"):
        verify.run_suite("shuffle", 1.0, max_weight=0)


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0],
                                    [1.0, math.nan, 2.0],
                                    [1.0, 2.0, math.nan]])
def test_worst_keeps_nan(values):
    assert math.isnan(_worst(values))
    assert _worst(v for v in values if not math.isnan(v)) == 2.0


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_one_nan_case_fails_the_check(monkeypatch, position):
    """A NaN shuffle value in one pair of the q-series battery, wherever
    the pair falls, fails the checks that read it instead of dropping
    out of their maximum; the harmonic check, which does not, passes."""
    z_q = verify.z_q
    calls = []

    def spy(poly, qp):
        calls.append(poly)
        if len(calls) == target:
            return EvalResult(complex(math.nan, math.nan), 0.0)
        return z_q(poly, qp)

    monkeypatch.setattr(verify, "z_q", spy)
    target = 0
    verify.run_suite("algebra", 1.0, max_weight=2)
    pairs = len(calls) // 2
    index = {"first": 0, "middle": pairs // 2, "last": pairs - 1}[position]
    # z_q is called for the shuffle side, then the harmonic side
    calls.clear()
    target = 2 * index + 1
    records = verify.run_suite("algebra", 1.0, max_weight=2)
    by_name = {r["name"]: r for r in records}
    for name in ("q-shuffle", "q-double-shuffle"):
        assert math.isnan(by_name[name]["residual"])
        assert not by_name[name]["pass"]
    assert by_name["q-harmonic"]["pass"]


def test_satoh_zero_at_weight_5():
    """The double shuffle identity on the full weight-5 battery: every
    unordered pair of the 88 non-empty admissible monomials."""
    mons = verify._monomials(5)
    assert len(mons) * (len(mons) + 1) // 2 == 3916
    records = verify.run_suite("algebra", 1.0, max_weight=5)
    satoh, = [r for r in records if r["name"] == "satoh-zero"]
    assert satoh["pass"] and satoh["residual"] == 0.0


def test_tol_replaces_every_tolerance_but_the_fixed_ones():
    """A run's tol changes only tolerances: the names, both sides and
    the residuals of `all` stay, in order.  Every tolerance becomes tol
    except those of the 16 fixed checks, the exact counts of `algebra`
    and the `limit` steps (0) and final gaps (1)."""
    plain = verify.run_suite("all", 1.0, max_weight=2)
    over = verify.run_suite("all", 1.0, max_weight=2, tol=1e-3)
    sides = ("name", "lhs", "rhs", "residual")
    assert ([[r[k] for k in sides] for r in over]
            == [[r[k] for k in sides] for r in plain])
    exact = ["satoh-zero", "shuffle-commutative", "harmonic-commutative",
             "shuffle-associative", "harmonic-associative",
             "sigma-involution", "sigma-block-form", "dual-involution"]
    limit = [r["name"] for r in plain if "-limit " in r["name"]]
    assert len(limit) == 8
    fixed = {name: 1.0 if "final gap" in name else 0.0
             for name in exact + limit}
    assert [r["tolerance"] for r in plain if r["name"] in fixed] == [
        fixed[r["name"]] for r in plain if r["name"] in fixed]
    assert [r["tolerance"] for r in over] == [fixed.get(r["name"], 1e-3)
                                              for r in over]


def test_monomials_print_as_text_in_messages_and_names():
    """A monomial is a tuple, and each place that formats one with `%`
    prints its text: both rejections of Z_omega, its repr and the
    duality record names."""
    p = OmegaParam(1.0)
    with pytest.raises(ValueError, match="monomial G2 E not admissible"):
        Z_omega(APoly.monomial(AMonomial((2, 0))), p)
    with pytest.raises(ValueError, match="coefficient of G2 has h"):
        Z_omega(APoly.monomial(AMonomial((2,)), HbarLaurent.h(-1)), p)
    assert repr(AMonomial((0, 2))) == "AMonomial<E G2>"
    records = verify.run_suite("duality", 1.0, max_weight=2)
    assert [r["name"] for r in records] == [
        "duality G1", "duality G2", "duality E G1", "duality G1 G1",
        "zeta-duality 3", "zeta-duality 4", "zeta-duality 1,3",
        "zeta-duality 2,2"]
    assert all(r["pass"] for r in records)


def test_connector_failure_fails_only_the_checks_that_read_it():
    """At omega = 0.05 every connected integral overflows the float
    range, which fails the six initial and eight transport checks, each
    with its own error; the two ohno checks that read no connected
    integral are judged as usual and pass."""
    records = (verify.run_suite("ohno", 0.05)
               + verify.run_suite("transport", 0.05))
    assert len(records) == 16
    passing = {"generating-vs-series k=(2)", "ohno-row-duality (3) vs (1,2)"}
    for r in records:
        if r["name"] in passing:
            assert r["pass"] and "error" not in r
            assert r["residual"] <= r["tolerance"]
        else:
            assert not r["pass"]
            assert list(r) == REPORT_KEYS + ["error"]
            assert r["error"] == "Theta factor beyond the float range"
            assert math.isnan(r["residual"])
            assert math.isnan(r["lhs"].real) and math.isnan(r["rhs"].real)
    assert {r["name"] for r in records if r["pass"]} == passing


def test_each_value_is_computed_once_per_run(monkeypatch):
    """The run's value table, not the memo, dedupes: with a 4-entry memo
    that the battery's order thrashes, each distinct value of the
    double-shuffle battery is still computed once."""
    computed = []
    memoized = cache.memoized

    def spy(expr, omega, cfg, compute, meta=None):
        def counted():
            computed.append((expr, omega, cfg))
            return compute()
        return memoized(expr, omega, cfg, counted, meta)

    monkeypatch.setattr(cache, "_memo", cache.LRU(4))
    monkeypatch.setattr(cache, "_ACTIVE", None)
    monkeypatch.setattr(cache, "memoized", spy)
    records = verify.run_suite("double-shuffle", 1.0, max_weight=3)
    assert all(r["pass"] for r in records)
    assert len(computed) > 4
    assert len(computed) == len(set(computed))


def _filtered_pairs(max_weight):
    """`verify._pairs` as a filter over every pair, the reference for its
    bisected ranges."""
    mons = verify._monomials(max_weight)
    return [(m1, m2) for i, m1 in enumerate(mons) for m2 in mons[i:]
            if m1.weight + m2.weight <= max_weight + 1]


@pytest.mark.parametrize("max_weight", range(1, 8))
def test_pairs_match_the_filtered_enumeration(max_weight):
    assert verify._pairs(max_weight) == _filtered_pairs(max_weight)


def test_weight_counts_e_as_one():
    assert all(m.weight == sum(k or 1 for k in m)
               for m in monomials_up_to_weight(7))


def test_transport_point_is_the_seed_0_draw():
    """The transport suite's (lam, mu) is the point its seed-0 draw gave,
    bit for bit."""
    rng = random.Random(0)

    def point():
        rad = 0.006 + 0.006 * rng.random()
        ang = 2.0 * math.pi * rng.random()
        return rad * complex(math.cos(ang), math.sin(ang))
    assert verify._TRANSPORT_POINT == (point(), point())
