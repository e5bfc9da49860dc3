"""Tests of the benchmark itself: seeded streams, metric names, the
tail-percentile rule, NaN handling and span self times.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402
import work  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(streams.STREAMS))
def test_same_seed_same_stream_other_seed_other_stream(workload):
    make = streams.STREAMS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)
    assert json.loads(json.dumps(make(7))) == make(7)


def test_monomials_match_the_package():
    from omzv.words import monomials_up_to_weight
    want = [str(m) for m in monomials_up_to_weight(5) if len(m)]
    assert streams.monomials() == want
    assert len(streams.satoh_battery()) == 3916


def test_indices_are_admissible_with_requested_shape():
    import random
    rng = random.Random(3)
    for depth in range(1, 7):
        for weight in range(depth + 1, depth + 6):
            k = streams._index(rng, depth, weight)
            assert len(k) == depth and sum(k) == weight
            assert min(k) >= 1 and k[-1] >= 2


def test_strata_are_seed_independent():
    """Every seed draws the same number of requests per cell."""
    def cells(stream):
        out = {}
        for r in stream:
            depth = len(r["index"]) if r["kind"] == "zeta" else 0
            key = (r["kind"], r.get("omega"), depth)
            out[key] = out.get(key, 0) + 1
        return out
    for make in (streams.chains, streams.connector):
        assert cells(make(1)) == cells(make(2))
    assert len(streams.algebra(1)) == len(streams.algebra(2))


def test_benchmark_json_matches_the_runner():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in s["end_to_end"]}
    assert set(e2e) == set(run.END_TO_END)
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    for name, m in e2e.items():
        assert m["unit"] == run.UNITS[name]
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"]: m for m in s["per_layer"]}
    assert set(layer) == set(run.PER_LAYER)
    for name, m in layer.items():
        assert m["unit"] == run.layer_unit(name)
    names = [m["name"] for m in s["workloads"] + s["end_to_end"]
             + s["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = run.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = run.tail([5.0] * 10 + [1.0])
    assert value == 1.0 and n == 11
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_nan_never_passes_and_never_drops_out_of_a_max():
    nan = math.nan
    assert math.isnan(work.worst([1.0, nan, 3.0]))
    assert math.isnan(work.worst([nan]))
    assert work.worst([1.0, 3.0]) == 3.0
    assert not work.within(nan, 1.0)
    assert work.exceeds(nan, 1.0)
    assert not work.exceeds(0.5, 1.0)


def test_gate_fails_nan_results():
    stream = [{"kind": "zeta", "omega": 1.0, "index": [7]}]
    env = work.setup(stream, None)
    rec = {"kind": "zeta", "values": [complex(math.nan, math.nan)],
           "evals": [(complex(math.nan, math.nan), math.nan)], "nodes": 1}
    (v,) = work.gate(env, env.prepared, [rec])
    assert v.failed and v.tol_miss and not v.dishonest


def test_a_check_that_raises_fails_its_request(monkeypatch):
    def broken(k, omega):
        raise ArithmeticError("oracle broke")
    monkeypatch.setattr(work.oracles, "zeta_depth1", broken)
    stream = [{"kind": "zeta", "omega": 1.0, "index": [2]}]
    env = work.setup(stream, None)
    rec = {"kind": "zeta", "values": [-3.14159j], "evals": [(-3.14159j, 1e-9)]}
    (v,) = work.gate(env, env.prepared, [rec])
    assert v.failed and "oracle broke" in v.notes[0]


def test_self_time_subtracts_children():
    spans = [tracing.Span("request", 0.0, 10.0, -1, 0),
             tracing.Span("omega.d1", 1.0, 4.0, 0, 0),
             tracing.Span("words.product", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == [6.0, 3.0, 1.0]
    busy = tracing.busy_by_name(spans)
    assert busy["request"] == 6.0 and busy["omega.d1"] == 3.0


def test_tracer_off_records_no_spans_but_counts():
    tr = tracing.Tracer(False)
    with tr.span("omega.d1"):
        tr.count("quad.nodes", 5)
    assert tr.spans == [] and tr.counts["quad.nodes"] == 5
    tr = tracing.Tracer(True)
    tr.rid = 3
    with tr.span("request"):
        with tr.span("ohno"):
            pass
    assert [(s.name, s.parent, s.rid) for s in tr.spans] == [
        ("request", -1, 3), ("ohno", 0, 3)]


def test_pass_count_is_fixed_by_seconds_alone():
    assert run.pass_count("algebra", 15) == 5
    assert run.pass_count("connector", 1) == run.MIN_PASSES
    for workload in run.WORKLOADS:
        assert run.pass_count(workload, 1) >= run.MIN_PASSES


def test_iqm_drops_the_outer_quarters():
    assert run.iqm([3.0, 1.0, 2.0]) == 2.0
    assert run.iqm([1.0, 2.0, 3.0, 100.0]) == 2.5
