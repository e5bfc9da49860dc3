"""Command line contract: JSON reports, exit codes, cache, config."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import omzv
from omzv import OmegaParam, zeta_omega
from omzv.cli import cli
from omzv.ohno import clear_connector_cache
from omzv.omega import clear_value_cache

GOLDEN = pathlib.Path(__file__).parent / "data" / "verify_algebra.json"
GOLDEN_ALL = pathlib.Path(__file__).parent / "data" / "verify_all_w1.json"

VOLATILE_TOP = ("timestamp", "runtime_s")
VOLATILE_CHECK = ("runtime_s",)


@pytest.fixture()
def runner():
    return CliRunner()


def strip_volatile(report):
    out = {k: v for k, v in report.items() if k not in VOLATILE_TOP}
    if "checks" in out:
        out["checks"] = [{k: v for k, v in c.items()
                          if k not in VOLATILE_CHECK}
                         for c in out["checks"]]
    return out


def test_eval_zeta_matches_library(runner):
    res = runner.invoke(cli, ["eval", "zeta", "2"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    want = zeta_omega((2,), OmegaParam(1.0))
    assert report["value"] == [want.value.real, want.value.imag]
    assert report["err_estimate"] == want.err_estimate
    assert report["command"] == "eval" and report["kind"] == "zeta"


def test_eval_word(runner):
    res = runner.invoke(cli, ["eval", "word", "E G2", "--omega", "0.9"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["config"]["omega"] == 0.9
    assert report["parsed"] == "E G2"


def test_parse_error_is_exit_2(runner):
    res = runner.invoke(cli, ["eval", "zeta", "2,,"])
    assert res.exit_code == 2
    for text in ["b q a", "", "G2 +", "+ G2", "G2 -", "2*", "1/0 G2"]:
        res = runner.invoke(cli, ["eval", "word", text])
        assert res.exit_code == 2, (text, res.output)


@pytest.mark.parametrize("args", [
    ["verify", "extended-do", "--order", "-1"],
    ["verify", "ohno", "--order", "-1"],
    ["verify", "algebra", "--max-weight", "-1"],
    ["ohno", "2", "--order", "-1"],
    ["eval", "zeta", "2", "--tol", "nan"],
    ["eval", "zeta", "2", "--tol", "inf"],
    ["eval", "zeta", "2", "--tol", "0"],
    ["eval", "zeta", "2", "--tol", "-1"],
    ["verify", "algebra", "--tol", "nan"],
    ["gamma", "0.2", "--tol", "0"],
    ["ohno", "2", "--tol", "-inf"],
])
def test_bad_numeric_option_is_exit_2(runner, args):
    """Negative orders and weights, and tolerances that are not finite
    and > 0, are usage errors, before any work is done."""
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("omega", ["0", "2", "2.5", "nan", "inf"])
@pytest.mark.parametrize("args", [["eval", "zeta", "2"],
                                  ["verify", "algebra"],
                                  ["gamma", "0.2"],
                                  ["ohno", "2"]])
def test_omega_outside_range_is_exit_2(runner, args, omega):
    """--omega outside (0, 2), NaN included, is a usage error of every
    verb that takes it."""
    res = runner.invoke(cli, args + ["--omega", omega])
    assert res.exit_code == 2, res.output
    assert "--omega" in res.output


def test_non_admissible_is_exit_3(runner):
    res = runner.invoke(cli, ["eval", "zeta", "2,1"])
    assert res.exit_code == 3
    res = runner.invoke(cli, ["eval", "word", "G1 E"])
    assert res.exit_code == 3


def test_eval_quad_error_is_exit_3(runner):
    # at this omega the chain grid for zeta(2) exceeds its node budget
    res = runner.invoke(cli, ["eval", "zeta", "2", "--omega", "0.0005"])
    assert res.exit_code == 3
    assert "node budget" in res.output


def test_verify_quad_error_is_exit_3(runner):
    res = runner.invoke(cli, ["verify", "shuffle", "--omega", "0.0005"])
    assert res.exit_code == 3
    # the report is still written and is strict JSON: every check reads
    # a value beyond the node budget, so each fails with its own error,
    # NaN sides and a NaN residual, written as null
    report = json.loads(res.output, parse_constant=_reject_constant)
    checks = report["checks"]
    assert len(checks) > 1
    assert report["summary"] == {"total": len(checks), "passed": 0,
                                 "failed": len(checks)}
    for c in checks:
        assert not c["pass"] and "node budget" in c["error"]
        assert c["residual"] is None
        assert c["lhs"] == c["rhs"] == [None, None]


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_verify_records_each_suite_config(runner):
    """The connector suites run at rel_tol 1e-7, and their checks say so."""
    res = runner.invoke(cli, ["verify", "saalschutz"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert "fingerprint" not in report["config"]
    assert ({c["fingerprint"] for c in report["checks"]}
            == {"r1e-07,a1e-09,m6,s0.8,q1.4"})


@pytest.mark.parametrize("suite, omega", [("ohno", "1.99"),
                                          ("transport", "1.9")])
def test_connector_suites_pass_near_omega_2(runner, suite, omega):
    """With the contour offsets at 0.9 of their bounds the series region
    holds the ohno points at w = 1.99 and the transport integrals stay
    finite at 1.9; at half the bounds both suites exited 3."""
    res = runner.invoke(cli, ["verify", suite, "--omega", omega])
    assert res.exit_code == 0
    report = json.loads(res.output, parse_constant=_reject_constant)
    assert report["summary"]["failed"] == 0
    assert all(c["pass"] for c in report["checks"])


def test_ohno_quad_error_is_exit_3(runner):
    res = runner.invoke(cli, ["ohno", "2", "--omega", "0.0005"])
    assert res.exit_code == 3
    assert "node budget" in res.output


def test_unknown_suite_is_exit_2(runner):
    res = runner.invoke(cli, ["verify", "no-such-suite"])
    assert res.exit_code == 2


def test_verify_algebra_matches_golden(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(cli, ["verify", "algebra", "--out", str(out)])
    assert res.exit_code == 0
    raw = json.loads(out.read_text())
    assert isinstance(raw["runtime_s"], float) and raw["runtime_s"] >= 0.0
    fresh = strip_volatile(raw)
    golden = strip_volatile(json.loads(GOLDEN.read_text()))
    assert fresh.keys() == golden.keys()
    assert fresh["config"] == golden["config"]
    for got, want in zip(fresh["checks"], golden["checks"], strict=True):
        assert got.keys() == want.keys()
        for key in ("name", "anchor", "pass", "tolerance", "fingerprint"):
            assert got[key] == want[key], got["name"]
        assert got["lhs"] == pytest.approx(want["lhs"], abs=1e-12)
        assert got["rhs"] == pytest.approx(want["rhs"], abs=1e-12)
        assert got["residual"] == pytest.approx(want["residual"], abs=1e-12)
    assert all(c["pass"] for c in fresh["checks"])


def test_verify_all_matches_golden(runner, tmp_path):
    """Every suite at omega = 1 against the report of the suites as they
    stood before they became value plans."""
    out = tmp_path / "report.json"
    res = runner.invoke(cli, ["verify", "all", "--out", str(out)])
    assert res.exit_code == 0
    fresh = strip_volatile(json.loads(out.read_text()))
    golden = strip_volatile(json.loads(GOLDEN_ALL.read_text()))
    assert fresh.keys() == golden.keys()
    assert fresh["config"] == golden["config"]
    assert fresh["summary"] == golden["summary"]
    for got, want in zip(fresh["checks"], golden["checks"], strict=True):
        assert got.keys() == want.keys()
        for key in ("name", "anchor", "pass", "tolerance", "fingerprint"):
            assert got[key] == want[key], got["name"]
        assert got["lhs"] == pytest.approx(want["lhs"], abs=1e-12)
        assert got["rhs"] == pytest.approx(want["rhs"], abs=1e-12)
        assert got["residual"] == pytest.approx(want["residual"], abs=1e-12)


def test_python_dash_m_runs_the_cli(tmp_path):
    """`python -m omzv` is the command line tool."""
    src = str(pathlib.Path(omzv.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "report.json"
    res = subprocess.run([sys.executable, "-m", "omzv", "verify", "algebra",
                          "--max-weight", "2", "--out", str(out)],
                         env=env, capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_failed_check_is_exit_1(runner):
    res = runner.invoke(cli, ["verify", "gamma", "--tol", "1e-30"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["summary"]["failed"] > 0


def test_gamma_point(runner):
    res = runner.invoke(cli, ["gamma", "0.2+0.3i"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["z"] == [0.2, 0.3]
    assert report["G"] is not None
    res = runner.invoke(cli, ["gamma", "2i"])
    assert res.exit_code == 3


@pytest.mark.parametrize("z", ["nan", "nan+1j", "inf", "infj"])
def test_non_finite_gamma_point_is_exit_2(runner, z):
    res = runner.invoke(cli, ["gamma", z])
    assert res.exit_code == 2, res.output


def test_far_gamma_point_is_exit_3_at_once(runner):
    """Its shift path would be 10^17 steps long; it is counted, not
    walked."""
    t0 = time.perf_counter()
    res = runner.invoke(cli, ["gamma", "1e17j"])
    assert res.exit_code == 3, res.output
    assert time.perf_counter() - t0 < 5.0


def test_gamma_beyond_the_float_range_is_exit_3_and_not_stored(tmp_path):
    """log G of 1e200 overflows: the command exits 3 with the error and
    no numpy warning on stderr, and writes no store entry (it printed
    [null, null] and stored [NaN, -Infinity])."""
    src = str(pathlib.Path(omzv.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    store = tmp_path / "values.jsonl"
    res = subprocess.run([sys.executable, "-m", "omzv", "gamma", "1e200",
                          "--cache", str(store)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 3, res.stdout
    assert res.stdout == ""
    assert res.stderr.strip() == "Error: log G beyond the float range"
    assert not store.exists()


def test_ohno_verb(runner):
    res = runner.invoke(cli, ["ohno", "2", "--order", "1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    cells = {(c["m"], c["n"]) for c in report["cells"]}
    assert cells == {(0, 0), (0, 1), (1, 0)}
    res = runner.invoke(cli, ["ohno", "2,1"])
    assert res.exit_code == 3


def fresh_memos():
    clear_value_cache()
    clear_connector_cache()


def test_cache_round_trip_is_deterministic(runner, tmp_path):
    store = tmp_path / "values.jsonl"
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "duality", "--max-weight", "2",
            "--cache", str(store), "--out"]
    fresh_memos()
    assert runner.invoke(cli, args + [str(out1)]).exit_code == 0
    assert store.exists()
    stored = store.read_bytes()
    fresh_memos()
    assert runner.invoke(cli, args + [str(out2)]).exit_code == 0
    # the second run reads every value from the store and writes none
    assert store.read_bytes() == stored
    r1 = strip_volatile(json.loads(out1.read_text()))
    r2 = strip_volatile(json.loads(out2.read_text()))
    assert r1 == r2

    res = runner.invoke(cli, ["cache", "stats", "--cache", str(store)])
    assert res.exit_code == 0
    assert json.loads(res.output)["entries"] > 0


def test_store_not_reused_without_cache_flag(runner, tmp_path):
    store = tmp_path / "values.jsonl"
    fresh_memos()
    res = runner.invoke(cli, ["eval", "zeta", "2", "--cache", str(store)])
    assert res.exit_code == 0
    stored = store.read_bytes()
    fresh_memos()
    res = runner.invoke(cli, ["eval", "zeta", "3"])
    assert res.exit_code == 0
    assert store.read_bytes() == stored


def test_cache_survives_corruption(runner, tmp_path):
    store = tmp_path / "values.jsonl"
    fresh_memos()
    res = runner.invoke(cli, ["eval", "zeta", "2", "--cache", str(store)])
    assert res.exit_code == 0
    clean = json.loads(res.output)

    lines = store.read_text().splitlines()
    lines.insert(0, "{not json")
    lines.insert(1, json.dumps({"key": ["k"], "value": [0.0, 0.0],
                                "err": 0.0}))
    store.write_text("\n".join(lines) + "\n")

    fresh_memos()
    with pytest.warns(UserWarning):
        res = runner.invoke(cli, ["eval", "zeta", "2", "--cache",
                                  str(store)])
    assert res.exit_code == 0
    again = json.loads(res.output)
    assert strip_volatile(again)["value"] == strip_volatile(clean)["value"]


def test_non_finite_store_entry_is_recomputed(runner, tmp_path):
    """An entry whose value and error are NaN, as stores written before
    finite-or-raise integrals can hold, is dropped as corrupt and the
    value recomputed and stored again."""
    store = tmp_path / "values.jsonl"
    fresh_memos()
    res = runner.invoke(cli, ["eval", "zeta", "7", "--cache", str(store)])
    assert res.exit_code == 0
    clean = json.loads(res.output)
    rec = json.loads(store.read_text())
    rec["value"], rec["err"] = [math.nan, math.nan], math.nan
    store.write_text(json.dumps(rec) + "\n")

    fresh_memos()
    with pytest.warns(UserWarning, match="dropped 1 corrupt entry"):
        res = runner.invoke(cli, ["eval", "zeta", "7", "--cache",
                                  str(store)])
    assert res.exit_code == 0
    again = json.loads(res.output)
    assert "cached" not in again["meta"]
    assert again["value"] == clean["value"]
    assert again["err_estimate"] == clean["err_estimate"]
    assert json.loads(store.read_text())["value"] == clean["value"]


def test_gamma_cache_round_trip(runner, tmp_path):
    store = tmp_path / "values.jsonl"
    args = ["gamma", "0.2+0.3i", "--cache", str(store)]
    fresh_memos()
    first = runner.invoke(cli, args)
    assert first.exit_code == 0
    stored = store.read_bytes()
    fresh_memos()
    second = runner.invoke(cli, args)
    assert second.exit_code == 0
    # the second run reads the value from the store and writes nothing
    assert store.read_bytes() == stored
    r1, r2 = (strip_volatile(json.loads(r.output)) for r in (first, second))
    assert r1.pop("cached") is False and r2.pop("cached") is True
    assert r1 == r2


def test_each_verb_closes_its_store(runner, tmp_path, monkeypatch):
    """eval, gamma, ohno and verify each write their fresh values
    through one handle, which is closed when the verb ends, and leave
    no store installed."""
    appends = []

    def spy(path, mode="r", *args, **kw):
        fh = open(path, mode, *args, **kw)
        if mode == "a":
            appends.append(fh)
        return fh

    monkeypatch.setattr(omzv.cache, "open", spy, raising=False)
    for n, args in enumerate([["eval", "zeta", "2"], ["gamma", "0.2+0.3i"],
                              ["ohno", "2", "--order", "0"],
                              ["verify", "duality", "--max-weight", "2"]]):
        store = tmp_path / ("values-%d.jsonl" % n)
        fresh_memos()
        res = runner.invoke(cli, args + ["--cache", str(store)])
        assert res.exit_code == 0, args
        assert len(appends) == n + 1 and appends[n].closed, args
        assert omzv.cache._ACTIVE is None
        assert store.read_text().count("\n") >= 1


def test_cache_clear(runner, tmp_path):
    store = tmp_path / "values.jsonl"
    fresh_memos()
    runner.invoke(cli, ["eval", "zeta", "2", "--cache", str(store)])
    assert store.exists()
    res = runner.invoke(cli, ["cache", "clear", "--cache", str(store)])
    assert res.exit_code == 0
    assert not store.exists()


def test_config_file_defaults(runner, tmp_path):
    cfgfile = tmp_path / "omzv.cfg"
    cfgfile.write_text("omega = 1.3\nmax-weight = 2\n")
    res = runner.invoke(cli, ["--config", str(cfgfile), "verify", "algebra"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["config"]["omega"] == 1.3
    assert report["config"]["max_weight"] == 2
    # explicit flags win over the file
    res = runner.invoke(cli, ["--config", str(cfgfile), "verify", "algebra",
                              "--omega", "0.9"])
    assert json.loads(res.output)["config"]["omega"] == 0.9
    res = runner.invoke(cli, ["--config", str(cfgfile), "verify", "algebra",
                              "--omega", "bad"])
    assert res.exit_code == 2


def test_env_prefix(runner):
    res = runner.invoke(cli, ["verify", "algebra"],
                        env={"OMZV_VERIFY_OMEGA": "0.7"},
                        auto_envvar_prefix="OMZV")
    assert res.exit_code == 0
    assert json.loads(res.output)["config"]["omega"] == 0.7
