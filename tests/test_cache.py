"""Bounded memo: eviction order, thread safety and recomputation after
eviction."""

import ast
import hashlib
import importlib
import inspect
import json
import math
import pkgutil
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import omzv
from omzv import (OmegaParam, QuadConfig, Z_omega, cache, parse_apoly, words,
                  zeta_omega)
from omzv.omega import clear_value_cache


def fill(memo, key, value):
    """memo.get_or_make with a maker that returns `value`."""
    return memo.get_or_make(key, lambda: value)


def test_lru_drops_least_recently_used():
    memo = cache.LRU(2)
    fill(memo, "a", 1)
    fill(memo, "b", 2)
    assert fill(memo, "a", None) == 1   # "b" is now the least recently used
    fill(memo, "c", 3)
    assert list(memo._d) == ["a", "c"]
    assert fill(memo, "a", None) == 1 and fill(memo, "c", None) == 3
    assert fill(memo, "b", 4) == 4      # dropped, so made again


def test_lru_refuses_only_an_oversize_value():
    """A value heavier than the whole bound is returned but not kept,
    and it drops no other entry; a value made while its key was filled
    leaves the entry under that key in place."""
    memo = cache.LRU(10, weight=len)
    fill(memo, "a", "xx")
    fill(memo, "b", "yyy")
    assert fill(memo, "big", "z" * 11) == "z" * 11
    assert "big" not in memo._d
    assert fill(memo, "a", None) == "xx" and fill(memo, "b", None) == "yyy"
    assert len(memo) == 2 and memo.total == 5
    got = memo.get_or_make("c", lambda: fill(memo, "c", "cc") and "w" * 11)
    assert got == "cc" and fill(memo, "b", None) == "yyy"
    assert len(memo) == 3 and memo.total == 7


def test_get_or_make_calls_make_only_on_a_miss():
    """A hit does not call make.  make runs outside the lock: a make
    that fills the same map, under another key or its own, returns (in
    a thread, so that a held lock fails the test instead of hanging it),
    and the value filled under its own key is the one kept."""
    memo = cache.LRU(8)
    calls = []
    assert memo.get_or_make("a", lambda: calls.append("a") or 1) == 1
    assert memo.get_or_make("a", lambda: calls.append("again") or 2) == 1
    assert calls == ["a"]
    got = []

    def nested():
        got.append(memo.get_or_make(
            "d", lambda: memo.get_or_make("b", lambda: 2) + fill(memo, "c", 3)))
        got.append(memo.get_or_make("e", lambda: fill(memo, "e", 6) + 1))

    t = threading.Thread(target=nested, daemon=True)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive() and got == [5, 6]
    assert list(memo._d.items()) == [("a", 1), ("b", 2), ("c", 3), ("d", 5),
                                     ("e", 6)]


def test_lru_shared_between_threads():
    """Concurrent fills and hits on a full map neither raise nor let it
    grow past its bound."""
    memo = cache.LRU(8)
    errors = []

    def work(offset):
        try:
            for i in range(3000):
                fill(memo, (offset, i % 13), i)
                fill(memo, (offset + 1, i % 11), i)
                assert len(memo) <= 8
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(memo) == 8 and memo.total == 8


def test_evicted_value_is_recomputed_bit_identically(monkeypatch):
    monkeypatch.setattr(cache, "_memo", cache.LRU(2))
    p = OmegaParam(0.8)
    first = zeta_omega((2,), p)
    assert zeta_omega((2,), p) is first
    zeta_omega((3,), p)
    zeta_omega((4,), p)
    assert len(cache._memo) == 2
    again = zeta_omega((2,), p)
    assert again is not first
    assert again.value.real.hex() == first.value.real.hex()
    assert again.value.imag.hex() == first.value.imag.hex()
    assert again.err_estimate.hex() == first.err_estimate.hex()
    clear_value_cache()


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A store at tmp_path / "values.jsonl", installed on an empty memo
    and closed at teardown."""
    monkeypatch.setattr(cache, "_memo", cache.LRU(8))
    store = cache.ValueCache(tmp_path / "values.jsonl")
    monkeypatch.setattr(cache, "_ACTIVE", store)
    yield store
    store.close()


def test_result_types_agree_across_routes(store):
    """A fresh value, a memo hit and a store hit are Python complex and
    float with the same bits."""
    p = OmegaParam(0.8)
    fresh = zeta_omega((2,), p)
    memo = zeta_omega((2,), p)
    cache.clear_memo()
    stored = zeta_omega((2,), p)
    assert stored.meta["cached"] and not fresh.meta.get("cached")
    for res in (fresh, memo, stored):
        assert type(res.value) is complex
        assert type(res.err_estimate) is float
        assert res.value.real.hex() == fresh.value.real.hex()
        assert res.value.imag.hex() == fresh.value.imag.hex()
        assert res.err_estimate.hex() == fresh.err_estimate.hex()


def test_store_keys_are_the_printed_monomials(tmp_path, store):
    """A sum writes one store entry per monomial, named by the printed
    monomial and the route: stores already written are keyed so."""
    Z_omega(parse_apoly("E G2 + 2 G1 G3"), OmegaParam(0.8))
    want = {"mono E G2 reduced", "mono G1 G3 reduced"}
    assert {rec["expr"] for _, _, rec in store.entries.values()} == want
    reloaded = cache.ValueCache(tmp_path / "values.jsonl")
    assert {rec["expr"] for _, _, rec in reloaded.entries.values()} == want


def test_store_is_read_and_written_once_per_fresh_value(tmp_path, store,
                                                       monkeypatch):
    """A fresh value looks the store up once and writes it once, under
    its (expr, omega, fingerprint) triple; a memo hit touches the store
    not at all."""
    calls = []
    for name in ("get", "put"):
        method = getattr(cache.ValueCache, name)

        def spy(self, key, *rest, name=name, method=method):
            calls.append((name, key))
            return method(self, key, *rest)

        monkeypatch.setattr(cache.ValueCache, name, spy)
    p = OmegaParam(0.8)
    zeta_omega((2,), p)
    assert [name for name, _ in calls] == ["get", "put"]
    key = calls[0][1]
    assert key == calls[1][1] and key[:2] == ("zeta 2", repr(0.8))
    assert len(store) == 1
    zeta_omega((2,), p)
    assert len(calls) == 2
    zeta_omega((3,), p)
    assert [name for name, _ in calls[2:]] == ["get", "put"]
    assert len(store) == 2
    reloaded = cache.ValueCache(tmp_path / "values.jsonl")
    assert reloaded.entries.keys() == store.entries.keys()


def test_omega_number_type_names_one_key(tmp_path, store):
    """omega given as an int, a float or a numpy float is one value: the
    second and third calls take the first result from the memo, and the
    store holds one line, keyed by repr(1.0)."""
    first = zeta_omega((2,), OmegaParam(1))
    for w in (1.0, np.float64(1.0)):
        assert zeta_omega((2,), OmegaParam(w)) is first
    store.close()
    lines = (tmp_path / "values.jsonl").read_text().splitlines()
    assert [json.loads(line)["omega"] for line in lines] == [repr(1.0)]


def test_store_keeps_the_first_value_of_a_key(tmp_path):
    """A key already stored is neither replaced nor written again."""
    store = cache.ValueCache(tmp_path / "values.jsonl")
    key = ("zeta 2", repr(0.8), QuadConfig().fingerprint())
    store.put(key, 1.5 + 0.5j, 1e-12)
    store.put(key, 2.0, 1e-9)
    store.close()
    assert store.get(key) == (1.5 + 0.5j, 1e-12)
    assert len((tmp_path / "values.jsonl").read_text().splitlines()) == 1


def test_store_drops_entries_whose_key_is_not_a_string(tmp_path):
    """A store line whose expr, omega or fp is a list, an object or a
    number is dropped as corrupt with a warning, and the file is
    rewritten with the good entries only."""
    path = tmp_path / "values.jsonl"
    good = {"expr": "zeta 2", "omega": "1.0", "fp": "f",
            "value": [1.5, 0.25], "err": 1e-12}
    bad = [dict(good, expr=["zeta 2"]), dict(good, omega={"w": 1.0}),
           dict(good, fp=7)]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in [good] + bad))
    with pytest.warns(UserWarning, match="dropped 3 corrupt entries"):
        store = cache.ValueCache(path)
    assert store.dropped == 3
    assert store.get(("zeta 2", "1.0", "f")) == (1.5 + 0.25j, 1e-12)
    assert [json.loads(line) for line in
            path.read_text().splitlines()] == [good]


def test_store_drops_values_that_are_not_two_numbers(tmp_path, monkeypatch):
    """A stored value is a list of exactly two JSON numbers and its error
    one number: booleans, which Python would read as 1, 0 and 0.0, a
    third number and an integer beyond the float range are corrupt.
    Each such line is dropped with a warning, the file is rewritten
    without it, and its value is computed again."""
    monkeypatch.setattr(cache, "_memo", cache.LRU(8))
    monkeypatch.setattr(cache, "_ACTIVE", None)
    p = OmegaParam(0.8)
    fp = QuadConfig().fingerprint()
    fresh = {k: zeta_omega((k,), p) for k in (2, 3, 4, 5)}
    bad = [dict(value=[True, False], err=1e-12),
           dict(value=[1.5, 0.25], err=False),
           dict(value=[1.5, 0.25, 0.0], err=1e-12),
           dict(value=[10 ** 400, 0], err=1e-12)]
    path = tmp_path / "values.jsonl"
    path.write_text("".join(
        json.dumps(dict(rec, expr="zeta %d" % k, omega=repr(0.8), fp=fp))
        + "\n" for k, rec in zip(fresh, bad)))
    with pytest.warns(UserWarning, match="dropped 4 corrupt entries"):
        store = cache.ValueCache(path)
    assert store.dropped == 4 and len(store) == 0
    assert path.read_text() == ""
    monkeypatch.setattr(cache, "_ACTIVE", store)
    cache.clear_memo()
    try:
        for k, want in fresh.items():
            got = zeta_omega((k,), p)
            assert not got.meta.get("cached")
            assert got.value == want.value
            assert got.err_estimate == want.err_estimate
    finally:
        store.close()
    assert len(cache.ValueCache(path)) == 4


def test_store_with_hashed_keys_is_served(tmp_path, monkeypatch):
    """A store whose lines also carry a "key" of 64 hex digits, the
    SHA-256 of the triple that keyed stores before the triple itself
    did, loads without a warning and serves its values from the store:
    bit for bit, with cached=True, and nothing written."""
    monkeypatch.setattr(cache, "_memo", cache.LRU(8))
    monkeypatch.setattr(cache, "_ACTIVE", None)
    p = OmegaParam(0.8)
    fresh = zeta_omega((2,), p)
    triple = ["zeta 2", repr(0.8), QuadConfig().fingerprint()]
    rec = {"key": hashlib.sha256(json.dumps(
               triple, separators=(",", ":")).encode()).hexdigest(),
           "expr": triple[0], "omega": triple[1], "fp": triple[2],
           "value": [fresh.value.real, fresh.value.imag],
           "err": fresh.err_estimate}
    assert len(rec["key"]) == 64
    path = tmp_path / "values.jsonl"
    path.write_text(json.dumps(rec, separators=(",", ":")) + "\n")
    stored = path.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = cache.ValueCache(path)
    monkeypatch.setattr(cache, "_ACTIVE", store)
    cache.clear_memo()
    served = zeta_omega((2,), p)
    assert served.meta["cached"] is True
    assert served.value.real.hex() == fresh.value.real.hex()
    assert served.value.imag.hex() == fresh.value.imag.hex()
    assert served.err_estimate.hex() == fresh.err_estimate.hex()
    assert path.read_bytes() == stored


def test_store_appends_through_one_handle(tmp_path, monkeypatch):
    """Ten puts open the store file once and flush each line: a second
    store on the path reads every one while the first is open.  close,
    clear and installing another store close the handle, and a put
    after close opens it again."""
    appends = []

    def spy(path, mode="r", *args, **kw):
        fh = open(path, mode, *args, **kw)
        if mode == "a":
            appends.append(fh)
        return fh

    monkeypatch.setattr(cache, "open", spy, raising=False)
    monkeypatch.setattr(cache, "_ACTIVE", None)
    path = tmp_path / "values.jsonl"
    first = cache.ValueCache(path)
    for n in range(10):
        first.put(("zeta %d" % (n + 2), "0.8", "f"), n + 0.5j, 1e-12)
    assert len(appends) == 1 and not appends[0].closed
    second = cache.ValueCache(path)
    assert len(second) == 10
    assert all(second.get(key) == first.get(key) for key in first.entries)
    first.close()
    assert appends[0].closed
    first.put(("zeta 12", "0.8", "f"), 1.5, 1e-12)
    cache.install(first)
    cache.install(first)
    assert len(appends) == 2 and not appends[1].closed
    cache.install(second)
    assert appends[1].closed
    second.put(("zeta 13", "0.8", "f"), 2.5, 1e-12)
    second.clear()
    assert appends[2].closed and not path.exists()
    cache.install(None)
    assert len(appends) == 3


@pytest.mark.parametrize("value, err", [(complex(math.nan, 0.0), 1e-12),
                                        (complex(0.5, math.inf), 1e-12),
                                        (0.5 + 0.25j, math.nan)])
def test_store_refuses_a_non_finite_value(tmp_path, value, err):
    """The loader drops a non-finite entry, so `put` never writes one."""
    path = tmp_path / "values.jsonl"
    store = cache.ValueCache(path)
    with pytest.raises(ValueError, match="non-finite"):
        store.put(("zeta 2", "1.0", "f"), value, err)
    assert len(store) == 0 and not path.exists()


def source_cache_sites():
    """Every call of lru_cache, LRU or words._Tables, and every bare
    lru_cache decorator, in the package's source, as (file, line); and
    every use of functools.cache, which has no bound."""
    sites, unbounded = [], []
    for path in sorted(Path(omzv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [(path.name, node.lineno) for alias in node.names
                              if alias.name == "cache"]
            if (isinstance(node, ast.Attribute) and node.attr == "cache"
                    and getattr(node.value, "id", None) == "functools"):
                unbounded.append((path.name, node.lineno))
            for dec in getattr(node, "decorator_list", []):
                if (not isinstance(dec, ast.Call) and getattr(
                        dec, "id", getattr(dec, "attr", None)) == "lru_cache"):
                    sites.append((path.name, dec.lineno))
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) in (
                        "lru_cache", "LRU", "_Tables"):
                    sites.append((path.name, node.lineno))
    return sites, unbounded


def live_caches():
    """The lru_cache functions, LRU maps and successor-table registries
    of the package, each once: those held by its modules and classes."""
    found = {}
    for info in pkgutil.iter_modules(omzv.__path__):
        module = importlib.import_module("omzv." + info.name)
        values = list(vars(module).values())
        for cls in [v for v in values if inspect.isclass(v)]:
            values += [getattr(v, "__func__", v) for v in vars(cls).values()]
        for v in values:
            if isinstance(v, (cache.LRU, words._Tables)) or (
                    hasattr(v, "cache_parameters")
                    and v.__module__.startswith("omzv")):
                found[id(v)] = v
    return list(found.values())


def test_every_cache_has_a_finite_bound():
    """Each lru_cache and LRU of the package has a finite bound, and so
    has each successor table of a registry, in size and in number; the
    walk over its modules and classes finds as many caches as its source
    makes, so a new cache is either seen here or fails the count."""
    words._shuffle_merge.__wrapped__("ba", "ba")    # a kernel fills a table
    sites, unbounded = source_cache_sites()
    assert unbounded == []
    caches = live_caches()
    assert len(caches) == len(sites)
    for c in caches:
        if isinstance(c, words._Tables):
            bounds = [c.maxsize, c.count]
            assert 0 < len(c) <= c.count
            assert all(type(t) is dict for t in c.values())
        elif isinstance(c, cache.LRU):
            bounds = [c.maxsize]
        else:
            bounds = [c.cache_parameters()["maxsize"]]
        for bound in bounds:
            assert isinstance(bound, int) and 0 < bound < math.inf, c


def test_clear_memo_empties_every_process_memo():
    """A zeta value, a reduced monomial and a connected integral fill the
    value, measure-table and log G line memos; `cache.clear_memo`, which
    is also `omega.clear_value_cache` and `ohno.clear_connector_cache`,
    then leaves every LRU map of the package empty."""
    from omzv import (GammaContext, OhnoParams, Z_omega_monomial,
                      connected_integral, ohno, omega, parse_amonomial)
    cfg = QuadConfig(rel_tol=1e-7, abs_tol=1e-9)
    cache.clear_memo()
    zeta_omega((1, 2), OmegaParam(0.8), cfg)
    Z_omega_monomial(parse_amonomial("E G2"), OmegaParam(0.8), cfg)
    connected_integral((1,), (1,), OhnoParams(lam=0.002j, mu=0.001),
                       GammaContext(OmegaParam(1.2), cfg=cfg))
    memos = [c for c in live_caches() if isinstance(c, cache.LRU)]
    assert len(memos) == 3
    assert all(len(m) and m.total for m in memos)
    cache.clear_memo()
    assert all(len(m) == 0 and m.total == 0 for m in memos)
    assert omega.clear_value_cache is ohno.clear_connector_cache
    assert ohno.clear_connector_cache is cache.clear_memo
