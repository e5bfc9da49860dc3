"""Bounded memo: eviction order, thread safety and recomputation after
eviction."""

import sys
import threading

from omzv import OmegaParam, cache, zeta_omega
from omzv.omega import clear_value_cache


def test_lru_drops_least_recently_used():
    memo = cache.LRU(2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1      # "b" is now the least recently used
    memo.put("c", 3)
    assert len(memo) == 2
    assert memo.get("b") is None
    assert memo.get("a") == 1 and memo.get("c") == 3


def test_lru_shared_between_threads():
    """Concurrent puts and gets on a full map neither raise nor let it
    grow past its bound."""
    memo = cache.LRU(8)
    errors = []

    def work(offset):
        try:
            for i in range(3000):
                memo.put((offset, i % 13), i)
                memo.get((offset + 1, i % 11))
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
    assert len(memo) == 8


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
