"""Memo and persistent value store for expensive scalar evaluations.

Every memoized evaluation goes through `memoized`, keyed on the
canonical triple (expression text, repr(omega), quadrature
fingerprint).  It looks in the process-wide in-memory memo first, a
bounded least-recently-used map (`LRU`), then in the persistent store
installed with `install`, and otherwise computes the value and writes
it to both.  A CLI run with --cache thereby reuses values across
processes.

The store is a JSON-lines file, one entry per line, keyed by a hash of
the triple.  Readers are tolerant: a corrupt line, or one whose value
or error is not finite, is dropped with a warning and the file is
rewritten without it, so the value is recomputed and stored again on
the next request.  Single-writer access is assumed.
"""

import cmath
import hashlib
import json
import math
import os
import threading
import warnings
from collections import OrderedDict

from .quad import EvalResult

__all__ = ["LRU", "ValueCache", "install", "memoized", "clear_memo"]

# Entries of the process-wide memo.  One chains benchmark pass holds
# about 70, the tier-1 tests at most 83 at a time.
MEMO_SIZE = 1024


class LRU:
    """Map with at most `maxsize` entries that drops the least recently
    used one when full.  Safe to share between threads."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self._d = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._d.get(key)
            if value is not None:
                self._d.move_to_end(key)
            return value

    def put(self, key, value):
        with self._lock:
            self._d[key] = value
            self._d.move_to_end(key)
            if len(self._d) > self.maxsize:
                self._d.popitem(last=False)

    def clear(self):
        with self._lock:
            self._d.clear()

    def __len__(self):
        with self._lock:
            return len(self._d)


def cache_key(expr, omega_repr, fingerprint):
    blob = json.dumps([expr, omega_repr, fingerprint],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ValueCache:
    """Read-through / write-back store of (complex value, error) pairs."""

    def __init__(self, path):
        self.path = str(path)
        self.entries = {}
        self.dropped = 0
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key = rec["key"]
                    val = complex(rec["value"][0], rec["value"][1])
                    err = float(rec["err"])
                    if not (cmath.isfinite(val) and math.isfinite(err)):
                        raise ValueError("non-finite entry")
                except (ValueError, KeyError, TypeError, IndexError):
                    self.dropped += 1
                    continue
                self.entries[key] = (val, err, rec)
        if self.dropped:
            warnings.warn("cache %s: dropped %d corrupt entr%s, will "
                          "recompute" % (self.path, self.dropped,
                                         "y" if self.dropped == 1 else "ies"))
            self._rewrite()

    def _rewrite(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for _, _, rec in self.entries.values():
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
        os.replace(tmp, self.path)

    def get(self, expr, omega_repr, fingerprint):
        hit = self.entries.get(cache_key(expr, omega_repr, fingerprint))
        if hit is None:
            return None
        return hit[0], hit[1]

    def put(self, expr, omega_repr, fingerprint, value, err):
        key = cache_key(expr, omega_repr, fingerprint)
        if key in self.entries:
            return
        value = complex(value)
        rec = {
            "key": key,
            "expr": expr,
            "omega": omega_repr,
            "fp": fingerprint,
            "value": [value.real, value.imag],
            "err": float(err),
        }
        self.entries[key] = (value, float(err), rec)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def clear(self):
        self.entries.clear()
        if os.path.exists(self.path):
            os.remove(self.path)

    def __len__(self):
        return len(self.entries)


_ACTIVE = None


def install(store):
    """Make `store` (a ValueCache or None) the process-wide cache."""
    global _ACTIVE
    _ACTIVE = store


_memo = LRU(MEMO_SIZE)


def clear_memo():
    _memo.clear()


def memoized(expr, omega, cfg, compute, meta=None):
    """The EvalResult of `compute()` for the value named by `expr` at
    this omega and quadrature config: from the memo, else from the
    installed store (meta["cached"] is then True), else computed and
    written to both.  `meta` is merged into the result's meta."""
    triple = (expr, repr(omega), cfg.fingerprint())
    res = _memo.get(triple)
    if res is not None:
        return res
    store = _ACTIVE
    hit = store.get(*triple) if store is not None else None
    if hit is not None:
        res = EvalResult(hit[0], hit[1], dict(meta or {}, cached=True))
    else:
        res = compute()
        res.meta.update(meta or {})
        if store is not None:
            store.put(*triple, res.value, res.err_estimate)
    _memo.put(triple, res)
    return res
