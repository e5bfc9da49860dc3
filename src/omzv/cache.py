"""Process memos and the persistent value store.

Three process-wide memos, bounded least-recently-used maps (`LRU`), hold
the values (`_memo`, MEMO_SIZE entries), the connector's log G lines
(`_LINE_MEMO`, 2^19 points) and the measure-kernel operands of chain
grids (`_MEASURE_MEMO`, 2^17 table entries).  Each fills through
`LRU.get_or_make` alone; `clear_memo` empties all three.  `memoized`
looks a value up by its triple (expression text, repr(omega),
quadrature fingerprint) in the value memo, then in the store installed
with `install`, else computes it and writes it to both, so a CLI run
with --cache reuses values across processes.

The store is a JSON-lines file, one entry per line, keyed by the
triple in its string fields "expr", "omega" and "fp" (a "key" field,
the hash of the triple in older stores, is ignored).  `put` refuses a
non-finite value, and readers are tolerant: a corrupt line, one whose
key field is not a string, or whose value is not two finite JSON
numbers or whose error is not one, is dropped with a warning and the
file is rewritten without it, so the value is recomputed and stored
again.  Single-writer access is assumed.
"""

import cmath
import json
import math
import os
import threading
import warnings
from collections import OrderedDict

__all__ = ["LRU", "ValueCache", "install", "memoized", "clear_memo"]

# Record fields that hold the triple, in its order.
_KEY_FIELDS = ("expr", "omega", "fp")
# Entries of the process-wide memo.  One chains benchmark pass holds
# about 70, the tier-1 tests at most 83 at a time.
MEMO_SIZE = 1024


class LRU:
    """Map of entries weighing at most `maxsize` in all (weight(value)
    each, 1 by default) that drops the least recently used ones to fit;
    a value heavier than `maxsize` is not kept and drops no other entry.
    Safe to share between threads."""

    def __init__(self, maxsize, weight=None):
        self.maxsize = maxsize
        self.weight = weight or (lambda value: 1)
        self.total = 0
        self._d = OrderedDict()
        self._lock = threading.Lock()

    def get_or_make(self, key, make):
        """The value under `key`, now the most recently used, or else
        `make()`, run outside the lock and kept unless it weighs more
        than the bound.  If another thread filled `key` meanwhile, its
        value is kept and returned."""
        with self._lock:
            value = self._d.get(key)
            if value is not None:
                self._d.move_to_end(key)
                return value
        value = make()
        w = self.weight(value)
        with self._lock:
            if key in self._d:
                self._d.move_to_end(key)
                return self._d[key]
            if w <= self.maxsize:
                self._d[key] = value
                self.total += w
                while self.total > self.maxsize:
                    self.total -= self.weight(self._d.popitem(last=False)[1])
        return value

    def clear(self):
        with self._lock:
            self._d.clear()
            self.total = 0

    def __len__(self):
        with self._lock:
            return len(self._d)


class ValueCache:
    """Read-through / write-back store of (complex value, error) pairs."""

    def __init__(self, path):
        self.path = str(path)
        self.entries = {}
        self.dropped = 0
        self._fh = None
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
                    key = tuple(rec[field] for field in _KEY_FIELDS)
                    if not all(isinstance(part, str) for part in key):
                        raise TypeError("key is not three strings")
                    val, err = rec["value"], rec["err"]
                    if not (type(val) is list and len(val) == 2 and all(
                            type(x) in (int, float) for x in val + [err])):
                        raise TypeError("value or err not JSON numbers")
                    val, err = complex(*val), float(err)
                    if not (cmath.isfinite(val) and math.isfinite(err)):
                        raise ValueError("non-finite entry")
                except (ValueError, KeyError, TypeError, OverflowError):
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

    def get(self, key):
        """(value, err) stored under `key`, the (expression text,
        repr(omega), quadrature fingerprint) triple, or None."""
        hit = self.entries.get(key)
        return None if hit is None else hit[:2]

    def put(self, key, value, err):
        if key in self.entries:
            return
        value, err = complex(value), float(err)
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise ValueError("non-finite value not stored: %r" % (key,))
        rec = dict(zip(_KEY_FIELDS, key), value=[value.real, value.imag],
                   err=err)
        self.entries[key] = (value, err, rec)
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "a", buffering=1, encoding="utf-8")
        self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def close(self):
        """Close the append handle that the first `put` opened."""
        if self._fh:
            self._fh.close()

    def clear(self):
        self.close()
        self.entries.clear()
        if os.path.exists(self.path):
            os.remove(self.path)

    def __len__(self):
        return len(self.entries)


_ACTIVE = None


def install(store):
    """Make `store` (a ValueCache or None) the process-wide cache.  A new
    store empties the value memo, whose hits would never reach it."""
    global _ACTIVE
    if _ACTIVE not in (None, store):
        _ACTIVE.close()             # the store it replaces
    if store not in (None, _ACTIVE):
        _memo.clear()
    _ACTIVE = store


_memo = LRU(MEMO_SIZE)

# The connector's log G lines (`ohno._descending_log_line`), read-only,
# keyed by (omega, cfg, x0, h, n, height).  2^19 points (8.4 MB) hold the
# order-2 expansion at omega 0.6 (102 lines, 173,618 points), `verify all`
# at omega 0.3/1/1.9 (23 lines, <= 71,079) and any tier-1 test (364,435).
_LINE_MEMO = LRU(1 << 19, weight=len)

# Measure-kernel operands of recent grids (`quad._measure_operand`),
# keyed by (eps, h, 2n - 1) and bounded by their summed table length:
# 2^17 entries (3 MB) hold 36-97 depth-6 zeta grids or 85-130 depth-2.
_MEASURE_MEMO = LRU(1 << 17, weight=lambda op: len(op.vals))


def clear_memo():
    """Empty every process memo: values, log G lines and measure tables."""
    _memo.clear()
    _LINE_MEMO.clear()
    _MEASURE_MEMO.clear()


def memoized(expr, omega, cfg, compute, meta=None):
    """The EvalResult of `compute()` for the value named by `expr` at
    this omega and quadrature config: from the memo, else from the
    installed store (meta["cached"] is then True), else computed and
    written to both.  `meta` is merged into the result's meta."""
    triple = (expr, repr(omega), cfg.fingerprint())

    def make():
        store = _ACTIVE
        hit = store.get(triple) if store is not None else None
        if hit is not None:
            from .quad import EvalResult   # quad imports this module
            return EvalResult(hit[0], hit[1], dict(meta or {}, cached=True))
        res = compute()
        res.meta.update(meta or {})
        if store is not None:
            store.put(triple, res.value, res.err_estimate)
        return res

    return _memo.get_or_make(triple, make)
