"""Exact word algebra for the deformed double-shuffle structure.

Words in the letters a, b carry coefficients in Q[h, h^-1], Laurent
polynomials in a central parameter h.  On the span of admissible
monomials two commutative products coexist: a shuffle with an h-weighted
merge term, and a harmonic (stuffle) product on the distinguished
alphabet

    E    = h*b        (the combination e1 - g1)
    G(k) = b a^k      (the letter g_k, k >= 1).

A letter is an int index, 0 for E and k for G(k), and an A-monomial
is the tuple of its letter indices.  It is admissible, a (possibly
empty) sequence of letters not ending in E, when its last index is not
0.  The harmonic product contracts two letters by adding their indices,

    E o E = h E,   E o G(k) = h G(k),   G(k) o G(l) = G(k+l),

with one power of h for each E that the sum loses.  The map sigma
(reverse the word, send a -> h*b and b -> h^-1 * a) is an
antiautomorphism exchanging the two products; the defect of that
exchange is `satoh_residual`, which must vanish identically.  All
arithmetic in this module is exact.

Laurent polynomials, a/b-word polynomials and A-monomial polynomials
are one type of finite linear combination with different keys; the
fourth kind of key, (xy-word, X power), is `ncseries.XSeries`.  The
structure constants of both products are integers, so coefficients are
Python ints; a Fraction appears only where one is put in (a p/q in
parsed text, or a non-integral rational passed by a caller).

The products run on flat term dicts {(key, e): c}, key an a/b string
(shuffle) or an A-monomial (harmonic), e the power of h.  The kernels
are graded: a memo value is a pair (keys, counts) of exact-size tuples,
summed in a plain dict as counts never cancel, and `_product` puts the
term k of k1 * k2 at h^(grade(k1) + grade(k2) - grade(k)), grade the
length (shuffle) or the number of E's (harmonic).  A final run of b
peels whole, so the shuffle memo keeps only merge nodes, words that end
in a or are empty.  A kernel extends the keys of its sub-results through
the bounded identity table of its suffix (`_TABLES`), so each distinct
word or monomial is one shared object: the harmonic keys are AMonomials
made once, and no product wraps a key.  One kernel call's keys are distinct,
so `shuffle` and `harmonic` write a product of one-term arguments as
{key: coefficient} at once; only longer arguments merge flat terms and
group them.  A coefficient c*h^e of one power comes from the bounded
table `_hpow`, shared by every result (an HbarLaurent is never
changed), so no coefficient is made per term.

`parse_hpoly` and `parse_apoly` invert the one printer, `_LinComb.__str__`:

    sum    := term (("+" | "-") term)*
    term   := "-"* factor* letter*          (not empty)
    factor := (p[/q] | "h" ["^" ["-"] n] | "(" sum ")") ["*"]

A parenthesised sum has no letters and no parentheses and is an
HbarLaurent.  A letter is a or b (HPoly) or E, G<k> (APoly), and the
word "1" is the factor 1.  Whitespace between tokens is free, and a "*"
must be followed by a factor or a letter.
"""

import functools
import re
from fractions import Fraction

__all__ = [
    "HbarLaurent",
    "HPoly",
    "E",
    "G",
    "AMonomial",
    "APoly",
    "shuffle",
    "harmonic",
    "sigma",
    "sigma_monomial",
    "satoh_residual",
    "check_index",
    "index_to_e_word",
    "dual_index",
    "parse_index",
    "parse_hpoly",
    "parse_apoly",
    "parse_amonomial",
    "monomials_up_to_weight",
]

# Bounds of the word-product memos, in entries: a benchmark pass holds
# 2,029-2,055 shuffle merge nodes and 1,957-1,973 harmonic pairs (seeds
# 11-31), `omzv verify algebra` 5,856 and 8,878 at --max-weight 5 and
# fills both at 6 (39,597 and 60,123 keys), tier-1 at most 10,230 and
# 9,656.  Shared coefficients c*h^e: 220-226 a pass, 84 and 201 at weight
# 5 and 6; tier-1's sums of many coefficients fill the bound (first in
# test_graded_kernels_match_the_letter_kernels_in_order).
_SHUFFLE_CACHE_SIZE = 32768
_HARMONIC_CACHE_SIZE = 16384
_HPOW_CACHE_SIZE = 1024
# Keys per identity table, and tables: a benchmark pass 15,750-16,110 in
# 22 suffix tables (the largest 3,818) and 5,786-5,909 in sigma's, verify
# algebra 24,346 in 22 and 10,890 at weight 5, 167,431 in 26 (the largest
# 46,279) and 31,709 at 6, tier-1 at most 49,048 keys in 33 tables.
_TABLE_SIZE = 65536
_TABLE_COUNT = 64


# ---------------------------------------------------------------------------
# Linear combinations

def _merge(t, pairs):
    """Add the (key, coefficient) pairs into the term dict t, dropping the
    zero sums and storing an integral Fraction as its int; returns t."""
    for k, c in pairs:
        s = t.get(k)
        s = c if s is None else s + c
        if s:
            t[k] = _rational(s) if type(s) is Fraction else s
        else:
            t.pop(k, None)
    return t


def _rational(q):
    """q as an int when it is integral, else as a Fraction."""
    if type(q) is int:
        return q
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class _LinComb:
    """Finite linear combination: the dict `t` maps key -> coefficient
    and never stores a zero coefficient.  Instances are treated as
    immutable.

    A subclass fixes the keys (`_key` normalises one, `_UNIT` is the key
    of 1, `_sort_key` and `_key_str` order and print them), the
    coefficients (`_coeff` normalises one, `_of` lifts an operand) and
    through the keys' `+` the product: exponents add, words
    concatenate."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in terms.items():
                k, c = self._key(k), self._coeff(c)
                if c:
                    t[k] = c
        self.t = t

    @classmethod
    def _make(cls, t):
        r = cls.__new__(cls)
        r.t = t
        return r

    @classmethod
    def _of(cls, x):
        """x as a `cls`: a number or an HbarLaurent times the unit key."""
        if isinstance(x, cls):
            return x
        if isinstance(x, (int, Fraction, HbarLaurent)):
            return cls({cls._UNIT: x})
        raise TypeError("expected %s or a scalar, got %s"
                        % (cls.__name__, type(x).__name__))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: 1})

    def is_zero(self):
        return not self.t

    def __bool__(self):
        return bool(self.t)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.t == other.t
        if isinstance(other, (int, Fraction)):
            other = self._of(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.t == other.t

    def __hash__(self):
        return hash(frozenset(self.t.items()))

    def __add__(self, other):
        return self._make(_merge(dict(self.t), self._of(other).t.items()))

    def __neg__(self):
        return self._make({k: -c for k, c in self.t.items()})

    def __sub__(self, other):
        return self + (-self._of(other))

    def __mul__(self, other):
        """Product of the keys (exponent sum, concatenation) extended
        bilinearly."""
        other = self._of(other)
        return self._make(_merge({}, (
            (k1 + k2, c1 * c2)
            for k1, c1 in self.t.items() for k2, c2 in other.t.items())))

    def items_sorted(self):
        return sorted(self.t.items(), key=lambda kc: self._sort_key(kc[0]))

    def __str__(self):
        parts = []
        for k, c in self.items_sorted():
            ks = self._key_str(k)
            cs = str(c)
            if isinstance(c, _LinComb) and len(c.t) > 1:
                cs = "(%s)" % cs
            if ks == "1":
                parts.append(cs)
            elif c == 1:
                parts.append(ks)
            elif c == -1:
                parts.append("-" + ks)
            else:
                parts.append("%s*%s" % (cs, ks))
        out = parts[0] if parts else "0"
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "%s<%s>" % (type(self).__name__, self)


# ---------------------------------------------------------------------------
# Laurent polynomials in h

class HbarLaurent(_LinComb):
    """Laurent polynomial in h: exponent -> rational coefficient."""

    __slots__ = ()
    _UNIT = 0
    _key = int
    _coeff = staticmethod(_rational)
    _sort_key = int

    @staticmethod
    def _key_str(e):
        return "1" if e == 0 else "h" if e == 1 else "h^%d" % e

    @staticmethod
    def of(x):
        if isinstance(x, HbarLaurent):
            return x
        return HbarLaurent({0: x})

    _of = of

    @staticmethod
    def h(exp=1, coeff=1):
        return HbarLaurent({exp: coeff})

    __radd__ = _LinComb.__add__
    __rmul__ = _LinComb.__mul__

    def __rsub__(self, other):
        return HbarLaurent.of(other) + (-self)

    def is_polynomial(self):
        """True when no negative power of h occurs."""
        return all(e >= 0 for e in self.t)

    def eval(self, value):
        """Substitute a numeric value for h."""
        return sum((complex(q) * value ** e for e, q in self.t.items()),
                   complex(0))


_H = HbarLaurent.h()
_ONE = HbarLaurent.one()


@functools.lru_cache(maxsize=_HPOW_CACHE_SIZE)
def _hpow(e, c):
    """c * h^e as one shared HbarLaurent; an integral Fraction c, equal
    to and hashed as its int, finds the int's entry and is stored as it."""
    return HbarLaurent._make({e: _rational(c)})


class _Tables(dict):
    """Identity tables, each filled by its caller: {key: key + x} for a
    suffix x a kernel appends (a run of a/b letters, or a letter index),
    and {monomial: (sigma word, shift)} under `sigma`.  `of` empties one
    of `maxsize` keys, all at `count`: a clear costs sharing, no value."""

    __slots__ = ()
    maxsize, count = _TABLE_SIZE, _TABLE_COUNT

    def of(self, x):
        t = self.get(x)
        if t is None or len(t) >= self.maxsize:
            if len(self) >= self.count:
                self.clear()
            t = self[x] = {}
        return t


_TABLES = _Tables()


# ---------------------------------------------------------------------------
# Polynomials in the free letters a, b
#
# A word is a plain string over "ab"; the empty word is "".

def word_to_str(w):
    return " ".join(w) if w else "1"


def _ab_word(w):
    """w as a word over a, b; ValueError for any other letter."""
    w = str(w)
    if w.strip("ab"):
        raise ValueError("word %r has a letter other than a, b" % w)
    return w


class HPoly(_LinComb):
    """Finite Q[h,h^-1]-linear combination of a/b words."""

    __slots__ = ()
    _UNIT = ""
    _key = staticmethod(_ab_word)
    _coeff = staticmethod(HbarLaurent.of)
    _key_str = staticmethod(word_to_str)

    @staticmethod
    def _sort_key(w):
        return (len(w), w)

    @staticmethod
    def word(w, coeff=1):
        return HPoly({w: coeff})


# ---------------------------------------------------------------------------
# Flat term dicts {(key, e): c}

def _flat(p):
    """The terms of an HPoly or an APoly as {(key, e): c}, one per power
    h^e of each coefficient."""
    return {(k, e): c for k, q in p.t.items() for e, c in q.t.items()}


def _grouped(cls, t):
    """Inverse of `_flat`: t as a `cls` with HbarLaurent coefficients."""
    out = {}
    for (k, e), c in t.items():
        q = out.get(k)
        out[k] = _hpow(e, c) if q is None else q + _hpow(e, c)
    return cls._make(out)


def _product(kernel, grade, f1, f2, cls=None):
    """Bilinear extension of a graded word kernel to flat term dicts, as
    flat terms or, given `cls`, as a `cls`; one kernel call's keys are
    distinct, so a product of one-term arguments merges nothing."""
    t = {}
    for (k1, e1), c1 in f1.items():
        for (k2, e2), c2 in f2.items():
            c, s = c1 * c2, e1 + e2 + grade(k1) + grade(k2)
            terms = zip(*kernel(k1, k2))
            if len(f1) == len(f2) == 1:
                if cls is None:
                    return {(k, s - grade(k)): n * c for k, n in terms}
                return cls._make({k: _hpow(s - grade(k), n * c)
                                  for k, n in terms})
            _merge(t, (((k, s - grade(k)), n * c) for k, n in terms))
    return t if cls is None else _grouped(cls, t)


# ---------------------------------------------------------------------------
# Shuffle product with h-correction
#
# Recursion on last letters, the h of a merge left to `_product`:
#   w*1 = 1*w = w
#   (u b^m) sh (v b^n) = (u sh v) b^(m+n)
#   (w a) sh (w' a)    = (w a sh w' + w sh w' a + (w sh w')) a
# The memo keeps the merge nodes, whose words end in a or are empty; its
# values are shared and never changed.

def _shuffle_terms(w1, w2, end=""):
    """The shuffle of w1, w2, then `end`, as (keys, counts)."""
    u, v = w1.rstrip("b"), w2.rstrip("b")
    run = w1[len(u):] + w2[len(v):] + end
    keys, counts = _shuffle_merge(u, v)
    if run:
        nxt = _TABLES.of(run)
        keys = [nxt.get(w) or nxt.setdefault(w, w + run) for w in keys]
    return keys, counts


@functools.lru_cache(maxsize=_SHUFFLE_CACHE_SIZE)
def _shuffle_merge(w1, w2):
    if not w1 or not w2:
        return (w1 + w2,), (1,)
    t = {}
    for u, v in ((w1[:-1], w2), (w1, w2[:-1]), (w1[:-1], w2[:-1])):
        for w, c in zip(*_shuffle_terms(u, v, "a")):
            t[w] = t.get(w, 0) + c
    return tuple(t), tuple(t.values())


def shuffle(p1, p2):
    """Bilinear extension of the word shuffle to HPoly arguments."""
    return _product(_shuffle_terms, len, _flat(HPoly._of(p1)),
                    _flat(HPoly._of(p2)), HPoly)


# ---------------------------------------------------------------------------
# The distinguished alphabet and admissible monomials

E = 0


def G(k):
    if k < 1:
        raise ValueError("G(k) needs k >= 1")
    return k


class AMonomial(tuple):
    """Word in the letters E, G(k) as its tuple of letter indices, 0 for
    E and k >= 1 for G(k); admissible when it does not end in E.  It
    equals, and hashes as, the plain tuple of its indices."""

    __slots__ = ()

    def __new__(cls, letters=()):
        m = tuple.__new__(cls, letters)
        for k in m:
            if type(k) is not int:
                raise TypeError("AMonomial takes int letter indices")
            if k < 0:
                raise ValueError("letter index must be >= 0")
        return m

    def _order(self):
        """Canonical order of a monomial or a plain tuple: by length,
        then by letter indices."""
        return (len(self), tuple(self))

    # all four, or the tuple order (by indices alone) would fill the rest
    def __lt__(self, other):
        return self._order() < AMonomial._order(other)

    def __le__(self, other):
        return self._order() <= AMonomial._order(other)

    def __gt__(self, other):
        return self._order() > AMonomial._order(other)

    def __ge__(self, other):
        return self._order() >= AMonomial._order(other)

    @property
    def weight(self):
        return sum(k or 1 for k in self)

    def is_admissible(self):
        return not self or self[-1] != 0

    def blocks(self):
        """Decompose an admissible monomial into (alpha_a, beta_a) pairs,
        one per G letter: E^alpha G(beta+1)."""
        if not self.is_admissible():
            raise ValueError("monomial ends in E, no block form")
        out = []
        alpha = 0
        for k in self:
            if k == 0:
                alpha += 1
            else:
                out.append((alpha, k - 1))
                alpha = 0
        return out

    @staticmethod
    def from_blocks(blocks):
        letters = []
        for alpha, beta in blocks:
            if alpha < 0 or beta < 0:
                raise ValueError("block exponents must be >= 0")
            letters.extend([E] * alpha)
            letters.append(G(beta + 1))
        return AMonomial(letters)

    def to_hpoly(self):
        """The single word prod b a^k times h^(#E)."""
        return APoly.monomial(self).to_hpoly()

    def __str__(self):
        return " ".join(["G%d" % k if k else "E" for k in self]) or "1"

    def __repr__(self):
        return "AMonomial<%s>" % (self,)


class APoly(_LinComb):
    """Finite Q[h,h^-1]-linear combination of A-monomials."""

    __slots__ = ()
    _UNIT = AMonomial()
    _coeff = staticmethod(HbarLaurent.of)
    _key_str = str
    _sort_key = staticmethod(AMonomial._order)

    @staticmethod
    def _key(m):
        return m if isinstance(m, AMonomial) else AMonomial(m)

    def __mul__(self, other):
        # `+` on tuple keys would concatenate into plain tuples
        raise TypeError("APoly has no word product; use harmonic")

    @staticmethod
    def monomial(m, coeff=1):
        return APoly({m: coeff})

    @staticmethod
    def of(x):
        """x as an APoly: an HPoly rewritten by `from_hpoly`, an
        AMonomial as its monomial, an APoly as itself."""
        if isinstance(x, HPoly):
            return APoly.from_hpoly(x)
        if isinstance(x, AMonomial):
            return APoly.monomial(x)
        if not isinstance(x, APoly):
            raise TypeError("expected APoly, HPoly, or AMonomial")
        return x

    @staticmethod
    def from_hpoly(p):
        """Rewrite an HPoly whose words all start with b (or are empty),
        terms in canonical order: each maximal block b a^k becomes G(k),
        a bare b becomes h^-1 * E."""
        t = {}
        for (w, e), c in _flat(HPoly._of(p)).items():
            if w and w[0] != "b":
                raise ValueError("word %r does not start with b" % w)
            m = _amono(map(len, w.split("b")[1:]))
            t[m, e - m.count(0)] = c
        return APoly._make(dict(_grouped(APoly, t).items_sorted()))

    def to_hpoly(self):
        """Each monomial m at h^e as the word b a^k1 ... b a^kr of m at
        h^(e + #E); distinct monomials have distinct words."""
        return _grouped(HPoly, {("".join(["b" + "a" * k for k in m]),
                                 e + m.count(0)): c
                                for (m, e), c in _flat(self).items()})


# a plain index tuple as a monomial, unchecked
_amono = functools.partial(tuple.__new__, AMonomial)


# ---------------------------------------------------------------------------
# Harmonic (stuffle) product on A-monomials
#
#   (w u) * (w' v) = (w * w'v) u + (wu * w') v + (w * w') (u o v)
# with the letter contraction
#   E o E = h E,   E o G(k) = h G(k),   G(k) o G(l) = G(k+l),
# which on letter indices is u + v, its h left to `_product`.

@functools.lru_cache(maxsize=_HARMONIC_CACHE_SIZE)
def _harmonic_terms(l1, l2):
    if not l1 or not l2:
        return (_amono(l1 + l2),), (1,)
    u, v = l1[-1], l2[-1]
    nxt = _TABLES.of(u)
    keys, counts = _harmonic_terms(l1[:-1], l2)
    t = {nxt.get(m) or nxt.setdefault(m, _amono(m + (u,))): c
         for m, c in zip(keys, counts)}
    for x, (keys, counts) in ((v, _harmonic_terms(l1, l2[:-1])),
                              (u + v, _harmonic_terms(l1[:-1], l2[:-1]))):
        nxt = _TABLES.of(x)
        for m, c in zip(keys, counts):
            m = nxt.get(m) or nxt.setdefault(m, _amono(m + (x,)))
            t[m] = t.get(m, 0) + c
    return tuple(t), tuple(t.values())


def _e_count(m):
    """The grade of the harmonic kernel: the number of E's in m."""
    return m.count(0)


def harmonic(p1, p2):
    """Bilinear extension of the harmonic product to APoly arguments."""
    return _product(_harmonic_terms, _e_count, _flat(APoly._of(p1)),
                    _flat(APoly._of(p2)), APoly)


# ---------------------------------------------------------------------------
# sigma and the Satoh residual

_SWAP = str.maketrans("ab", "ba")


def _sigma_terms(t):
    """`sigma` on flat a/b terms."""
    return {(w[::-1].translate(_SWAP), e + 2 * w.count("a") - len(w)): c
            for (w, e), c in t.items()}


def _sigma_harmonic(f1, f2):
    """The flat harmonic product of flat terms f1, f2 with each monomial m
    at h^e as its sigma word b^kr a ... b^k1 a at h^(e + #E + |m| - len m),
    |m| the index sum: word and |m| - len m from the table `sigma`."""
    sw, t = _TABLES.of(sigma), {}
    for (k1, e1), c1 in f1.items():
        for (k2, e2), c2 in f2.items():
            s, c, u = e1 + e2 + k1.count(0) + k2.count(0), c1 * c2, {}
            for m, n in zip(*_harmonic_terms(k1, k2)):
                w, d = sw.get(m) or sw.setdefault(m, (
                    "a".join(["b" * k for k in reversed(m)]) + "a" if m
                    else "", sum(m) - len(m)))
                u[w, s + d] = n * c
            if len(f1) == len(f2) == 1:
                return u
            _merge(t, u.items())
    return t


def sigma(p):
    """Antiautomorphism: reverse each word, swap a <-> b, and multiply the
    coefficient by h**(#a - #b).  sigma is Q[h,h^-1]-linear and an
    involution."""
    return _grouped(HPoly, _sigma_terms(_flat(HPoly._of(p))))


def sigma_monomial(m):
    """Image of an admissible monomial under sigma, in block form: the
    block exponents (alpha_a, beta_a) reverse and swap to
    (beta_r, alpha_r), ..., (beta_1, alpha_1)."""
    return AMonomial.from_blocks(
        [(beta, alpha) for alpha, beta in reversed(m.blocks())])


def satoh_residual(p1, p2):
    """p1 * p2 - sigma(sigma(p1) sh sigma(p2)) as an HPoly.

    Both arguments (HPoly or APoly) must lie in the span of admissible
    monomials with h-polynomial coefficients; the result is identically
    zero.  The harmonic side, as sigma words, meets the shuffle as it comes
    out; only a residual that does not vanish goes back through sigma.
    """
    a1, a2 = APoly.of(p1), APoly.of(p2)
    for ap in (a1, a2):
        for m, c in ap.t.items():
            if not m.is_admissible():
                raise ValueError("argument not in the admissible span")
            if not c.is_polynomial():
                raise ValueError("argument has h^-1 terms after rewriting")
    f1, f2 = _flat(a1), _flat(a2)
    t, one = _sigma_harmonic(f1, f2), _flat(APoly.one())
    sh = _product(_shuffle_terms, len, _sigma_harmonic(f1, one),
                  _sigma_harmonic(f2, one))
    if t == sh:
        return HPoly()
    _merge(t, ((k, -c) for k, c in sh.items()))
    return _grouped(HPoly, _sigma_terms(t))


# ---------------------------------------------------------------------------
# Indices

def check_index(k, admissible=True):
    """k as a tuple of integers >= 1, non-empty; when `admissible`, also
    with last entry >= 2, the condition for the nested sums and
    integrals to converge.  Raises ValueError otherwise."""
    entries = tuple(k)
    k = tuple(int(e) for e in entries)
    if k != entries or not k or any(e < 1 for e in k):
        raise ValueError("index entries must be integers >= 1")
    if admissible and k[-1] < 2:
        raise ValueError("index %r is not admissible (last entry must be "
                         ">= 2)" % (k,))
    return k


def index_to_e_word(k):
    """The product e_{k_1} ... e_{k_r} expanded in a/b words, where
    e_k = b a^k + h * b a^(k-1)."""
    p = HPoly.one()
    for e in check_index(k, admissible=False):
        p = p * HPoly({"b" + "a" * e: 1, "b" + "a" * (e - 1): _H})
    return p


def dual_index(k):
    """Dual of an admissible index: its word y x^(k_1-1) ... y x^(k_r-1),
    reversed with x and y exchanged, read back by `_word_index`.  An
    involution that preserves weight."""
    word = "".join("y" + "x" * (e - 1) for e in check_index(k))
    return _word_index(word[::-1].translate(str.maketrans("xy", "yx")))


def _word_index(w):
    """The index (k_1, ..., k_r) of a word y x^(k_1-1) ... y x^(k_r-1),
    unchecked: one entry per y, one more than the run of x after it."""
    return tuple(len(run) + 1 for run in w.split("y")[1:])


def parse_index(text):
    """Parse "1,3,2" (commas or whitespace) into an index tuple.  Empty
    fields such as "2,," are rejected."""
    text = text.strip()
    parts = text.split(",") if "," in text else text.split()
    try:
        k = tuple(int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError("bad index entry in %r" % text) from None
    if not k:
        raise ValueError("empty index")
    return check_index(k, admissible=False)


# ---------------------------------------------------------------------------
# Parsing, by the grammar of the module docstring

_TOKEN = re.compile(r"\s*(\^\s*-?\s*\d+|\d+(?:/\d+)?|[A-Za-z]\d*|\S)")


def _factor(toks):
    """The HbarLaurent of the coefficient factor at the end of `toks`."""
    t = toks.pop()
    if t == "(":
        c = _sum(toks, HbarLaurent, None, None)
        if toks[-1:] != [")"]:
            raise ValueError("expected ')'")
        toks.pop()
        return c
    if t != "h":
        try:
            return HbarLaurent.of(Fraction(t))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % t) from None
    if toks and toks[-1][0] == "^":    # "^-2" is one token
        return HbarLaurent.h(int("".join(toks.pop()[1:].split())))
    return _H


def _sum(toks, cls, letter, word):
    """The sum at the end of the reversed token list `toks`, popped off
    it: each term is cls({word(letters): coefficient}), its letters read
    by `letter`; with `letter` None a term is its coefficient, has no
    parenthesised factor, and the sum is an HbarLaurent."""
    out, negate = cls(), False
    while True:
        coeff = -_ONE if negate else _ONE
        while toks[-1:] == ["-"]:
            toks.pop()
            coeff = -coeff
        n = len(toks)
        while toks and (toks[-1][0].isdigit() or toks[-1] == "h"
                        or letter and toks[-1] == "("):
            coeff = coeff * _factor(toks)
            if toks[-1:] == ["*"]:
                toks.pop()
                if not toks or not (toks[-1][0].isalnum() or toks[-1] == "("):
                    raise ValueError("'*' ends a term")
        letters = []
        while letter and toks and toks[-1][0].isalpha():
            letters.append(letter(toks.pop()))
        if len(toks) == n:
            raise ValueError("empty term")
        out = out + (cls({word(letters): coeff}) if letter else coeff)
        if toks[-1:] not in (["+"], ["-"]):
            return out
        negate = toks.pop() == "-"


def _parse(text, cls, letter, word):
    toks = _TOKEN.findall(text)[::-1]
    out = _sum(toks, cls, letter, word)
    if toks:
        raise ValueError("unexpected %r in %r" % (toks[-1], text))
    return out


def _a_letter(t):
    if t == "E":
        return E
    if t[0] != "G" or len(t) == 1:
        raise ValueError("unknown letter %r" % t)
    return G(int(t[1:]))


def parse_hpoly(text):
    """The HPoly printed as `text`."""
    return _parse(text, HPoly, _ab_word, "".join)


def parse_apoly(text):
    """The APoly printed as `text`."""
    return _parse(text, APoly, _a_letter, tuple)


def parse_amonomial(text):
    """Parse a single monomial like "E G2 G1" (or "1")."""
    ap = parse_apoly(text)
    if len(ap.t) != 1:
        raise ValueError("not a single monomial: %r" % text)
    (m, c), = ap.t.items()
    if c != _ONE:
        raise ValueError("monomial carries a coefficient: %r" % text)
    return m


# ---------------------------------------------------------------------------
# Enumeration

def monomials_up_to_weight(w_max):
    """All admissible A-monomials of weight <= w_max, sorted by weight
    then canonically.  Includes the empty monomial."""
    out = [AMonomial()]
    frontier = [AMonomial()]
    for _ in range(w_max):
        new = []
        for m in frontier:
            for k in range(0, w_max - m.weight + 1):
                if m.weight + (k or 1) <= w_max:
                    new.append(AMonomial(m + (k,)))
        frontier = new
        out.extend(new)
    out = [m for m in out if m.is_admissible()]
    return sorted(out, key=lambda m: (m.weight, m._order()))
