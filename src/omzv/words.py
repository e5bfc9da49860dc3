"""Exact word algebra for the deformed double-shuffle structure.

Words in the letters a, b carry coefficients in Q[h, h^-1], Laurent
polynomials in a central parameter h.  On the span of admissible
monomials two commutative products coexist: a shuffle with an h-weighted
merge term, and a harmonic (stuffle) product on the distinguished
alphabet

    E    = h*b        (the combination e1 - g1)
    G(k) = b a^k      (the letter g_k, k >= 1).

An admissible monomial is a (possibly empty) sequence of these letters
not ending in E.  The map sigma (reverse the word, send a -> h*b and
b -> h^-1 * a) is an antiautomorphism exchanging the two products; the
defect of that exchange is `satoh_residual`, which must vanish
identically.  All arithmetic in this module is exact.

Laurent polynomials, a/b-word polynomials and A-monomial polynomials
are one type of finite linear combination with different keys.  The
structure constants of both products are integers, so coefficients are
Python ints; a Fraction appears only where one is put in (a p/q in
parsed text, or a non-integral rational passed by a caller).

The products run on flat term dicts {(key, e): c}, key an a/b string
(shuffle) or an int tuple, 0 = E and k = G(k) (harmonic), e the power of
h.  The public functions flatten their HPoly/APoly arguments and group
the result into HbarLaurent coefficients once, at return.
"""

import functools
import re
from fractions import Fraction

__all__ = [
    "HbarLaurent",
    "HPoly",
    "ALetter",
    "E",
    "G",
    "AMonomial",
    "APoly",
    "shuffle",
    "harmonic",
    "sigma",
    "sigma_monomial",
    "satoh_residual",
    "to_a_basis",
    "check_index",
    "index_to_e_word",
    "dual_index",
    "parse_index",
    "parse_word",
    "parse_hpoly",
    "parse_apoly",
    "parse_amonomial",
    "monomials_up_to_weight",
]

# Bounds of the memos of the word products, about twice the entries that
# `omzv verify algebra --max-weight 5` holds (15,170 and 8,878); tier-1,
# which runs that battery too, holds 21,157 and 9,582, and one algebra
# benchmark pass about 5,600 and 2,000.
_SHUFFLE_CACHE_SIZE = 32768
_HARMONIC_CACHE_SIZE = 16384


# ---------------------------------------------------------------------------
# Linear combinations

def _merge(t, pairs):
    """Add the (key, coefficient) pairs into the term dict t, dropping the
    zero sums; returns t."""
    for k, c in pairs:
        s = t.get(k)
        s = c if s is None else s + c
        if s:
            t[k] = s
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
                c = self._coeff(c)
                if c:
                    t[self._key(k)] = c
        self.t = t

    @classmethod
    def _make(cls, t):
        r = cls.__new__(cls)
        r.t = t
        return r

    @classmethod
    def _of(cls, x):
        return x

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
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
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

def _flat(p, key=str):
    """The terms of an HPoly (or, with `_indices`, an APoly) as
    {(key, e): c}, one per power h^e of each coefficient."""
    return {(key(k), e): c for k, q in p.t.items() for e, c in q.t.items()}


def _grouped(cls, t):
    """Inverse of `_flat`: t as a `cls` with HbarLaurent coefficients."""
    out = {}
    for (k, e), c in t.items():
        out.setdefault(k, {})[e] = c
    return cls._make({k: HbarLaurent._make(q) for k, q in out.items()})


def _product(kernel, f1, f2):
    """Bilinear extension of a memoized word kernel to flat term dicts."""
    t = {}
    for (k1, e1), c1 in f1.items():
        for (k2, e2), c2 in f2.items():
            c, s = c1 * c2, e1 + e2
            _merge(t, (((k, e + s), q * c)
                       for (k, e), q in kernel(k1, k2).items()))
    return t


# ---------------------------------------------------------------------------
# Shuffle product with h-correction
#
# Recursion on last letters:
#   w*1 = 1*w = w
#   (w b) sh w'      = (w sh w') b        (either factor ending in b)
#   (w a) sh (w' a)  = (w a sh w' + w sh w' a + h * (w sh w')) a
# Memo values are shared, so a merge into one starts from a copy.

@functools.lru_cache(maxsize=_SHUFFLE_CACHE_SIZE)
def _shuffle_terms(w1, w2):
    if not w1 or not w2:
        return {(w1 + w2, 0): 1}
    if w1[-1] == "b" or w2[-1] == "b":
        t = (_shuffle_terms(w1[:-1], w2) if w1[-1] == "b"
             else _shuffle_terms(w1, w2[:-1]))
        return {(w + "b", e): c for (w, e), c in t.items()}
    t = dict(_shuffle_terms(w1[:-1], w2))
    _merge(t, _shuffle_terms(w1, w2[:-1]).items())
    _merge(t, (((w, e + 1), c)
               for (w, e), c in _shuffle_terms(w1[:-1], w2[:-1]).items()))
    return {(w + "a", e): c for (w, e), c in t.items()}


def shuffle(p1, p2):
    """Bilinear extension of the word shuffle to HPoly arguments."""
    return _grouped(HPoly, _product(_shuffle_terms, _flat(p1), _flat(p2)))


# ---------------------------------------------------------------------------
# The distinguished alphabet and admissible monomials

class ALetter:
    """Letter of the distinguished alphabet: E or G(k).

    Encoded by a single integer, 0 for E and k >= 1 for G(k).  Interned
    in `_LETTERS`, one per k, letters compare and hash by identity.
    """

    __slots__ = ("k",)

    def __new__(cls, k):
        return _LETTERS[int(k)]

    def __reduce__(self):
        return ALetter, (self.k,)

    @property
    def is_e(self):
        return self.k == 0

    @property
    def weight(self):
        return self.k if self.k else 1

    def __lt__(self, other):
        return self.k < other.k

    def __str__(self):
        return "E" if self.k == 0 else "G%d" % self.k

    def __repr__(self):
        return "E" if self.k == 0 else "G(%d)" % self.k


class _Letters(dict):
    """Interned letters by index: looking up a new index makes one."""

    def __missing__(self, k):
        if k < 0:
            raise ValueError("letter index must be >= 0")
        letter = object.__new__(ALetter)
        letter.k = k
        return self.setdefault(k, letter)   # one letter even under threads


_LETTERS = _Letters()
E = ALetter(0)


def G(k):
    if k < 1:
        raise ValueError("G(k) needs k >= 1")
    return ALetter(k)


class AMonomial:
    """Word in the letters E, G(k); admissible when it does not end in E."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for l in letters:
            if not isinstance(l, ALetter):
                raise TypeError("AMonomial takes ALetter entries")
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        return isinstance(other, AMonomial) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def _order(self):
        """Canonical order: by length, then by letter indices."""
        return (len(self.letters), tuple(l.k for l in self.letters))

    def __lt__(self, other):
        return self._order() < other._order()

    @property
    def weight(self):
        return sum(l.weight for l in self.letters)

    def is_admissible(self):
        return not self.letters or not self.letters[-1].is_e

    def blocks(self):
        """Decompose an admissible monomial into (alpha_a, beta_a) pairs,
        one per G letter: E^alpha G(beta+1)."""
        if not self.is_admissible():
            raise ValueError("monomial ends in E, no block form")
        out = []
        alpha = 0
        for l in self.letters:
            if l.is_e:
                alpha += 1
            else:
                out.append((alpha, l.k - 1))
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
        if not self.letters:
            return "1"
        return " ".join(str(l) for l in self.letters)

    def __repr__(self):
        return "AMonomial<%s>" % self


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
        for (w, e), c in _flat(p).items():
            if w and w[0] != "b":
                raise ValueError("word %r does not start with b" % w)
            m = tuple(map(len, w.split("b")[1:]))
            t[AMonomial(map(_LETTERS.__getitem__, m)), e - m.count(0)] = c
        return APoly._make(dict(_grouped(APoly, t).items_sorted()))

    def to_hpoly(self):
        return _grouped(HPoly, _ab_terms(_flat(self, _indices)))


# ---------------------------------------------------------------------------
# Harmonic (stuffle) product on A-monomials
#
#   (w u) * (w' v) = (w * w'v) u + (wu * w') v + (w * w') (u o v)
# with the letter contraction
#   E o E = h E,   E o G(k) = h G(k),   G(k) o G(l) = G(k+l),
# which on letter indices is u o v = h^[u v == 0] (u + v).

@functools.lru_cache(maxsize=_HARMONIC_CACHE_SIZE)
def _harmonic_terms(l1, l2):
    if not l1 or not l2:
        return {(l1 + l2, 0): 1}
    u, v = l1[-1], l2[-1]
    t = {(m + (u,), e): c
         for (m, e), c in _harmonic_terms(l1[:-1], l2).items()}
    _merge(t, (((m + (v,), e), c)
               for (m, e), c in _harmonic_terms(l1, l2[:-1]).items()))
    w, q = (u + v,), int(not (u and v))
    _merge(t, (((m + w, e + q), c)
               for (m, e), c in _harmonic_terms(l1[:-1], l2[:-1]).items()))
    return t


def _indices(m):
    """The letter indices of the monomial m."""
    return tuple(l.k for l in m.letters)


def _ab_terms(t):
    """Flat A-monomial terms as flat a/b terms: (m, e) becomes the word
    b a^k1 ... b a^kr of m at h^(e + #E).  Distinct monomials have
    distinct words."""
    return {("".join(["b" + "a" * k for k in m]), e + m.count(0)): c
            for (m, e), c in t.items()}


def harmonic(p1, p2):
    """Bilinear extension of the harmonic product to APoly arguments."""
    t = _product(_harmonic_terms, _flat(p1, _indices), _flat(p2, _indices))
    return _grouped(APoly, {(AMonomial(map(_LETTERS.__getitem__, m)), e): c
                            for (m, e), c in t.items()})


# ---------------------------------------------------------------------------
# sigma and the Satoh residual

_SWAP = str.maketrans("ab", "ba")


def _sigma_terms(t):
    """`sigma` on flat a/b terms."""
    return {(w[::-1].translate(_SWAP), e + 2 * w.count("a") - len(w)): c
            for (w, e), c in t.items()}


def sigma(p):
    """Antiautomorphism: reverse each word, swap a <-> b, and multiply the
    coefficient by h**(#a - #b).  sigma is Q[h,h^-1]-linear and an
    involution."""
    return _grouped(HPoly, _sigma_terms(_flat(p)))


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
    zero.  Both sides are compared as flat a/b terms.
    """
    a1 = p1 if isinstance(p1, APoly) else APoly.from_hpoly(p1)
    a2 = p2 if isinstance(p2, APoly) else APoly.from_hpoly(p2)
    for ap in (a1, a2):
        for m, c in ap.t.items():
            if not m.is_admissible():
                raise ValueError("argument not in the admissible span")
            if not c.is_polynomial():
                raise ValueError("argument has h^-1 terms after rewriting")
    f1, f2 = _flat(a1, _indices), _flat(a2, _indices)
    t = _ab_terms(_product(_harmonic_terms, f1, f2))
    s1, s2 = (_sigma_terms(_ab_terms(f)) for f in (f1, f2))
    sh = _sigma_terms(_product(_shuffle_terms, s1, s2))
    _merge(t, ((k, -c) for k, c in sh.items()))
    return _grouped(HPoly, t)


# ---------------------------------------------------------------------------
# Rewriting a/b words in the distinguished alphabet

def to_a_basis(p):
    """`APoly.from_hpoly` as a list of (coefficient, AMonomial) pairs."""
    return [(c, m) for m, c in APoly.from_hpoly(p).t.items()]


# ---------------------------------------------------------------------------
# Indices

def check_index(k, admissible=True):
    """k as a tuple of integers >= 1, non-empty; when `admissible`, also
    with last entry >= 2, the condition for the nested sums and
    integrals to converge.  Raises ValueError otherwise."""
    k = tuple(int(e) for e in k)
    if not k or any(e < 1 for e in k):
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
    """Dual of an admissible index.

    Writing k = ({1}^(b1-1), a1+1, ..., {1}^(br-1), ar+1), the dual is
    ({1}^(ar-1), br+1, ..., {1}^(a1-1), b1+1).  An involution that
    preserves weight.
    """
    k = check_index(k)
    blocks = []
    i = 0
    while i < len(k):
        ones = 0
        while k[i] == 1:
            ones += 1
            i += 1
        blocks.append((k[i] - 1, ones + 1))   # (a_j, b_j)
        i += 1
    out = []
    for a, b in reversed(blocks):
        out.extend([1] * (a - 1))
        out.append(b + 1)
    return tuple(out)


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
# Parsing (whitespace-tolerant; inverse of the canonical printers)

_TOKEN = re.compile(r"""
    (?P<lpar>\() | (?P<rpar>\)) | (?P<plus>\+) | (?P<minus>-)
  | (?P<star>\*) | (?P<caret>\^)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z]\d*)
""", re.VERBOSE)


def _tokenize(text):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("bad character %r at %d" % (text[pos], pos))
        toks.append((m.lastgroup, m.group()))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, toks, letter_parser):
        self.toks = toks
        self.i = 0
        self.letter = letter_parser

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind):
        k, v = self.take()
        if k != kind:
            raise ValueError("expected %s, got %r" % (kind, v))
        return v

    # laurent := lterm (("+"|"-") lterm)*
    def laurent(self):
        out = self.lterm()
        while True:
            k, _ = self.peek()
            if k == "plus":
                self.take()
                out = out + self.lterm()
            elif k == "minus":
                self.take()
                out = out - self.lterm()
            else:
                return out

    # lterm := ["-"] (num ["*" hfac] | hfac)
    def lterm(self):
        sign = 1
        while self.peek()[0] == "minus":
            self.take()
            sign = -sign
        k, v = self.peek()
        if k == "num":
            self.take()
            q = Fraction(v)
            if self.peek()[0] == "star":
                save = self.i
                self.take()
                if self.peek() == ("name", "h"):
                    return HbarLaurent.of(sign * q) * self.hfac()
                self.i = save
            return HbarLaurent.of(sign * q)
        if (k, v) == ("name", "h"):
            return HbarLaurent.of(sign) * self.hfac()
        raise ValueError("expected coefficient, got %r" % (v,))

    def hfac(self):
        k, v = self.take()
        if (k, v) != ("name", "h"):
            raise ValueError("expected h, got %r" % v)
        if self.peek()[0] == "caret":
            self.take()
            sign = 1
            if self.peek()[0] == "minus":
                self.take()
                sign = -1
            e = int(self.expect("num"))
            return HbarLaurent.h(sign * e)
        return HbarLaurent.h(1)

    # poly := ["-"] term (("+"|"-") term)*
    def poly(self, zero, add, neg):
        first = self.term()
        out = add(zero, first)
        while True:
            k, _ = self.peek()
            if k == "plus":
                self.take()
                out = add(out, self.term())
            elif k == "minus":
                self.take()
                out = add(out, neg(self.term()))
            else:
                if self.i != len(self.toks):
                    raise ValueError("trailing input near %r" % (self.peek()[1],))
                return out

    # term := coeff ["*"] word | coeff | word
    def term(self):
        sign = 1
        while self.peek()[0] == "minus":
            self.take()
            sign = -sign
        coeff = HbarLaurent.of(sign)
        k, v = self.peek()
        if k == "lpar":
            self.take()
            coeff = coeff * self.laurent()
            self.expect("rpar")
            if self.peek()[0] == "star":
                self.take()
        elif k == "num" or (k, v) == ("name", "h"):
            coeff = coeff * self.lterm()
            if self.peek()[0] == "star":
                self.take()
        return self.word(coeff)

    # word := "1" | letter+
    def word(self, coeff):
        letters = []
        while True:
            k, v = self.peek()
            if k == "num" and v == "1" and not letters:
                self.take()
                break
            if k == "name" and v != "h":
                self.take()
                letters.append(self.letter(v))
            else:
                break
        return coeff, letters


def _ab_letter(tok):
    if tok in ("a", "b"):
        return tok
    raise ValueError("unknown letter %r" % tok)


def _a_letter(tok):
    if tok == "E":
        return E
    if tok.startswith("G") and tok[1:].isdigit():
        return G(int(tok[1:]))
    raise ValueError("unknown letter %r" % tok)


def parse_word(text):
    """Parse a plain a/b word like "b a a" (or "1" for the empty word)."""
    toks = _tokenize(text)
    p = _Parser(toks, _ab_letter)
    coeff, letters = p.word(HbarLaurent.one())
    if p.i != len(toks) or coeff != _ONE:
        raise ValueError("not a plain word: %r" % text)
    return "".join(letters)


def parse_hpoly(text):
    toks = _tokenize(text)
    p = _Parser(toks, _ab_letter)

    def add(acc, term):
        coeff, letters = term
        return acc + HPoly.word("".join(letters), coeff)

    def neg(term):
        coeff, letters = term
        return -coeff, letters

    return p.poly(HPoly.zero(), add, neg)


def parse_apoly(text):
    toks = _tokenize(text)
    p = _Parser(toks, _a_letter)

    def add(acc, term):
        coeff, letters = term
        return acc + APoly.monomial(AMonomial(letters), coeff)

    def neg(term):
        coeff, letters = term
        return -coeff, letters

    return p.poly(APoly.zero(), add, neg)


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

def monomials_up_to_weight(w_max, admissible_only=True):
    """All A-monomials of weight <= w_max (admissible ones by default),
    sorted by weight then canonically.  Includes the empty monomial."""
    out = [AMonomial()]
    frontier = [AMonomial()]
    for _ in range(w_max):
        new = []
        for m in frontier:
            for k in range(0, w_max - m.weight + 1):
                l = E if k == 0 else ALetter(k)
                if m.weight + l.weight <= w_max:
                    new.append(AMonomial(m.letters + (l,)))
        frontier = new
        out.extend(new)
    if admissible_only:
        out = [m for m in out if m.is_admissible()]
    return sorted(out, key=lambda m: (m.weight, m._order()))
