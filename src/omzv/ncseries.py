"""Noncommutative polynomials in x, y with a central series variable X.

Truncated series sum_j c_j X^j whose coefficients c_j are exact rational
combinations of words in the letters x, y.  The transform tau is the
anti-automorphism fixed by

    tau(X) = X
    tau(x) = (1 + y x X)^-1 y
    tau(y) = x (1 + y x X)

It restricts to the subalgebra generated by x, y, X and (1 + y x X)^-1;
whether tau is an involution is observed in tests, never assumed here.

Words starting with y and ending with x encode indices through
z_k = y x^(k-1); see `z_decompose`.
"""

from fractions import Fraction

__all__ = [
    "XSeries",
    "x_word",
    "y_word",
    "series_mul",
    "geom_inverse",
    "tau",
    "tau_letter",
    "z_decompose",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 4


def _clean(d):
    return {w: q for w, q in d.items() if q}


class XSeries:
    """Polynomial in X of degree <= order with xy-word coefficients.

    coeffs is a list of dicts (word -> Fraction), one per X power,
    indices 0..order.  Treated as immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order=DEFAULT_ORDER, coeffs=None):
        order = int(order)
        if order < 0:
            raise ValueError("order must be >= 0")
        self.order = order
        cs = [dict() for _ in range(order + 1)]
        if coeffs is not None:
            for j, d in enumerate(coeffs):
                if j > order:
                    break
                for w, q in d.items():
                    q = Fraction(q)
                    if q:
                        cs[j][w] = q
        self.coeffs = cs

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order=DEFAULT_ORDER):
        return XSeries(order)

    @staticmethod
    def one(order=DEFAULT_ORDER):
        return XSeries(order, [{"": Fraction(1)}])

    @staticmethod
    def word(w, order=DEFAULT_ORDER, coeff=1, xpow=0):
        if any(ch not in "xy" for ch in w):
            raise ValueError("word letters must be x or y")
        s = XSeries(order)
        if xpow <= order:
            q = Fraction(coeff)
            if q:
                s.coeffs[xpow][w] = q
        return s

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return all(not d for d in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(_clean(a) == _clean(b)
                   for a, b in zip(self.coeffs, other.coeffs))

    def __add__(self, other):
        self._check(other)
        out = XSeries(self.order)
        for j in range(self.order + 1):
            d = dict(self.coeffs[j])
            for w, q in other.coeffs[j].items():
                s = d.get(w, Fraction(0)) + q
                if s:
                    d[w] = s
                else:
                    d.pop(w, None)
            out.coeffs[j] = d
        return out

    def __neg__(self):
        out = XSeries(self.order)
        out.coeffs = [{w: -q for w, q in d.items()} for d in self.coeffs]
        return out

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        c = Fraction(c)
        out = XSeries(self.order)
        if c:
            out.coeffs = [{w: q * c for w, q in d.items()}
                          for d in self.coeffs]
        return out

    def __mul__(self, other):
        return series_mul(self, other)

    def _check(self, other):
        if not isinstance(other, XSeries):
            raise TypeError("expected XSeries")
        if self.order != other.order:
            raise ValueError("truncation orders differ: %d vs %d"
                             % (self.order, other.order))

    def words(self):
        """All words appearing, any X power."""
        out = set()
        for d in self.coeffs:
            out.update(d)
        return out

    # -- text form ----------------------------------------------------

    def __str__(self):
        parts = []
        for j in range(self.order + 1):
            for w in sorted(self.coeffs[j], key=lambda w: (len(w), w)):
                q = self.coeffs[j][w]
                sign = "-" if q < 0 else ""
                q = abs(q)
                body = " ".join(w)
                if j:
                    body = (body + " " if body else "") + "X^%d" % j
                if not body:
                    parts.append(sign + str(q))
                elif q == 1:
                    parts.append(sign + body)
                else:
                    parts.append(sign + str(q) + "*" + body)
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
        return "XSeries<%s>" % self


def x_word(order=DEFAULT_ORDER):
    return XSeries.word("x", order)


def y_word(order=DEFAULT_ORDER):
    return XSeries.word("y", order)


def series_mul(s, s2):
    """Product, truncated at the common order (orders must match)."""
    s._check(s2)
    out = XSeries(s.order)
    for j1, d1 in enumerate(s.coeffs):
        if not d1:
            continue
        for j2, d2 in enumerate(s2.coeffs):
            if not d2 or j1 + j2 > s.order:
                continue
            acc = out.coeffs[j1 + j2]
            for w1, q1 in d1.items():
                for w2, q2 in d2.items():
                    w = w1 + w2
                    q = acc.get(w, Fraction(0)) + q1 * q2
                    if q:
                        acc[w] = q
                    else:
                        acc.pop(w, None)
    return out


def geom_inverse(u, order=DEFAULT_ORDER):
    """(1 + u X)^-1 = sum_j (-1)^j u^j X^j for an xy-word u."""
    if isinstance(u, XSeries):
        raise TypeError("u must be a plain word, not a series")
    if any(ch not in "xy" for ch in u):
        raise ValueError("word letters must be x or y")
    out = XSeries(order)
    for j in range(order + 1):
        out.coeffs[j][u * j] = Fraction(-1) ** j
    return out


def tau_letter(letter, order=DEFAULT_ORDER):
    """Image of a single letter under tau."""
    if letter == "x":
        return series_mul(geom_inverse("yx", order), y_word(order))
    if letter == "y":
        one_plus = XSeries.one(order) + XSeries.word("yx", order, xpow=1)
        return series_mul(x_word(order), one_plus)
    raise ValueError("unknown letter %r" % letter)


def tau(s):
    """Anti-automorphism tau applied to an XSeries, word by word:
    tau(l_1 ... l_n) = tau(l_n) ... tau(l_1), tau(X) = X."""
    order = s.order
    images = {"x": tau_letter("x", order), "y": tau_letter("y", order)}
    out = XSeries.zero(order)
    for j, d in enumerate(s.coeffs):
        for w, q in d.items():
            img = XSeries.one(order)
            for letter in reversed(w):
                img = series_mul(img, images[letter])
            out = out + _xshift(img, j, order).scaled(q)
    return out


def _xshift(s, j, order):
    out = XSeries(order)
    for i, d in enumerate(s.coeffs):
        if i + j <= order:
            out.coeffs[i + j] = dict(d)
    return out


def z_decompose(w):
    """Index of a word in y<h>x: split at each y, a block y x^(k-1)
    contributing the entry k.  "yxx" -> (3,), "yyx" -> (1, 2)."""
    if not w or w[0] != "y" or w[-1] != "x":
        raise ValueError("word %r does not start with y and end with x" % w)
    if any(ch not in "xy" for ch in w):
        raise ValueError("word letters must be x or y")
    out = []
    i = 0
    n = len(w)
    while i < n:
        if w[i] != "y":
            raise ValueError("malformed block in %r" % w)
        j = i + 1
        while j < n and w[j] == "x":
            j += 1
        out.append(j - i)
        i = j
    return tuple(out)

