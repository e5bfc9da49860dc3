"""Noncommutative polynomials in x, y with a central series variable X.

An `XSeries` is a finite exact rational combination of terms w X^j, w a
word in the letters x, y and j >= 0.  The transform tau is the
anti-automorphism fixed by

    tau(X) = X
    tau(x) = (1 + y x X)^-1 y
    tau(y) = x (1 + y x X)

It restricts to the subalgebra generated by x, y, X and (1 + y x X)^-1;
whether tau is an involution is observed in tests, never assumed here.
The image of x is an infinite series in X, so `tau` takes a truncation
order and drops the higher powers of X after each product; a series
itself carries no order.

Words starting with y and ending with x encode indices through
z_k = y x^(k-1); see `z_decompose`.
"""

from .words import _LinComb, _merge, _rational, _word_index

__all__ = ["XSeries", "tau", "z_decompose"]


def _xy_key(k):
    """k = (word, X power) with the letters and the power checked."""
    w, j = k
    w, j = str(w), int(j)
    if w.strip("xy"):
        raise ValueError("word letters must be x or y")
    if j < 0:
        raise ValueError("X power must be >= 0")
    return w, j


class XSeries(_LinComb):
    """Rational combination of terms w X^j: (xy-word, X power) ->
    coefficient."""

    __slots__ = ()
    _UNIT = ("", 0)
    _key = staticmethod(_xy_key)
    _coeff = staticmethod(_rational)

    @staticmethod
    def _sort_key(k):
        w, j = k
        return (j, len(w), w)

    @staticmethod
    def _key_str(k):
        w, j = k
        return " ".join(list(w) + (["X^%d" % j] if j else [])) or "1"

    @classmethod
    def _of(cls, x):
        return x if isinstance(x, XSeries) else cls({cls._UNIT: x})

    @staticmethod
    def word(w, coeff=1, xpow=0):
        return XSeries({(w, xpow): coeff})

    def __mul__(self, other):
        """Words concatenate and X powers add."""
        other = self._of(other)
        return self._make(_merge({}, (
            ((w1 + w2, j1 + j2), c1 * c2)
            for (w1, j1), c1 in self.t.items()
            for (w2, j2), c2 in other.t.items())))

    def truncated(self, order):
        """The terms with X power <= order."""
        return self._make({k: c for k, c in self.t.items() if k[1] <= order})


def tau(s, order):
    """Anti-automorphism tau applied to an XSeries word by word,
    tau(l_1 ... l_n X^j) = tau(l_n) ... tau(l_1) X^j, with every power of
    X above `order` dropped."""
    if order < 0:
        raise ValueError("order must be >= 0")
    images = {
        "x": XSeries({("yx" * j + "y", j): (-1) ** j
                      for j in range(order + 1)}),
        "y": XSeries({("x", 0): 1, ("xyx", 1): 1}).truncated(order),
    }
    out = XSeries.zero()
    for (w, j), q in s.t.items():
        img = XSeries({("", j): q}).truncated(order)
        for letter in reversed(w):
            img = (img * images[letter]).truncated(order)
        out = out + img
    return out


def z_decompose(w):
    """Index of a word in y<h>x: split at each y, a block y x^(k-1)
    contributing the entry k.  "yxx" -> (3,), "yyx" -> (1, 2)."""
    if not w or w[0] != "y" or w[-1] != "x":
        raise ValueError("word %r does not start with y and end with x" % w)
    if any(ch not in "xy" for ch in w):
        raise ValueError("word letters must be x or y")
    return _word_index(w)
