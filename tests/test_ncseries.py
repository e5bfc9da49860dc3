"""Noncommutative xy-series with a central marker X, and the tau map."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzv.ncseries import XSeries, tau, z_decompose


# ---------------------------------------------------------------------------
# Helpers: the inverse of z_decompose, and a parser for printed series
# (the round trip of XSeries.__str__).

def index_to_xy_word(k):
    """Inverse of z_decompose: the word z_{k_1} ... z_{k_r}."""
    if not k or any(e < 1 for e in k):
        raise ValueError("index entries must be >= 1")
    return "".join("y" + "x" * (e - 1) for e in k)


_XTOK = re.compile(r"X\^(\d+)|X|([xy])|(\d+(?:/\d+)?)|(\*)|(\+)|(-)|(\s+)")


def parse_xseries(text):
    """Parse "y x x - y x y x X^1" style text (whitespace tolerant)."""
    pos = 0
    terms = []
    cur_sign = 1
    cur = None   # [coeff, word, xpow]

    def flush():
        nonlocal cur
        if cur is not None:
            terms.append(cur)
            cur = None

    def ensure():
        nonlocal cur
        if cur is None:
            cur = [Fraction(cur_sign), "", 0]

    n = len(text)
    while pos < n:
        m = _XTOK.match(text, pos)
        if not m:
            raise ValueError("bad character %r at %d" % (text[pos], pos))
        pos = m.end()
        xp, letter, num, star, plus, minus, ws = m.groups()
        if ws is not None:
            continue
        if plus is not None or minus is not None:
            flush()
            cur_sign = -1 if minus is not None else 1
            continue
        ensure()
        if letter is not None:
            cur[1] += letter
        elif num is not None:
            if cur[1] or cur[2]:
                raise ValueError("coefficient after word in %r" % text)
            cur[0] *= Fraction(num)
        elif star is not None:
            continue
        elif m.group(0) == "X":
            cur[2] += 1
        elif xp is not None:
            cur[2] += int(xp)
    flush()
    out = XSeries.zero()
    for coeff, w, xpow in terms:
        out = out + XSeries.word(w, coeff, xpow)
    return out


def W(w, coeff=1, xpow=0):
    return XSeries.word(w, coeff=coeff, xpow=xpow)


def test_geom_inverse_is_inverse():
    """tau(x) = (1 + y x X)^-1 y up to X^n: the geometric inverse."""
    one_plus = XSeries.one() + W("yx", xpow=1)
    for n in (1, 3, 4):
        assert (one_plus * tau(W("x"), n)).truncated(n) == W("y")


def test_tau_letters():
    want_x = (W("y") - W("yxy", xpow=1) + W("yxyxy", xpow=2)
              - W("yxyxyxy", xpow=3))
    assert tau(W("x"), 3) == want_x
    assert tau(W("y"), 3) == W("x") + W("xyx", xpow=1)
    assert tau(W("y"), 0) == W("x")
    with pytest.raises(ValueError):
        W("z")
    with pytest.raises(ValueError):
        W("x", xpow=-1)


def test_tau_involution_on_letters():
    assert tau(tau(W("x"), 3), 3) == W("x")
    assert tau(tau(W("y"), 3), 3) == W("y")


def test_coefficients_are_ints():
    for s in (tau(W("x"), 4), W("yx") * W("xy"), XSeries.one() * -2):
        assert s and all(type(c) is int for c in s.t.values())


def test_z_decompose():
    assert z_decompose("yxx") == (3,)
    assert z_decompose("yyx") == (1, 2)
    assert z_decompose("yxyx") == (2, 2)
    for bad in ("", "xy", "yxy", "yz", "yzx"):
        with pytest.raises(ValueError):
            z_decompose(bad)


def test_index_to_xy_word():
    assert index_to_xy_word((1, 2)) == "yyx"
    assert index_to_xy_word((3,)) == "yxx"
    with pytest.raises(ValueError):
        index_to_xy_word(())
    with pytest.raises(ValueError):
        index_to_xy_word((0, 2))


def test_parse_roundtrip():
    s = (W("yx", coeff=Fraction(3, 2)) - W("yyx", xpow=2)
         + XSeries.one() * -2)
    assert str(s) == "-2 + 3/2*y x - y y x X^2"
    back = parse_xseries(str(s))
    assert back == s and type(back.t[("yx", 0)]) is Fraction
    assert parse_xseries("y x x - y x y x X^1") == (W("yxx")
                                                    - W("yxyx", xpow=1))
    with pytest.raises(ValueError):
        parse_xseries("y q")


words = st.text(alphabet="xy", min_size=0, max_size=4)


@given(words, words)
@settings(max_examples=40, deadline=None)
def test_tau_antiautomorphism(u, v):
    order = 3
    su, sv = W(u), W(v)
    lhs = tau(su * sv, order)
    rhs = (tau(sv, order) * tau(su, order)).truncated(order)
    assert lhs == rhs


@given(words)
@settings(max_examples=40, deadline=None)
def test_tau_involution(w):
    s = W(w)
    assert tau(tau(s, 2), 2) == s


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                max_size=3),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_z_roundtrip(body, last):
    k = tuple(body) + (last,)
    assert z_decompose(index_to_xy_word(k)) == k
