"""Exact word algebra: products, sigma, duality, rewriting, parsing."""

import functools
import gc
import itertools
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzv import (AMonomial, APoly, HPoly, HbarLaurent, OmegaParam, XSeries,
                  Z_omega, dual_index, harmonic, index_to_e_word,
                  monomials_up_to_weight, ohno_table, parse_amonomial,
                  parse_apoly, parse_index, satoh_residual, shuffle, sigma,
                  sigma_monomial, zeta_omega)
from omzv import words
from omzv.qseries import QParam, z_q
from omzv.words import E, G, check_index


def parse_hpoly(text):
    """The HPoly printed as `text`: the package's parser, read with the
    a/b letters."""
    return words._parse(text, HPoly, words._ab_word, "".join)


H = HbarLaurent.h


# -- reference products -----------------------------------------------------
#
# The products as nested HPoly / APoly arithmetic, straight from the
# recursions, as an oracle for the flat kernels of omzv.words.

_H1 = H(1)


def _letter_word(l):
    return HPoly.word("b", _H1) if l == 0 else HPoly.word("b" + "a" * l)


def ref_to_hpoly(m):
    p = HPoly.one()
    for l in m:
        p = p * _letter_word(l)
    return p


def _suffixed(p, letter, coeff=1):
    """Every word of p extended by letter, every coefficient times
    coeff."""
    if isinstance(p, HPoly):
        return HPoly({w + letter: q * coeff for w, q in p.t.items()})
    return APoly({m + letter: q * coeff for m, q in p.t.items()})


@functools.cache
def ref_shuffle_words(w1, w2):
    if not w1 or not w2:
        return HPoly.word(w1 + w2)
    if w1[-1] == "b":
        return _suffixed(ref_shuffle_words(w1[:-1], w2), "b")
    if w2[-1] == "b":
        return _suffixed(ref_shuffle_words(w1, w2[:-1]), "b")
    return (_suffixed(ref_shuffle_words(w1[:-1], w2), "a")
            + _suffixed(ref_shuffle_words(w1, w2[:-1]), "a")
            + _suffixed(ref_shuffle_words(w1[:-1], w2[:-1]), "a", _H1))


def ref_shuffle(p1, p2):
    out = HPoly.zero()
    for w1, c1 in p1.t.items():
        for w2, c2 in p2.t.items():
            out = out + _suffixed(ref_shuffle_words(w1, w2), "", c1 * c2)
    return out


def _contract(u, v):
    """E o E = h E, E o G(k) = h G(k), G(k) o G(l) = G(k+l)."""
    if u == 0 and v == 0:
        return _H1, E
    if u == 0:
        return _H1, v
    if v == 0:
        return _H1, u
    return 1, u + v


@functools.cache
def ref_harmonic_tuples(l1, l2):
    if not l1 or not l2:
        return APoly.monomial(AMonomial(l1 + l2))
    u, v = l1[-1], l2[-1]
    q, w = _contract(u, v)
    return (_suffixed(ref_harmonic_tuples(l1[:-1], l2), (u,))
            + _suffixed(ref_harmonic_tuples(l1, l2[:-1]), (v,))
            + _suffixed(ref_harmonic_tuples(l1[:-1], l2[:-1]), (w,), q))


def ref_harmonic(p1, p2):
    out = APoly.zero()
    for m1, c1 in p1.t.items():
        for m2, c2 in p2.t.items():
            out = out + _suffixed(ref_harmonic_tuples(m1, m2), (), c1 * c2)
    return out


# -- letter-by-letter reference kernels --------------------------------------
#
# The word kernels with one memo entry per letter and each term's power
# of h kept next to its key, {(key, e): c}; the graded kernels must give
# the same terms in the same order.

def _add(t, pairs):
    for k, c in pairs:
        t[k] = t.get(k, 0) + c


@functools.cache
def ref_shuffle_terms(w1, w2):
    if not w1 or not w2:
        return {(w1 + w2, 0): 1}
    if w1[-1] == "b" or w2[-1] == "b":
        t = (ref_shuffle_terms(w1[:-1], w2) if w1[-1] == "b"
             else ref_shuffle_terms(w1, w2[:-1]))
        return {(w + "b", e): c for (w, e), c in t.items()}
    t = dict(ref_shuffle_terms(w1[:-1], w2))
    _add(t, ref_shuffle_terms(w1, w2[:-1]).items())
    _add(t, (((w, e + 1), c)
             for (w, e), c in ref_shuffle_terms(w1[:-1], w2[:-1]).items()))
    return {(w + "a", e): c for (w, e), c in t.items()}


@functools.cache
def ref_harmonic_terms(l1, l2):
    if not l1 or not l2:
        return {(l1 + l2, 0): 1}
    u, v = l1[-1], l2[-1]
    t = {(m + (u,), e): c
         for (m, e), c in ref_harmonic_terms(l1[:-1], l2).items()}
    _add(t, (((m + (v,), e), c)
             for (m, e), c in ref_harmonic_terms(l1, l2[:-1]).items()))
    w, q = (u + v,), int(not (u and v))
    _add(t, (((m + w, e + q), c)
             for (m, e), c in ref_harmonic_terms(l1[:-1], l2[:-1]).items()))
    return t


def ref_product(kernel, f1, f2):
    """The bilinear extension of a letter-by-letter kernel to flat terms."""
    t = {}
    for (k1, e1), c1 in f1.items():
        for (k2, e2), c2 in f2.items():
            _add(t, (((k, e + e1 + e2), q * c1 * c2)
                     for (k, e), q in kernel(k1, k2).items()))
    return t


def _grouped_in_order(t):
    """Flat terms in the order of a key-grouped dict of them."""
    out = {}
    for (k, e), c in t.items():
        out.setdefault(k, {})[e] = c
    return [((k, e), c) for k, q in out.items() for e, c in q.items()]


def _terms_in_order(p):
    """The terms of p as [((key, e), c)], in the order of its dicts."""
    return [((k, e), c) for k, q in p.t.items() for e, c in q.t.items()]


def test_graded_kernels_match_the_letter_kernels_in_order():
    """Every ordered pair of a/b words of length <= 5, and the 4,005 pairs
    of admissible monomials of weight <= 5 at the kernel with its grading
    rule; then each public product once on a sum of its battery with
    distinct coefficients."""
    ab_words = ["".join(w) for n in range(6)
                for w in itertools.product("ab", repeat=n)]
    mons = monomials_up_to_weight(5)
    assert (len(ab_words), len(mons)) == (63, 89)
    for w1, w2 in itertools.product(ab_words, repeat=2):
        got = shuffle(HPoly.word(w1), HPoly.word(w2))
        assert _terms_in_order(got) == list(ref_shuffle_terms(w1, w2).items())
    for l1, l2 in itertools.combinations_with_replacement(mons, 2):
        # a term off the grading rule drops out of `want`
        grade = l1.count(0) + l2.count(0)
        want = [(m, c) for (m, e), c in ref_harmonic_terms(l1, l2).items()
                if e == grade - m.count(0)]
        assert list(zip(*words._harmonic_terms(l1, l2))) == want
    h = HPoly({w: i + 1 for i, w in enumerate(ab_words)})
    f = {(w, 0): i + 1 for i, w in enumerate(ab_words)}
    want = ref_product(ref_shuffle_terms, f, f)
    assert _terms_in_order(shuffle(h, h)) == _grouped_in_order(want)
    mons = monomials_up_to_weight(4)
    a = APoly({m: i + 1 for i, m in enumerate(mons)})
    f = {(m, 0): i + 1 for i, m in enumerate(mons)}
    want = ref_product(ref_harmonic_terms, f, f)
    assert _terms_in_order(harmonic(a, a)) == _grouped_in_order(want)


# -- the previous product path -----------------------------------------------
#
# The products as they ran on flat term dicts, merged by `_merge` and
# grouped at return, over the memo kernels of omzv.words: the one-pass
# products must give the same keys and coefficients in the same order,
# of the same types except that an integral Fraction is now an int.

def _old_merge(t, pairs):
    for k, c in pairs:
        s = t.get(k)
        s = c if s is None else s + c
        if s:
            t[k] = s
        else:
            t.pop(k, None)
    return t


def _old_flat(p):
    return {(k, e): c for k, q in p.t.items() for e, c in q.t.items()}


def _old_grouped(cls, t):
    out = {}
    for (k, e), c in t.items():
        out.setdefault(k, {})[e] = c
    return cls._make({k: HbarLaurent._make(q) for k, q in out.items()})


def _old_product(kernel, grade, f1, f2):
    t = {}
    for (k1, e1), c1 in f1.items():
        for (k2, e2), c2 in f2.items():
            c, s = c1 * c2, e1 + e2 + grade(k1) + grade(k2)
            _old_merge(t, (((k, s - grade(k)), q * c)
                           for k, q in zip(*kernel(k1, k2))))
    return t


def _old_ab_terms(t):
    return {("".join(["b" + "a" * k for k in m]), e + m.count(0)): c
            for (m, e), c in t.items()}


def old_shuffle(p1, p2):
    return _old_grouped(HPoly, _old_product(
        words._shuffle_terms, len, _old_flat(p1), _old_flat(p2)))


def old_harmonic(p1, p2):
    t = _old_product(words._harmonic_terms, lambda m: m.count(0),
                     _old_flat(p1), _old_flat(p2))
    return _old_grouped(APoly, {(tuple.__new__(AMonomial, m), e): c
                                for (m, e), c in t.items()})


def old_sigma(p):
    swap = str.maketrans("ab", "ba")
    return _old_grouped(HPoly, {
        (w[::-1].translate(swap), e + 2 * w.count("a") - len(w)): c
        for (w, e), c in _old_flat(p).items()})


def old_to_hpoly(a):
    return _old_grouped(HPoly, _old_ab_terms(_old_flat(a)))


def old_from_hpoly(p):
    t = {}
    for (w, e), c in _old_flat(p).items():
        m = tuple.__new__(AMonomial, map(len, w.split("b")[1:]))
        t[m, e - m.count(0)] = c
    return APoly._make(dict(_old_grouped(APoly, t).items_sorted()))


def _typed_terms(p, normal=False):
    """The terms of p in order with the types of their keys and values;
    `normal` first takes an integral Fraction to its int."""
    terms = _terms_in_order(p)
    if normal:
        terms = [(k, int(c) if c == int(c) else c) for k, c in terms]
    return terms, [(type(k), type(c)) for (k, _), c in terms]


def assert_same_as_old(h1, h2, a1, a2, normal=False):
    """Both products, then the unary maps on their first arguments."""
    pairs = [(shuffle(h1, h2), old_shuffle(h1, h2)),
             (harmonic(a1, a2), old_harmonic(a1, a2)),
             (sigma(h1), old_sigma(h1)), (a1.to_hpoly(), old_to_hpoly(a1))]
    if all(w[:1] in ("", "b") for w in h1.t):
        pairs.append((APoly.from_hpoly(h1), old_from_hpoly(h1)))
    for new, old in pairs:
        assert _typed_terms(new) == _typed_terms(old, normal)


def test_products_match_the_previous_path_on_the_battery():
    """The 4,005 monomial pairs of the weight <= 5 battery; the unary maps
    on each monomial, and on its products with the word b b a and with
    E G2, sums of many terms."""
    mons = monomials_up_to_weight(5)
    for m1, m2 in itertools.combinations_with_replacement(mons, 2):
        assert_same_as_old(m1.to_hpoly(), m2.to_hpoly(),
                           APoly.monomial(m1), APoly.monomial(m2))
    for m in mons:
        sh = shuffle(m.to_hpoly(), HPoly({"bba": 1}))
        ha = harmonic(APoly.monomial(m), APoly({(0, 2): 1}))
        assert _typed_terms(sigma(sh)) == _typed_terms(old_sigma(sh))
        assert (_typed_terms(APoly.from_hpoly(sh))
                == _typed_terms(old_from_hpoly(sh)))
        assert _typed_terms(ha.to_hpoly()) == _typed_terms(old_to_hpoly(ha))


def test_shared_coefficients_stay_unchanged():
    """Results share their one-power coefficients; arithmetic on one
    result changes no coefficient of another."""
    h1, h2 = (parse_amonomial(s).to_hpoly() for s in ("E G2 G1", "G1 G2"))
    p, q = shuffle(h1, h2), shuffle(h2, h1)
    assert all(q.t[w] is c for w, c in p.t.items())
    before = [(w, dict(c.t)) for w, c in q.t.items()]
    made = [p + p, p - q, p * p, -p, p + 1, p * 2, p * HPoly.word("b")]
    for c in p.t.values():
        made += [c + c, c - c, c * c, -c, c * H(1), 2 * c, 1 - c]
    assert [(w, dict(c.t)) for w, c in q.t.items()] == before
    assert words._hpow(3, Fraction(6, 2)) is words._hpow(3, 3)
    assert type(words._hpow(3, 3).t[3]) is int


def _clear_kernels():
    words._shuffle_merge.cache_clear()
    words._harmonic_terms.cache_clear()
    words._TABLES.clear()


def test_products_share_their_keys():
    """A key of a kernel's memo is made once: the products of a battery
    pair in both orders hold the very same key objects."""
    _clear_kernels()
    mons = [m for m in monomials_up_to_weight(5) if len(m) > 1]
    for m1, m2 in zip(mons, reversed(mons)):
        a1, a2 = APoly.monomial(m1), APoly.monomial(m2)
        h1, h2 = m1.to_hpoly(), m2.to_hpoly()
        for p, q in ((harmonic(a1, a2), harmonic(a2, a1)),
                     (shuffle(h1, h2), shuffle(h2, h1))):
            same = {k: k for k in q.t}
            assert len(p.t) > 2 and all(same[k] is k for k in p.t)


@pytest.mark.parametrize("maxsize, count", [(1, 1), (3, 2)])
def test_products_do_not_depend_on_the_tables(monkeypatch, maxsize, count):
    """Tables bounded to a few keys are emptied again and again: every
    product of the weight <= 4 battery keeps the reference terms, in
    order and of the same types, and every Satoh residual vanishes."""
    monkeypatch.setattr(words._Tables, "maxsize", maxsize)
    monkeypatch.setattr(words._Tables, "count", count)
    _clear_kernels()
    try:
        mons = monomials_up_to_weight(4)
        for m1, m2 in itertools.product(mons, repeat=2):
            a1, a2 = APoly.monomial(m1), APoly.monomial(m2)
            h1, h2 = m1.to_hpoly(), m2.to_hpoly()
            for got, kernel, f1, f2, key in (
                    (harmonic(a1, a2), ref_harmonic_terms, _old_flat(a1),
                     _old_flat(a2), AMonomial),
                    (shuffle(h1, h2), ref_shuffle_terms, _old_flat(h1),
                     _old_flat(h2), str)):
                terms, types = _typed_terms(got)
                assert terms == _grouped_in_order(ref_product(kernel, f1, f2))
                assert set(types) == {(key, int)}
            assert satoh_residual(a1, a2).is_zero()
            assert len(words._TABLES) <= count
    finally:
        _clear_kernels()


def test_satoh_residual_that_does_not_vanish(monkeypatch):
    """With the harmonic kernel made to drop one term of the top product,
    the residual is that product minus sigma(sigma(p1) sh sigma(p2)), as
    the public maps build it."""
    m1, m2 = parse_amonomial("E G2 G1"), parse_amonomial("G1 E G2")
    kernel = words._harmonic_terms

    def dropped(l1, l2):
        keys, counts = kernel(l1, l2)
        if (l1, l2) == (m1, m2):
            return keys[:-1], counts[:-1]
        return keys, counts

    monkeypatch.setattr(words, "_harmonic_terms", dropped)
    a1, a2 = APoly.monomial(m1), APoly.monomial(m2)
    got = satoh_residual(a1, a2)
    want = (harmonic(a1, a2).to_hpoly()
            - sigma(shuffle(sigma(m1.to_hpoly()), sigma(m2.to_hpoly()))))
    assert not got.is_zero() and got == want
    assert len(got.t) == 1
    monkeypatch.undo()
    assert satoh_residual(a1, a2).is_zero()


def test_kernel_memos_stay_small():
    """The weight <= 4 Satoh battery on cleared memos and tables: the
    letter-by-letter kernels traced a peak of 9.6 MiB, the graded ones
    6.2 MiB, the graded ones with shared keys 3.3 MiB, and with a memo
    of merge nodes and values of exact-size tuples 1.9 MiB."""
    mons = monomials_up_to_weight(4)
    assert len(mons) == 34
    _clear_kernels()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        for i, m1 in enumerate(mons):
            for m2 in mons[i:]:
                assert satoh_residual(APoly.monomial(m1),
                                      APoly.monomial(m2)).is_zero()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20
    if sys.implementation.name == "cpython":
        # a memo value of str keys and int counts is no work for the GC
        value = words._shuffle_merge("baaba", "baa")
        gc.collect()
        assert not any(map(gc.is_tracked, (value, *value)))


def test_shuffle_memo_keeps_merge_nodes_only(monkeypatch):
    """After the weight <= 5 battery of shuffles and Satoh residuals on a
    cleared memo, each key of the shuffle memo is two words that end in a
    or are empty: a final run of b peels off before the memo."""
    _clear_kernels()
    memo, keys = words._shuffle_merge, set()

    def spy(w1, w2):
        keys.add((w1, w2))
        return memo(w1, w2)

    monkeypatch.setattr(words, "_shuffle_merge", spy)
    mons = monomials_up_to_weight(5)
    for m1, m2 in itertools.combinations_with_replacement(mons, 2):
        shuffle(m1.to_hpoly(), m2.to_hpoly())
        assert satoh_residual(APoly.monomial(m1), APoly.monomial(m2)).is_zero()
    assert len(keys) == memo.cache_info().currsize      # no key evicted
    assert all(w[-1:] in ("", "a") for key in keys for w in key)


# -- coefficient ring -------------------------------------------------------

def test_laurent_arithmetic():
    x = H(1, 2) + HbarLaurent.of(3)          # 2h + 3
    y = H(-1) - HbarLaurent.one()            # h^-1 - 1
    assert x * y == H(1, -2) + 2 * HbarLaurent.one() + 3 * H(-1) - 3 * HbarLaurent.of(1)
    assert (x * y) * H(1) == (x * H(1)) * y
    assert x.eval(2.0) == 7.0
    assert x.is_polynomial() and not y.is_polynomial()
    assert min(y.t) == -1 and max(x.t) == 1


def test_coefficients_stay_int():
    """Both products, sigma and the A-basis rewrite have integer
    structure constants: integer inputs give int coefficients, never
    Fraction."""
    m1, m2 = parse_amonomial("E G2 G1"), parse_amonomial("G1 E G3")
    h1, h2 = m1.to_hpoly(), m2.to_hpoly()
    polys = [shuffle(h1, h2), sigma(h1),
             harmonic(APoly.monomial(m1), APoly.monomial(m2)),
             APoly.from_hpoly(shuffle(h1, h2)), APoly.from_hpoly(sigma(h1))]
    coeffs = [c for p in polys for c in p.t.values()]
    rationals = [q for c in coeffs for q in c.t.values()]
    assert len(rationals) > 10
    assert all(type(q) is int for q in rationals)


def test_parsed_fraction_stays_fraction():
    x = parse_hpoly("1/2*h").t[""]
    assert x == H(1, Fraction(1, 2))
    assert type(x.t[1]) is Fraction
    # an integral p/q is stored as an int
    assert type(parse_hpoly("4/2 b").t["b"].t[0]) is int
    assert str(parse_hpoly("-1/2*h b a + 3 b")) == "3*b - 1/2*h*b a"


def test_integral_fraction_products_are_int():
    """Products, sums and differences whose Fraction coefficients give an
    integer hold an int, as every constructor would."""
    polys = [harmonic(parse_apoly("2/3 G1"), parse_apoly("3/2 G2")),
             shuffle(parse_hpoly("2/3 b"), parse_hpoly("3/2 a")),
             shuffle(parse_hpoly("2/3 b + 4/3 a"), parse_hpoly("3/2 a + 3 b")),
             harmonic(parse_apoly("1/2 G1 + 1/2 E G1"), parse_apoly("2 G1"))]
    rationals = [q for p in polys for c in p.t.values() for q in c.t.values()]
    assert len(rationals) > 10
    assert all(type(q) is int for q in rationals)
    # so do sums, differences and word products
    half = H(0, Fraction(1, 2))
    for x in (half + half, H(0, Fraction(3, 2)) - half, half * H(1, 2)):
        assert [type(q) for q in x.t.values()] == [int]
    p = parse_hpoly("1/2 b") * parse_hpoly("2 a")
    assert p == HPoly.word("ba") and type(p.t["ba"].t[0]) is int


def test_scalar_operands():
    """A number or an HbarLaurent is that multiple of the unit; any other
    operand is a TypeError."""
    a = HPoly.word("a")
    assert a + 1 == HPoly({"a": 1, "": 1})
    assert a - Fraction(1, 2) == HPoly({"a": 1, "": Fraction(-1, 2)})
    assert a * 2 == HPoly.word("a", 2) and a * H(1) == HPoly.word("a", H(1))
    assert APoly.one() + 1 == APoly.monomial(AMonomial(), 2)
    assert shuffle(HPoly.word("ab"), 2) == HPoly.word("ab", 2)
    assert harmonic(APoly.one(), H(-1)) == APoly.monomial((), H(-1))
    for bad in ("a", 1.5, None, [1]):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            APoly.one() + bad
    for f, x, bad in ((shuffle, a, "ab"), (harmonic, APoly.one(), a),
                      (satoh_residual, APoly.one(), "G2")):
        with pytest.raises(TypeError):
            f(x, bad)
    with pytest.raises(TypeError):
        sigma(APoly.one())
    # a plain tuple is ordered as the monomial it equals
    assert AMonomial((1,)) < (2,) and AMonomial((3,)) < (1, 1)
    assert (1, 1) > AMonomial((3,)) and AMonomial((1, 1)) >= (3,)
    assert sorted([(1, 1), AMonomial((3,))]) == [(3,), (1, 1)]


def test_check_index_rejects_non_integral_entries():
    assert check_index((2.0, 3)) == (2, 3)
    assert type(check_index((2.0,))[0]) is int
    for bad in ((2.7,), (1, Fraction(5, 2)), (1, 2.5)):
        with pytest.raises(ValueError):
            check_index(bad)
    p = OmegaParam(1.0)
    with pytest.raises(ValueError):
        zeta_omega((2.7,), p)
    with pytest.raises(ValueError):
        ohno_table((2.5,), 1, p)


# -- shuffle ----------------------------------------------------------------

def test_shuffle_g1_g1():
    g1 = HPoly.word("ba")
    lhs = shuffle(g1, g1)
    assert lhs == HPoly.word("baba", 2) + HPoly.word("bba", H(1))


def test_shuffle_hb_hb():
    hb = HPoly.word("b", H(1))
    assert shuffle(hb, hb) == HPoly.word("bb", H(2))


def test_shuffle_unit():
    g2 = HPoly.word("baa")
    assert shuffle(g2, HPoly.one()) == g2
    assert shuffle(HPoly.one(), g2) == g2


# -- harmonic ---------------------------------------------------------------

def test_harmonic_g1_g1():
    g1 = APoly.monomial(parse_amonomial("G1"))
    out = harmonic(g1, g1)
    want = (APoly.monomial(parse_amonomial("G1 G1"), HbarLaurent.of(2))
            + APoly.monomial(parse_amonomial("G2")))
    assert out == want


def test_harmonic_e_contracts_with_h():
    e = APoly.monomial(AMonomial((E,)))
    gk = APoly.monomial(parse_amonomial("G2"))
    out = harmonic(e, gk)
    want = (APoly.monomial(parse_amonomial("E G2"))
            + APoly.monomial(parse_amonomial("G2 E"))
            + APoly.monomial(parse_amonomial("G2"), H(1)))
    assert out == want


# -- sigma ------------------------------------------------------------------

def test_sigma_g2_is_h_bba():
    assert sigma(HPoly.word("baa")) == HPoly.word("bba", H(1))


def test_sigma_fixes_ab():
    assert sigma(HPoly.word("ab")) == HPoly.word("ab")


def test_sigma_monomial_blocks():
    m = parse_amonomial("E E G3 G1")
    assert m.blocks() == [(2, 2), (0, 0)]
    assert sigma_monomial(m).blocks() == [(0, 0), (2, 2)]
    assert sigma_monomial(parse_amonomial("E G3")) == AMonomial.from_blocks(
        [(2, 1)])
    with pytest.raises(ValueError, match="no block form"):
        parse_amonomial("G2 E").blocks()
    with pytest.raises(ValueError, match="must be >= 0"):
        AMonomial.from_blocks([(1, 0), (-1, 2)])


def test_satoh_samples():
    g1 = APoly.monomial(parse_amonomial("G1"))
    eg2 = APoly.monomial(parse_amonomial("E G2"))
    assert satoh_residual(g1, g1).is_zero()
    assert satoh_residual(g1, eg2).is_zero()
    assert satoh_residual(eg2, eg2).is_zero()


def test_satoh_residual_vanishes_on_sums():
    """Seeded sums of 2-4 battery monomials, with coefficients such as
    -2, h and 1 + 3h^2, have several flat terms and take the merging
    branch of the sigma-harmonic kernel: it gives the flat sigma of their
    harmonic product, and the residual is zero."""
    battery = monomials_up_to_weight(5)[1:]
    coeffs = [-2, H(1), 1 + 3 * H(2), Fraction(1, 3), 1]
    rng = random.Random(3817)
    for _ in range(12):
        a1, a2 = (APoly({m: rng.choice(coeffs)
                         for m in rng.sample(battery, rng.randint(2, 4))})
                  for _ in range(2))
        f1, f2 = words._flat(a1), words._flat(a2)
        assert len(f1) > 1 and len(f2) > 1
        assert words._sigma_harmonic(f1, f2) == words._flat(
            sigma(harmonic(a1, a2).to_hpoly()))
        assert satoh_residual(a1, a2).is_zero()


def test_satoh_rejects_inadmissible():
    b = HPoly.word("b")
    with pytest.raises(ValueError):
        satoh_residual(b, b)


def test_satoh_rejects_negative_powers_of_h():
    g2 = APoly.monomial(parse_amonomial("G2"))
    with pytest.raises(ValueError, match="h\\^-1"):
        satoh_residual(APoly.monomial(parse_amonomial("E G2"), H(-1)), g2)


@pytest.mark.parametrize("evaluate", [
    lambda p: Z_omega(p, OmegaParam(1.0)),
    lambda p: z_q(p, QParam()),
    lambda p: satoh_residual(APoly.monomial(parse_amonomial("G1")), p),
], ids=["Z_omega", "z_q", "satoh_residual"])
@pytest.mark.parametrize("text, message", [
    ("G2 E", "monomial G2 E not admissible"),
    ("h^-1*G2", "coefficient of G2 has h\\^-1 terms"),
], ids=["inadmissible", "h^-1"])
def test_maps_share_the_admissible_span(evaluate, text, message):
    """Z_omega, z_q and satoh_residual refuse the same arguments, an
    inadmissible monomial and an h^-1 coefficient, with one message."""
    with pytest.raises(ValueError, match=message):
        evaluate(parse_apoly(text))


# -- rewriting --------------------------------------------------------------

def test_from_hpoly_examples():
    assert APoly.from_hpoly(HPoly.word("ba")) == APoly.monomial(
        parse_amonomial("G1"))
    assert APoly.from_hpoly(HPoly.word("bba")) == APoly.monomial(
        parse_amonomial("E G1"), H(-1))
    with pytest.raises(ValueError):
        APoly.from_hpoly(HPoly.word("ab"))


def test_e_word_expansion():
    def index_to_g_word(k):
        """The monomial G(k_1) ... G(k_r)."""
        return AMonomial(k)

    # e_2 = b a a + h b a
    assert index_to_e_word((2,)) == HPoly.word("baa") + HPoly.word("ba", H(1))
    assert index_to_g_word((1, 2)) == parse_amonomial("G1 G2")
    assert index_to_g_word((1, 2)).to_hpoly() == HPoly.word("babaa")


# -- indices ----------------------------------------------------------------

def test_dual_index_examples():
    assert dual_index((3,)) == (1, 2)
    assert dual_index((4,)) == (1, 1, 2)
    assert dual_index((1, 3)) == (1, 3)
    assert dual_index((2, 2)) == (2, 2)
    assert dual_index((1, 3, 1, 1, 2)) == (4, 1, 3)


def test_dual_index_rejects_inadmissible():
    with pytest.raises(ValueError):
        dual_index((2, 1))


def block_dual(k):
    """The dual by the block formula: writing k = ({1}^(b1-1), a1+1, ...,
    {1}^(br-1), ar+1), it is ({1}^(ar-1), br+1, ..., {1}^(a1-1), b1+1)."""
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


def admissible_indices(max_weight):
    """Every admissible index of weight <= max_weight."""
    def compositions(total):
        if total == 0:
            yield ()
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest
    return [k for weight in range(2, max_weight + 1)
            for k in compositions(weight) if k[-1] >= 2]


def test_dual_index_matches_the_block_formula():
    """The word definition of the dual and the block formula agree on
    every admissible index of weight <= 10."""
    indices = admissible_indices(10)
    assert len(indices) == 2 ** 9 - 1
    assert [dual_index(k) for k in indices] == [block_dual(k)
                                                for k in indices]


def test_parse_index():
    assert parse_index("1,3,2") == (1, 3, 2)
    assert parse_index("1 3 2") == (1, 3, 2)
    with pytest.raises(ValueError):
        parse_index("2,,")
    with pytest.raises(ValueError):
        parse_index("")
    with pytest.raises(ValueError):
        parse_index("2,x")


def test_monomial_enumeration():
    mons = monomials_up_to_weight(4)
    assert len(mons) == 34
    assert all(m.is_admissible() for m in mons)
    assert AMonomial(()) in mons
    assert len(monomials_up_to_weight(2)) == 5


# -- parsing round trips ----------------------------------------------------

def test_parse_word_and_hpoly():
    assert parse_hpoly("2 b a + h b b") == (HPoly.word("ba", 2)
                                            + HPoly.word("bb", H(1)))
    assert parse_hpoly("(h^-1 - 1) b a") == HPoly.word("ba", H(-1)
                                                       - HbarLaurent.one())


@pytest.mark.parametrize("make", [
    lambda: HPoly.word("bc"),
    lambda: HPoly.word("bxa", H(1)),
    lambda: HPoly({"ba": 1, "b a": 2}),
    lambda: HPoly({"B": 1}),
    lambda: APoly.from_hpoly(HPoly.word("bc")),
    lambda: sigma(HPoly.word("bc")),
])
def test_hpoly_rejects_other_letters(make):
    """Words are over a, b only: the rewriting maps (from_hpoly, sigma)
    take every letter other than b for a."""
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("cls, bad", [(HPoly, "q"), (HbarLaurent, "x"),
                                      (XSeries, ("q", 0)), (APoly, "x")],
                         ids=["HPoly", "HbarLaurent", "XSeries", "APoly"])
def test_bad_key_raises_whatever_its_coefficient(cls, bad):
    """A key is checked before its coefficient, so a bad key with
    coefficient 0 raises like one with coefficient 1 instead of making
    the zero combination."""
    with pytest.raises(Exception) as one:
        cls({bad: 1})
    with pytest.raises(one.type):
        cls({bad: 0})


def test_apoly_of():
    m = parse_amonomial("E G2")
    assert APoly.of(m) == APoly.monomial(m)
    assert APoly.of(APoly.monomial(m)) == APoly.monomial(m)
    assert APoly.of(HPoly.word("ba")) == APoly.monomial(parse_amonomial("G1"))
    with pytest.raises(TypeError, match="expected APoly, HPoly, or AMonomial"):
        APoly.of("E G2")


def test_parse_apoly():
    assert parse_apoly("E G2 - 3 G1") == (
        APoly.monomial(parse_amonomial("E G2"))
        + APoly.monomial(parse_amonomial("G1"), HbarLaurent.of(-3)))
    with pytest.raises(ValueError):
        parse_amonomial("G0")


EMPTY_TERMS = ["", "G2 +", "+ G2", "G2 -", "2*", "-"]


@pytest.mark.parametrize("parse, text", [
    (parse_hpoly, "b q a"),
    (parse_hpoly, "b 2 a"),
    (parse_hpoly, "(h - 1 b a"),
    (parse_hpoly, "h^"),
    (parse_hpoly, "b * a"),
    (parse_hpoly, "0 q"),
    (parse_hpoly, "h^1/2 b"),
    (parse_hpoly, "((h)) b"),
    (parse_hpoly, "(" * 5000 + "h" + ")" * 5000),
    (parse_apoly, "G0"),
    (parse_apoly, "E G"),
    (parse_apoly, "1/0 G2"),
    (parse_amonomial, "G2 + G1"),
    (parse_amonomial, "2 G2"),
] + [(parse, text) for text in EMPTY_TERMS
     for parse in (parse_hpoly, parse_apoly)])
def test_parse_rejects_malformed(parse, text):
    with pytest.raises(ValueError):
        parse(text)


@pytest.mark.parametrize("text, want", [
    ("-1/2*h*b a + 3*b", HPoly({"b": 3, "ba": H(1, Fraction(-1, 2))})),
    ("- - b a - -h^ - 2 b", HPoly({"ba": 1, "b": H(-2)})),
    ("(h - 1)*b + (h^-1) - 2", HPoly({"b": H(1) - 1, "": H(-1) - 2})),
    ("2 1 + h*1 + 4/2 b", HPoly({"": H(1) + 2, "b": 2})),
    ("hb", HPoly.word("b", H(1))),
])
def test_parse_hpoly_table(text, want):
    """Spellings other than the printer's that the parser accepts."""
    assert parse_hpoly(text) == want


# -- property tests ---------------------------------------------------------

letters = st.sampled_from([E, G(1), G(2), G(3)])


@st.composite
def admissible_monomials(draw, max_len=3):
    body = draw(st.lists(letters, min_size=0, max_size=max_len - 1))
    last = draw(st.sampled_from([G(1), G(2), G(3)]))
    return AMonomial(tuple(body) + (last,))


# -- the flat kernels against the reference products ------------------------

monomials = st.lists(letters, min_size=0, max_size=3).map(AMonomial)
laurents = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3).filter(bool)
    | st.fractions(min_value=-2, max_value=2).filter(bool),
    min_size=1, max_size=3).map(HbarLaurent)
apolys = st.dictionaries(monomials, laurents, min_size=1,
                         max_size=3).map(APoly)
hpolys = st.dictionaries(st.text("ab", max_size=6), laurents, min_size=1,
                         max_size=3).map(HPoly)


@given(monomials, monomials)
@settings(max_examples=60, deadline=None)
def test_kernels_match_reference_on_monomials(m1, m2):
    h1, h2 = m1.to_hpoly(), m2.to_hpoly()
    assert shuffle(h1, h2).t == ref_shuffle(h1, h2).t
    a1, a2 = APoly.monomial(m1), APoly.monomial(m2)
    assert harmonic(a1, a2).t == ref_harmonic(a1, a2).t


@given(hpolys, hpolys, apolys, apolys)
@settings(max_examples=60, deadline=None)
def test_kernels_match_reference_on_polys(h1, h2, a1, a2):
    """Multi-term arguments with Fraction and h^-1 coefficients, where
    terms of different pairs can cancel."""
    assert shuffle(h1, h2).t == ref_shuffle(h1, h2).t
    assert harmonic(a1, a2).t == ref_harmonic(a1, a2).t
    # by commutativity the cross terms of these products cancel
    assert (shuffle(h1 + h2, h1 - h2).t
            == ref_shuffle(h1 + h2, h1 - h2).t)
    assert (harmonic(a1 + a2, a1 - a2).t
            == ref_harmonic(a1 + a2, a1 - a2).t)


@given(hpolys, hpolys, apolys, apolys)
@settings(max_examples=40, deadline=None)
def test_products_match_the_previous_path_on_polys(h1, h2, a1, a2):
    """Signed, Fraction and h^-1 coefficients; in a product of a sum and
    a difference the cross terms cancel."""
    assert_same_as_old(h1, h2, a1, a2, normal=True)
    assert_same_as_old(h1 + h2, h1 - h2, a1 + a2, a1 - a2, normal=True)


@given(hpolys, apolys)
@settings(max_examples=200, deadline=None)
def test_parse_inverts_the_printer(p, a):
    assert parse_hpoly(str(p)) == p
    assert parse_apoly(str(a)) == a


def all_monomials(max_weight):
    """Every A-monomial of weight <= max_weight, admissible or not (E
    weighs 1, G(k) weighs k), sorted by weight then canonically."""
    out = [AMonomial()]
    for m in out:                   # extended while it is walked
        out += [AMonomial(m + (k,)) for k in range(max_weight - m.weight + 1)
                if m.weight + (k or 1) <= max_weight]
    return sorted(out, key=lambda m: (m.weight, m._order()))


def test_to_hpoly_matches_reference():
    mons = all_monomials(6)
    assert len(mons) > 100 and not all(m.is_admissible() for m in mons)
    for m in mons:
        assert m.to_hpoly().t == ref_to_hpoly(m).t
    a = APoly({m: H(len(m) - 2, i + 1) for i, m in enumerate(mons)})
    want = HPoly.zero()
    for m, c in a.t.items():
        want = want + _suffixed(ref_to_hpoly(m), "", c)
    assert a.to_hpoly() == want


def test_monomial_is_its_index_tuple():
    """A monomial is the tuple of its letter indices, 0 for E and k for
    G(k): equal to it, hashed as it, and rebuilt by pickle; only the
    public constructor checks the entries."""
    m = parse_amonomial("E G2")
    assert m == (0, 2) and hash(m) == hash((0, 2))
    assert (E, G(2)) == (0, 2)
    back = pickle.loads(pickle.dumps(m))
    assert type(back) is AMonomial and back == m and str(back) == "E G2"
    for bad in ([1, -1], ["E"], [True]):
        with pytest.raises((TypeError, ValueError)):
            AMonomial(bad)
    with pytest.raises(ValueError):
        G(0)
    with pytest.raises(TypeError):
        APoly.monomial(m) * APoly.monomial(m)
    # the canonical order, by length first, not the tuple order
    g3, g11 = AMonomial((3,)), AMonomial((1, 1))
    assert g3 < g11 and g3 <= g11 and g11 > g3 and g11 >= g3
    assert sorted([g11, g3]) == [g3, g11]


@given(admissible_monomials(), admissible_monomials())
@settings(max_examples=60, deadline=None)
def test_products_commute(m1, m2):
    h1, h2 = m1.to_hpoly(), m2.to_hpoly()
    assert shuffle(h1, h2) == shuffle(h2, h1)
    a1, a2 = APoly.monomial(m1), APoly.monomial(m2)
    assert harmonic(a1, a2) == harmonic(a2, a1)


@given(admissible_monomials(2), admissible_monomials(2),
       admissible_monomials(2))
@settings(max_examples=30, deadline=None)
def test_products_associate(m1, m2, m3):
    h1, h2, h3 = (m.to_hpoly() for m in (m1, m2, m3))
    assert shuffle(shuffle(h1, h2), h3) == shuffle(h1, shuffle(h2, h3))
    a1, a2, a3 = (APoly.monomial(m) for m in (m1, m2, m3))
    assert harmonic(harmonic(a1, a2), a3) == harmonic(a1, harmonic(a2, a3))


@given(admissible_monomials(), admissible_monomials())
@settings(max_examples=60, deadline=None)
def test_satoh_residual_vanishes(m1, m2):
    assert satoh_residual(APoly.monomial(m1), APoly.monomial(m2)).is_zero()


@given(admissible_monomials())
@settings(max_examples=60, deadline=None)
def test_sigma_involution_and_block_form(m):
    hp = m.to_hpoly()
    assert sigma(sigma(hp)) == hp
    assert APoly.from_hpoly(sigma(hp)) == APoly.monomial(sigma_monomial(m))
    assert sigma_monomial(sigma_monomial(m)) == m


@given(admissible_monomials())
@settings(max_examples=60, deadline=None)
def test_a_basis_roundtrip(m):
    basis = APoly.from_hpoly(m.to_hpoly())
    assert basis == APoly.monomial(m)
    back = APoly.monomial(m).to_hpoly()
    assert APoly.from_hpoly(back) == basis


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                max_size=3),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dual_involution(body, last):
    k = tuple(body) + (last,)
    kd = dual_index(k)
    assert dual_index(kd) == k
    assert sum(kd) == sum(k)
