"""Exact word algebra: products, sigma, duality, rewriting, parsing."""

import functools
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omzv import (ALetter, AMonomial, APoly, HPoly, HbarLaurent, dual_index,
                  harmonic, index_to_e_word, monomials_up_to_weight,
                  parse_amonomial, parse_apoly, parse_hpoly, parse_index,
                  parse_word, satoh_residual, shuffle, sigma, sigma_monomial,
                  to_a_basis)
from omzv.words import E, G

H = HbarLaurent.h


# -- reference products -----------------------------------------------------
#
# The products as nested HPoly / APoly arithmetic, straight from the
# recursions, as an oracle for the flat kernels of omzv.words.

_H1 = H(1)


def _letter_word(l):
    return HPoly.word("b", _H1) if l.is_e else HPoly.word("b" + "a" * l.k)


def ref_to_hpoly(m):
    p = HPoly.one()
    for l in m.letters:
        p = p * _letter_word(l)
    return p


def _suffixed(p, letter, coeff=1):
    """Every word of p extended by letter, every coefficient times
    coeff."""
    if isinstance(p, HPoly):
        return HPoly({w + letter: q * coeff for w, q in p.t.items()})
    return APoly({m.letters + letter: q * coeff for m, q in p.t.items()})


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
    if u.is_e and v.is_e:
        return _H1, E
    if u.is_e:
        return _H1, v
    if v.is_e:
        return _H1, u
    return 1, ALetter(u.k + v.k)


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
            out = out + _suffixed(ref_harmonic_tuples(m1.letters, m2.letters),
                                  (), c1 * c2)
    return out


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
             APoly.from_hpoly(shuffle(h1, h2))]
    coeffs = [c for p in polys for c in p.t.values()]
    coeffs += [c for c, _ in to_a_basis(sigma(h1))]
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


def test_satoh_samples():
    g1 = APoly.monomial(parse_amonomial("G1"))
    eg2 = APoly.monomial(parse_amonomial("E G2"))
    assert satoh_residual(g1, g1).is_zero()
    assert satoh_residual(g1, eg2).is_zero()
    assert satoh_residual(eg2, eg2).is_zero()


def test_satoh_rejects_inadmissible():
    b = HPoly.word("b")
    with pytest.raises(ValueError):
        satoh_residual(b, b)


# -- rewriting --------------------------------------------------------------

def test_to_a_basis_examples():
    assert to_a_basis(HPoly.word("ba")) == [(HbarLaurent.one(),
                                             parse_amonomial("G1"))]
    assert to_a_basis(HPoly.word("bba")) == [(H(-1),
                                              parse_amonomial("E G1"))]
    with pytest.raises(ValueError):
        to_a_basis(HPoly.word("ab"))


def test_e_word_expansion():
    def index_to_g_word(k):
        """The monomial G(k_1) ... G(k_r)."""
        return AMonomial([ALetter(e) for e in k])

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
    assert parse_word("b a a") == "baa"
    assert parse_hpoly("2 b a + h b b") == (HPoly.word("ba", 2)
                                            + HPoly.word("bb", H(1)))
    assert parse_hpoly("(h^-1 - 1) b a") == HPoly.word("ba", H(-1)
                                                       - HbarLaurent.one())
    with pytest.raises(ValueError):
        parse_word("b c")


@pytest.mark.parametrize("make", [
    lambda: HPoly.word("bc"),
    lambda: HPoly.word("bxa", H(1)),
    lambda: HPoly({"ba": 1, "b a": 2}),
    lambda: HPoly({"B": 1}),
    lambda: to_a_basis(HPoly.word("bc")),
    lambda: sigma(HPoly.word("bc")),
])
def test_hpoly_rejects_other_letters(make):
    """Words are over a, b only: the rewriting maps (to_a_basis, sigma)
    take every letter other than b for a."""
    with pytest.raises(ValueError):
        make()


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


def test_to_hpoly_matches_reference():
    mons = monomials_up_to_weight(6, admissible_only=False)
    assert len(mons) > 100 and not all(m.is_admissible() for m in mons)
    for m in mons:
        assert m.to_hpoly().t == ref_to_hpoly(m).t
    a = APoly({m: H(len(m) - 2, i + 1) for i, m in enumerate(mons)})
    want = HPoly.zero()
    for m, c in a.t.items():
        want = want + _suffixed(ref_to_hpoly(m), "", c)
    assert a.to_hpoly() == want


def test_letters_are_interned():
    assert ALetter(2) is G(2) and ALetter(0) is E
    assert pickle.loads(pickle.dumps(G(3))) is G(3)
    assert parse_amonomial("E G2").letters == (E, G(2))
    assert G(1) != G(2) and len({G(1), ALetter(1), G(2)}) == 2


def test_letters_interned_across_threads():
    """Threads that make the same new letters at once get one object per
    index."""
    ks = range(10_000, 30_000)
    out = [None] * 4
    start = threading.Barrier(4)

    def make(i):
        start.wait(timeout=30)
        out[i] = [ALetter(k) for k in ks]

    threads = [threading.Thread(target=make, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(a is b for o in out[1:] for a, b in zip(o, out[0], strict=True))


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
    assert to_a_basis(sigma(hp)) == [(HbarLaurent.one(), sigma_monomial(m))]
    assert sigma_monomial(sigma_monomial(m)) == m


@given(admissible_monomials())
@settings(max_examples=60, deadline=None)
def test_a_basis_roundtrip(m):
    basis = to_a_basis(m.to_hpoly())
    assert basis == [(HbarLaurent.one(), m)]
    back = APoly.monomial(m).to_hpoly()
    assert to_a_basis(back) == basis


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                max_size=3),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_dual_involution(body, last):
    k = tuple(body) + (last,)
    kd = dual_index(k)
    assert dual_index(kd) == k
    assert sum(kd) == sum(k)
