"""q-model sums: independent oracle values, products, sigma duality."""

import pytest

from omzv import (AMonomial, APoly, HPoly, HbarLaurent, harmonic,
                  parse_amonomial, shuffle, sigma_monomial)
from omzv.qseries import QParam, z_q, z_q_monomial
from omzv.words import monomials_up_to_weight

H = HbarLaurent.h


def brute_g(q, ks, n):
    """Nested sum over 0 < m_1 < ... < m_r of prod (q^m (1-q)/(1-q^m))^k,
    written independently of the package internals."""
    def term(m, k):
        return (q ** m * (1.0 - q) / (1.0 - q ** m)) ** k

    def rec(start, rest):
        if not rest:
            return 1.0
        k = rest[0]
        return sum(term(m, k) * rec(m + 1, rest[1:])
                   for m in range(start, n + 1))

    return rec(1, list(ks))


def test_empty_monomial():
    r = z_q_monomial(AMonomial(()), QParam())
    assert r.value == 1.0 and r.err_estimate == 0.0


def test_brute_force_oracle():
    p = QParam(q=0.5, n_terms=60)
    r = z_q_monomial(parse_amonomial("G2"), p)
    assert r.value == pytest.approx(brute_g(0.5, (2,), 60), abs=1e-14)
    r2 = z_q_monomial(parse_amonomial("G1 G2"), p)
    assert r2.value == pytest.approx(brute_g(0.5, (1, 2), 60), abs=1e-14)


def test_tail_bound_is_honest():
    loose = z_q_monomial(parse_amonomial("G1 G2"), QParam(q=0.5, n_terms=20))
    tight = z_q_monomial(parse_amonomial("G1 G2"), QParam(q=0.5, n_terms=400))
    assert abs(loose.value - tight.value) <= loose.err_estimate


def test_h_acts_as_one_minus_q():
    p = QParam(q=0.3)
    plain = z_q(HPoly.word("ba"), p)
    scaled = z_q(HPoly.word("ba", H(1)), p)
    assert scaled.value == pytest.approx((1.0 - 0.3) * plain.value, rel=1e-13)


def test_sigma_duality():
    p = QParam()
    for m in monomials_up_to_weight(3):
        lhs = z_q_monomial(m, p).value
        rhs = z_q_monomial(sigma_monomial(m), p).value
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("w1,w2", [("G1", "G1"), ("G2", "G1"),
                                   ("E G2", "G1")])
def test_products(w1, w2):
    p = QParam()
    m1, m2 = parse_amonomial(w1), parse_amonomial(w2)
    prod = z_q_monomial(m1, p).value * z_q_monomial(m2, p).value
    sh = z_q(shuffle(m1.to_hpoly(), m2.to_hpoly()), p)
    ha = z_q(harmonic(APoly.monomial(m1), APoly.monomial(m2)), p)
    assert abs(sh.value - prod) < 1e-10
    assert abs(ha.value - prod) < 1e-10


def test_rejections():
    with pytest.raises(ValueError):
        z_q_monomial(parse_amonomial("G1 E"), QParam())
    with pytest.raises(ValueError):
        QParam(q=1.0)
    with pytest.raises(ValueError):
        QParam(n_terms=0)
    with pytest.raises(TypeError):
        z_q_monomial("G2", QParam())
