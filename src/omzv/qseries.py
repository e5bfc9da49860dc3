"""Truncated q-series reference values.

The q-model assigns to the alphabet letters the summand factors

    F_q(E | m)    = 1 - q
    F_q(G(k) | m) = (q^m / [m])^k,   [m] = (1 - q^m)/(1 - q)

and to an admissible monomial u_1 ... u_r the nested sum over
0 < m_1 < ... < m_r of prod_a F_q(u_a | m_a); the parameter h acts as
multiplication by 1 - q.  These sums satisfy the same product and
duality identities as the contour-integral model and serve as a cheap
independent oracle.
"""

from dataclasses import dataclass

import numpy as np

from .quad import EvalResult
from .words import AMonomial, admissible_span

__all__ = ["QParam", "z_q_monomial", "z_q"]


@dataclass(frozen=True)
class QParam:
    q: float = 0.5
    n_terms: int = 400

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")


def f_q(k, m, p):
    """Summand factor for the letter of index k at level m (vectorized
    over m)."""
    m = np.asarray(m, dtype=float)
    if k == 0:
        return np.full_like(m, 1.0 - p.q)
    qm = p.q ** m
    bracket = (1.0 - qm) / (1.0 - p.q)
    return (qm / bracket) ** k


def z_q_monomial(mono, p):
    """Truncated nested sum for one admissible monomial, with a
    geometric tail bound."""
    if not isinstance(mono, AMonomial):
        raise TypeError("expected AMonomial")
    if not mono.is_admissible():
        raise ValueError("monomial ends in E, sum diverges")
    if not len(mono):
        return EvalResult(1.0 + 0.0j, 0.0, {"n_terms": 0})
    ms = np.arange(1, p.n_terms + 1, dtype=float)
    part = f_q(mono[0], ms, p)
    prev_total = 1.0   # bound on the depth r-1 prefix sums
    for letter in mono[1:]:
        csum = np.cumsum(part)
        prev_total = float(csum[-1])
        prefix = np.concatenate(([0.0], csum[:-1]))
        part = f_q(letter, ms, p) * prefix
    value = float(np.sum(part))
    # tail over m_r > N: all factors are positive, inner sums are bounded
    # by prev_total (doubled for their own tails), and q^m/[m] <= q^m.
    k_last = mono[-1]
    qk = p.q ** k_last
    tail = 2.0 * max(prev_total, 1.0) * qk ** (p.n_terms + 1) / (1.0 - qk)
    return EvalResult(value + 0.0j, tail, {"n_terms": p.n_terms})


def z_q(arg, p):
    """Sum evaluation extended linearly over the admissible span, h
    acting as 1 - q."""
    arg = admissible_span(arg)
    return EvalResult.combine(
        [(coeff.eval(1.0 - p.q), z_q_monomial(mono, p))
         for mono, coeff in arg.t.items()],
        {"q": p.q, "n_terms": p.n_terms})
