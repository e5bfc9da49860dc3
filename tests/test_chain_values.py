"""Value gate for the zeta chains: every admissible zeta index and every
admissible A-monomial of weight <= 5, the monomials by both routes
(reduced and direct), at omega in {0.3, 1, 1.9} and the default
tolerance, and the left sides of the three Saalschutz points of the
`saalschutz` suite at its tolerance, agree with the values in
`data/chain_values.json` within the two error estimates.

Regenerate the file with `PYTHONPATH=src python tests/test_chain_values.py`
only when a change is meant to move these values, and record why.
"""

import json
import os

import pytest

from omzv import (GammaContext, OmegaParam, Z_omega_monomial, compositions,
                  monomials_up_to_weight, saalschutz_check, zeta_omega)
from omzv.verify import _SUITE_CFG, saalschutz_points

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "chain_values.json")
OMEGAS = (0.3, 1.0, 1.9)
MAX_WEIGHT = 5


def generate(omega):
    """{name: EvalResult} of every value of the gate."""
    p = OmegaParam(omega)
    out = {}
    for w in range(2, MAX_WEIGHT + 1):
        for r in range(1, w):
            for c in compositions(w - r, r):
                k = tuple(e + 1 for e in c)
                if k[-1] >= 2:
                    out["zeta " + ",".join(map(str, k))] = zeta_omega(k, p)
    for mono in monomials_up_to_weight(MAX_WEIGHT):
        if len(mono):
            out["mono " + str(mono)] = Z_omega_monomial(mono, p)
            out["direct " + str(mono)] = Z_omega_monomial(mono, p,
                                                          mode="direct")
    ctx = GammaContext(p, cfg=_SUITE_CFG["saalschutz"])
    for i, us in enumerate(saalschutz_points(ctx.omega_bar), 1):
        out["saalschutz point %d" % i] = saalschutz_check(*us, ctx)[0]
    return out


def encode(values):
    return {name: [res.value.real, res.value.imag, res.err_estimate]
            for name, res in values.items()}


@pytest.mark.parametrize("omega", OMEGAS)
def test_chain_values_match_the_stored_ones(omega):
    with open(DATA) as fh:
        want = json.load(fh)[repr(omega)]
    got = encode(generate(omega))
    assert sorted(got) == sorted(want)
    for name, (re0, im0, err0) in want.items():
        re, im, err = got[name]
        assert abs(complex(re, im) - complex(re0, im0)) <= err + err0, name


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        json.dump({repr(w): encode(generate(w)) for w in OMEGAS}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
