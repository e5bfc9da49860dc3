"""Value gate for the Ohno layer: the Ohno tables, Omega tables, the
truncated series, connected integrals and the initial relation at
omega in {0.6, 1, 1.4} agree with the values in
`data/ohno_values.json` within the two error estimates, on the same
cells.

Regenerate the file with `PYTHONPATH=src python tests/test_ohno_values.py`
only when a change is meant to move these values, and record why.
"""

import json
import os

import pytest

from omzv import (GammaContext, OhnoParams, OmegaParam, QuadConfig,
                  XSeries, connected_integral, initial_relation,
                  ohno_series, ohno_table, omega_Omega, tau)
from omzv.verify import _OHNO_POINTS

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "ohno_values.json")
OMEGAS = (0.6, 1.0, 1.4)
CFG = QuadConfig(rel_tol=1e-7, abs_tol=1e-9)
# the deformation point of the generating-vs-series check of `verify ohno`
SERIES_POINT = OhnoParams(0.003 + 0.001j, -0.002 + 0.0025j)


def generate(omega):
    """{case: {cell: EvalResult}} at omega; a table's cells are "m,n"."""
    p = OmegaParam(omega)
    ctx = GammaContext(p, cfg=CFG)
    x, y = XSeries.word("x"), XSeries.word("y")
    point = OhnoParams(*_OHNO_POINTS[0])

    def table(t):
        return {"%d,%d" % cell: res for cell, res in t.items()}

    out = {
        "ohno_table (2)": table(ohno_table((2,), 2, p, CFG)),
        "ohno_table (1,2)": table(ohno_table((1, 2), 2, p, CFG)),
        "omega_Omega y x x": table(omega_Omega(y * x * x, 2, p, CFG)),
        "omega_Omega y tau(x) x": table(
            omega_Omega(y * tau(x, 2) * x, 2, p, CFG)),
        "ohno_series (2)": {
            "value": ohno_series((2,), SERIES_POINT, 2, p, CFG)},
    }
    cases = [(k, l, name, op) for k, l in (((1,), (1,)), ((2,), (1,)))
             for name, op in (("origin", OhnoParams()), ("point 1", point))]
    # depth-2 chains, on grids both sides of the direct-sum limit
    cases += [(k, l, "point 1", point)
              for k, l in (((1, 1), (1, 2)), ((1, 2), (2,)))]
    for k, l, name, op in cases:
        out["connected_integral %s;%s %s" % (
            ",".join(map(str, k)), ",".join(map(str, l)), name)] = {
                "value": connected_integral(k, l, op, ctx)}
    lhs, rhs = initial_relation((2,), point, ctx)
    out["initial_relation (2) point 1"] = {"lhs": lhs, "rhs": rhs}
    return out


def encode(cases):
    return {case: {cell: [res.value.real, res.value.imag, res.err_estimate]
                   for cell, res in cells.items()}
            for case, cells in cases.items()}


def _stored():
    with open(DATA) as fh:
        return json.load(fh)


@pytest.mark.parametrize("omega", OMEGAS)
def test_ohno_values_match_the_stored_ones(omega):
    want = _stored()[repr(omega)]
    got = encode(generate(omega))
    assert sorted(got) == sorted(want)
    for case, cells in want.items():
        assert sorted(got[case]) == sorted(cells), case
        for cell, (re0, im0, err0) in cells.items():
            re, im, err = got[case][cell]
            assert abs(complex(re, im) - complex(re0, im0)) <= err + err0, \
                (case, cell)


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        json.dump({repr(w): encode(generate(w)) for w in OMEGAS}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
