"""omega-deformed multiple zeta values.

The deformation replaces the nested sums by contour integrals over
vertical lines, with a parameter omega in (0, 2); omega -> 0 recovers
the classical values.  The package provides

  * the word algebra (shuffle and harmonic products, sigma, duality)
    over exact h-polynomial coefficients,
  * the contour-quadrature engine and the evaluation maps Z_w and
    zeta_w,
  * a truncated q-series model as an independent oracle (`omzv.qseries`),
  * the hyperbolic gamma function and the connected integral behind
    the double Ohno relations,
  * verification suites (`omzv.verify`) and a persistent value cache,
    both wired into the command line tool `omzv`.

The package does not import those two modules; import names from them.
"""

from .cache import ValueCache
from .hypgamma import GammaContext, log_G
from .ncseries import XSeries, tau, z_decompose
from .ohno import (OhnoParams, OhnoTable, compositions, connected_integral,
                   d_norm, double_ohno_sum, initial_relation,
                   ohno_generating, ohno_series, ohno_table, omega_Omega,
                   saalschutz_check, transport_relation)
from .omega import OmegaParam, Z_omega, Z_omega_monomial, zeta_omega
from .quad import EvalResult, QuadConfig, QuadError
from .words import (AMonomial, APoly, HPoly, HbarLaurent,
                    dual_index, harmonic, index_to_e_word,
                    monomials_up_to_weight, parse_amonomial, parse_apoly,
                    parse_index, satoh_residual,
                    shuffle, sigma, sigma_monomial)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AMonomial", "APoly", "HPoly", "HbarLaurent",
    "EvalResult", "GammaContext", "OhnoParams", "OhnoTable",
    "OmegaParam", "QuadConfig", "QuadError",
    "ValueCache", "XSeries", "Z_omega", "Z_omega_monomial",
    "compositions",
    "connected_integral", "d_norm",
    "double_ohno_sum", "dual_index", "harmonic",
    "index_to_e_word",
    "initial_relation", "log_G",
    "monomials_up_to_weight", "ohno_generating", "ohno_series",
    "ohno_table", "omega_Omega", "parse_amonomial", "parse_apoly",
    "parse_index",
    "saalschutz_check", "satoh_residual", "shuffle", "sigma",
    "sigma_monomial", "tau",
    "transport_relation", "z_decompose",
    "zeta_omega",
]
