"""omega-deformed multiple zeta values.

The deformation replaces the nested sums by contour integrals over
vertical lines, with a parameter omega in (0, 2); omega -> 0 recovers
the classical values.  The package provides

  * the word algebra (shuffle and harmonic products, sigma, duality)
    over exact h-polynomial coefficients,
  * the contour-quadrature engine and the evaluation maps Z_w and
    zeta_w,
  * a truncated q-series model as an independent oracle,
  * the hyperbolic gamma function and the connected integral behind
    the double Ohno relations,
  * verification suites and a persistent value cache, both wired into
    the command line tool `omzv`.
"""

from .cache import ValueCache, install as install_cache
from .hypgamma import GammaContext, log_G
from .ncseries import (XSeries, index_to_xy_word, parse_xseries, tau,
                       z_decompose)
from .ohno import (OhnoParams, OhnoTable, compositions, connected_expansion,
                   connected_integral, d_norm, double_ohno_sum,
                   initial_relation, ohno_generating, ohno_series,
                   ohno_table, omega_Omega, saalschutz_check,
                   transport_relation)
from .omega import (OmegaParam, Z_omega, Z_omega_monomial,
                    inverse_x_variable, zeta_omega)
from .qseries import QParam, mzv, z_q, z_q_monomial
from .quad import EvalResult, QuadConfig, QuadError
from .verify import CheckRecord, SUITES, run_suite
from .words import (ALetter, AMonomial, APoly, HPoly, HbarLaurent,
                    dual_index, harmonic, index_to_e_word,
                    monomials_up_to_weight, parse_amonomial, parse_apoly,
                    parse_hpoly, parse_index, parse_word, satoh_residual,
                    shuffle, sigma, sigma_monomial, to_a_basis)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALetter", "AMonomial", "APoly", "HPoly", "HbarLaurent",
    "CheckRecord", "EvalResult", "GammaContext", "OhnoParams", "OhnoTable",
    "OmegaParam", "QParam", "QuadConfig", "QuadError", "SUITES",
    "ValueCache", "XSeries", "Z_omega", "Z_omega_monomial",
    "compositions",
    "connected_expansion", "connected_integral", "d_norm",
    "double_ohno_sum", "dual_index", "harmonic",
    "index_to_e_word", "index_to_xy_word",
    "initial_relation", "install_cache", "inverse_x_variable", "log_G",
    "monomials_up_to_weight", "mzv", "ohno_generating", "ohno_series",
    "ohno_table", "omega_Omega", "parse_amonomial", "parse_apoly",
    "parse_hpoly", "parse_index", "parse_word", "parse_xseries",
    "run_suite",
    "saalschutz_check", "satoh_residual", "shuffle", "sigma",
    "sigma_monomial", "tau", "to_a_basis",
    "transport_relation", "z_decompose", "z_q", "z_q_monomial",
    "zeta_omega",
]
