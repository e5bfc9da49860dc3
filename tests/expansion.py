"""The connected integral's expansion in the hatted variables, a test
oracle for the Ohno tables.

The generating functions of the deformed values are power series in the
hatted variable (e^{2 pi i omega x} - 1)/(2 pi i omega).
`connected_expansion` reads the coefficients Z_{m,n} of
I(k, l | lam, mu)/d(lam, mu) off such a series, and Z_{m,n}(k, (1))
should equal the table O_{m,n}(k_up).
"""

import math

import numpy as np

from omzv import EvalResult, OhnoParams, OhnoTable
from omzv.ohno import connected_integral, d_norm


def inverse_x_variable(xhat, omega):
    """Solve (e^{2 pi i w x} - 1)/(2 pi i w) = xhat for x (principal
    branch; valid for small |xhat|)."""
    w = 2j * math.pi * omega
    return np.log(1.0 + w * xhat) / w


def connected_expansion(k, l, order, ctx, radius=None):
    """Coefficients Z_{m,n} of I(k, l | lam, mu)/d(lam, mu) as a series
    in the hatted variables: the trapezoid rule (a 2-D FFT) on the torus
    of radius radius/2 in both, checked against the torus of radius
    `radius`."""
    if not 0 <= order <= 2:
        raise ValueError("order must be >= 0 and <= 2, the expansion depth")
    w = ctx.p.omega
    if radius is None:
        radius = min(1.0, 1.0 / w) / (16.0 * (len(k) + len(l) + 4))
    npts = order + 3

    def coeffs(rho):
        # The npts x npts grid of roots of unity makes the monomials
        # orthogonal, so truncation enters only through aliasing at
        # exponent gap npts; two radii expose that error directly.
        hats = rho * np.exp(2j * math.pi * np.arange(npts) / npts)
        vals = np.empty((npts, npts), dtype=complex)
        errpt = 0.0
        for i, lh in enumerate(hats):
            lam = complex(inverse_x_variable(lh, w))
            for j, mh in enumerate(hats):
                mu = complex(inverse_x_variable(mh, w))
                conn = connected_integral(k, l, OhnoParams(lam, mu), ctx)
                dd = d_norm(lam, mu, ctx)
                vals[i, j] = conn.value / dd
                errpt = max(errpt, conn.err_estimate / abs(dd))
        m, n = np.indices(vals.shape)
        return np.fft.fft2(vals) / npts ** 2 / rho ** (m + n), errpt

    c_wide, _ = coeffs(radius)
    c, errpt = coeffs(radius / 2.0)
    return OhnoTable({
        (m, n): EvalResult(c[m, n], abs(c[m, n] - c_wide[m, n])
                           + errpt / max((radius / 2.0) ** (m + n), 1e-30))
        for m in range(order + 1) for n in range(order + 1 - m)})
