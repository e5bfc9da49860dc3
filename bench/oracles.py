"""Independent reference values in mpmath at 30 significant digits.

Both oracles integrate the defining formula directly with mpmath's own
quadrature, sharing no code with `omzv`:

  * depth-1 deformed zeta values, on a different contour offset from
    the one the package picks (the value does not depend on it);
  * log G inside the strip, from its half-line integral.
"""

import mpmath as mp

DPS = 30


def zeta_depth1(k, omega):
    """zeta_w((k,)) = int_{Re t = -eps} dt/(e^{2 pi i t} - 1)
    * h^k e^{h (k-1) t} / (1 - e^{h t})^k with h = 2 pi i w, k >= 2."""
    with mp.workdps(DPS):
        h = 2j * mp.pi * mp.mpf(omega)
        eps = mp.mpf(3) / 10 * min(1, 1 / mp.mpf(omega))

        def f(y):
            t = -eps + 1j * y
            return (1j / (mp.exp(2j * mp.pi * t) - 1)
                    * h ** k * mp.exp(h * (k - 1) * t)
                    / (1 - mp.exp(h * t)) ** k)

        # |f| decays like e^{2 pi (1 + w) y} below and e^{-2 pi w (k-1) y}
        # above; cut both tails where they fall under e^{-90}
        lo = -90 / (2 * mp.pi * (1 + omega))
        hi = 90 / (2 * mp.pi * omega * (k - 1))
        return complex(mp.quad(f, [lo, lo / 4, 0, hi / 4, hi]))


def log_G(z, omega):
    """log G(z) = i int_0^inf dt/t (sin(2 w t z)/(2 sinh(w t) sinh t)
    - z/t) for |Im z| < (1 + 1/w)/2.  Near t = 0 the two terms cancel
    to O(t), so the first panel uses Gauss-Legendre nodes (which stay
    away from the endpoint) at doubled working precision."""
    with mp.workdps(2 * DPS):
        w = mp.mpf(omega)
        z = mp.mpc(z)

        def f(t):
            return (mp.sin(2 * w * t * z) / (2 * t * mp.sinh(w * t)
                                             * mp.sinh(t)) - z / t ** 2)

        head = mp.quad(f, [0, 1], method="gauss-legendre")
        tail = mp.quad(f, [1, 4, 16, mp.inf])
        return complex(1j * (head + tail))
