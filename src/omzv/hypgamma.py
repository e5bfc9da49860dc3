"""Hyperbolic gamma function G(z) = G(z | 1, 1/omega) in log scale.

Inside the strip |Im z| < omega_bar = (1 + 1/omega)/2 the function has
the integral representation

    log G(z) = i * int_0^inf dt/t ( sin(2 omega t z)
                                    / (2 sinh(omega t) sinh t) - z/t ).

The integrand is even in t and analytic in a band around the real
axis (the nearest poles of 1/sinh sit at i pi / max(1, omega)), so the
trapezoid rule on R converges geometrically in the step (Trefethen and
Weideman, SIAM Rev. 56, 2014).  Its algebraic part z/t^2 is summed in
closed form over the nodes, sum_{n>=1} 1/n^2 = pi^2/6, so only the
exponentially decaying sine part is truncated.  Each node contributes
one exponential e^{a_n + i b_n z} with b_n proportional to n; on a
uniform horizontal line z = z0 + h j the node sum is therefore a
chirp-z transform (Bluestein; Rabiner, Schafer and Rader, 1969), done
by FFT in O((N + M) log(N + M)) for N nodes and M points.  The step is
taken from the whole line, before the far-field points are split off;
other point sets are summed densely.

Outside the strip, values are assembled from the two functional
equations

    G(z + i)       = -2i sinh(pi omega (z + i omega_bar)) G(z),
    G(z + i/omega) = -2i sinh(pi       (z + i omega_bar)) G(z)

and the reflection G(z) G(-z) = 1.  Poles sit on the lattice
-i(omega_bar + a + b/omega) and zeroes on its negative, a, b >= 0.

Everything works on horizontal lines (constant Im z): the contour
integrals that consume G only ever need values along such lines, and a
line shares one shift schedule, so evaluation is vectorized over Re z.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .quad import QuadConfig, QuadError, _log_target, cexpm1

__all__ = [
    "GammaContext",
    "log_G_line",
    "log_G",
]


@dataclass(frozen=True)
class GammaContext:
    """Evaluation context: the deformation parameter p and the
    quadrature tolerances cfg.  A plain value: contexts with equal p and
    cfg are equal and hash equal."""

    p: object
    cfg: QuadConfig = field(default_factory=QuadConfig)

    @property
    def omega_bar(self):
        return self.p.omega_bar

    @property
    def core_band(self):
        """Half-height of the band where the strip integral converges
        at rate >= max(1, omega)."""
        return 0.5 * min(1.0, 1.0 / self.p.omega)


# Relative margin kept to the strip boundary |Im z| = omega_bar.
_STRIP_MARGIN = 0.05
# Smallest line for the chirp-z sum: below it the dense sum is as fast.
_CHIRP_MIN = 24
# Trapezoid nodes per half-line beyond which the strip sum is refused.
_MAX_NODES = 100_000
# Functional-equation steps beyond which a shift path is refused: its
# terms fill (steps x points) blocks.
_MAX_SHIFTS = 100_000


def _trapezoid_nodes(ctx, xmax, immax):
    """Trapezoid step and nodes for the strip integral on arguments with
    |Re z| <= xmax, |Im z| <= immax.

    The step balances the pole distance d of the integrand (poles of
    1/sinh at i pi / max(1, w)) against the growth of sin(2 w t z) along
    Im t = d; the cutoff is where the integrand has decayed like
    e^{-kappa t} below the target.  Returns (step, b, expo) for the
    nodes t_n = n*step (n = 1..N): frequencies b_n = 2 w t_n and real
    exponents -log(2 t_n sinh(w t_n) sinh t_n)."""
    w = ctx.p.omega
    kappa = 1.0 + w - 2.0 * w * immax
    if kappa < 0.04 * (1.0 + w):
        raise QuadError("strip violated: argument too close to the "
                        "boundary Im z = omega_bar", immax=immax)
    ltot = _log_target(ctx.cfg) + 4.0
    d = 0.8 * math.pi * min(1.0, 1.0 / w)
    step = 2.0 * math.pi * d / (ltot + 2.0 * w * d * (xmax + immax))
    n = int(math.ceil(ltot / kappa / step))
    if n > _MAX_NODES:
        raise QuadError("strip grid above node budget", nodes=n)
    t = step * np.arange(1, n + 1)
    # log sinh x = x - log 2 + log(1 - e^{-2x}), finite for every t > 0
    expo = (np.log(2.0 / t) - (1.0 + w) * t
            - np.log(-np.expm1(-2.0 * w * t)) - np.log(-np.expm1(-2.0 * t)))
    return step, 2.0 * w * t, expo


def _dense_sum(z, b, expo):
    """sum_n sin(b_n z) e^{expo_n} at arbitrary points z, with each
    term one exponential e^{expo_n +- i b_n z} (no factor overflows)."""
    ibz = 1j * b[:, None] * z[None, :]
    e = expo[:, None]
    return (np.exp(e + ibz).sum(axis=0) - np.exp(e - ibz).sum(axis=0)) / 2j


def _uniform_step(re):
    """Spacing of `re` if it is a uniform grid of at least _CHIRP_MIN
    points, else None.  The points of x0 + h*j round to the ulp of the
    line's largest |x|, so the deviation is judged on the whole line:
    against a near run's own max |x| that rounding would reject it."""
    m = re.size
    if m < _CHIRP_MIN:
        return None
    h = (re[-1] - re[0]) / (m - 1)
    dev = np.max(np.abs(re - (re[0] + h * np.arange(m))))
    if h == 0.0 or dev > 4.0 * np.finfo(float).eps * np.max(np.abs(re)):
        return None
    return h


def _chirp_sum(z0, h, m, b, expo):
    """_dense_sum on the m points z0 + h*j by one chirp-z transform.

    With n running over -N..N the sum is sum_n c_n W^{n j}, where
    c_n = sgn(n) e^{expo_|n| + i b_n z0} / 2i and W = e^{i b_1 h}
    (b_n = n b_1).  Bluestein's identity n j = (n^2 + j^2 - (j-n)^2)/2
    turns it into one convolution with the unit-modulus chirp
    e^{-i phi k^2}, phi = b_1 h / 2, evaluated by FFT.  Every chirp reads
    one table of e^{i phi k^2}, phi split so that head * k^2 is exact."""
    n_nodes = b.size
    width = 2 * n_nodes + 1
    coef = np.zeros(width, dtype=complex)
    coef[n_nodes + 1:] = np.exp(expo + 1j * b * z0) / 2j
    coef[n_nodes - 1::-1] = -np.exp(expo - 1j * b * z0) / 2j
    phi = 0.5 * b[0] * h
    size = 1 << (width + m - 2).bit_length()
    k2 = np.arange(max(width, m)) ** 2
    head = float(np.float32(phi))
    table = np.exp(1j * (head * k2)) * np.exp(1j * ((phi - head) * k2))
    # conjugate chirp at lags -(width-1)..m-1, negative lags wrapped
    chirp = np.zeros(size, dtype=complex)
    chirp[:m] = table[:m]
    chirp[size - width + 1:] = table[width - 1:0:-1]
    conv = np.fft.ifft(np.fft.fft(coef * table[:width], size)
                       * np.fft.fft(chirp.conj()))[:m]
    # array index k holds node n = k - N, hence the extra W^{-N j}:
    # e^{i phi j (j - 2N)} = e^{i phi (j - N)^2} e^{-i phi N^2}
    return conv * table[np.abs(np.arange(m) - n_nodes)] * table[n_nodes].conj()


def _log_G_strip(re, im, ctx, h):
    """log G(re + i*im) inside the strip, by the trapezoid rule on the
    strip integral.

    The integrand f(t) = sin(2 w t z)/(2 t sinh(w t) sinh t) - z/t^2 is
    even and analytic near R, so int_0^inf f = step (f(0)/2 + sum_{n>=1}
    f(n step)) up to geometrically small terms.  The algebraic part
    sums exactly, sum_{n>=1} z/(n step)^2 = z pi^2 / (6 step^2), and
    f(0) = -z (4 w^2 z^2 + 1 + w^2) / 6.  A run of >= _CHIRP_MIN points
    of a line of step h sums by chirp-z, anything else densely; h is
    judged on the whole line (see _uniform_step).  The run is anchored at
    the mean of re - h*j, summed as deviations from re[0]: one point's
    rounding would shift every value, and a plain mean of re rounds at
    the ulp of the run's summed |re|."""
    bound = (1.0 - _STRIP_MARGIN) * ctx.omega_bar
    if abs(im) >= bound:
        raise QuadError("strip violated", immax=abs(im), bound=bound)
    w = ctx.p.omega
    step, b, expo = _trapezoid_nodes(ctx, float(np.max(np.abs(re))),
                                     abs(im))
    z = re + 1j * im
    if h is None or re.size < _CHIRP_MIN:
        s = _dense_sum(z, b, expo)
    else:
        x0 = re[0] + (re - re[0] - h * np.arange(re.size)).sum() / re.size
        s = _chirp_sum(x0 + 1j * im, h, re.size, b, expo)
    f0 = -z * (4.0 * w * w * z * z + 1.0 + w * w) / 6.0
    return 1j * (step * (0.5 * f0 + s) - z * (math.pi ** 2 / (6.0 * step)))


def _log_m2i_sinh(v):
    """log(-2i sinh v), principal-branch pieces, stable for large |Re v|.
    Raises on sinh zeroes (poles/zeroes of G)."""
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    sgn = np.where(v.real >= 0, 1.0, -1.0)
    vv = sgn * v
    em = -cexpm1(-2.0 * vv)
    bad = np.abs(em) < 1e-13
    if np.any(bad):
        raise QuadError("pole or zero of G hit on shift path",
                        v=complex(v.flat[int(np.argmax(bad))]))
    vv.imag -= (0.5 * math.pi) * sgn
    return vv + np.log(em)


def _far_threshold(w):
    """|Re z| beyond which the quadratic asymptotic of log G is more
    accurate than the strip quadrature (error ~ e^{-2 pi min(w,1/w) x},
    driven below 1e-12)."""
    return max(6.0, 28.0 / (2.0 * math.pi * min(w, 1.0 / w)))


def _log_G_far(z, w):
    """log G in the far field: -i(pi w z^2/2 + pi(w + 1/w)/24) for
    Re z > 0, the negative of that for Re z < 0 (reflection)."""
    c0 = math.pi * (w + 1.0 / w) / 24.0
    quad = 0.5 * math.pi * w * z * z + c0
    sgn = np.where(z.real >= 0.0, -1.0, 1.0)
    return 1j * sgn * quad


def log_G_line(re, im, ctx):
    """log G(re + i*im) for a 1-d real array `re` on the horizontal
    line Im z = im.  One shift schedule serves the whole line; far from
    the imaginary axis the strip integral is replaced by the quadratic
    asymptotic.  The near points of a uniform line are one contiguous
    run with the line's step.

    The shift path takes big steps max(1, 1/w) while they end at or
    above -s0 (s0 the core band), then small ones min(1, 1/w) into the
    band.  Its length is counted in closed form, and a path of more than
    _MAX_SHIFTS steps, like a non-finite argument, raises; the path
    walked is the counted one, its heights subtracted step by step.
    So does a line whose far-field term pi w x^2 / 2 overflows."""
    re = np.atleast_1d(np.asarray(re, dtype=float))
    if not (math.isfinite(im) and np.isfinite(re).all()):
        raise QuadError("non-finite argument of log G", im=im)
    w = ctx.p.omega
    xmax = float(np.abs(re).max(initial=0.0))
    # multiplied in _log_G_far's order: inf here exactly where it overflows
    if math.isinf(0.5 * math.pi * w * xmax * xmax):
        raise QuadError("log G beyond the float range", x=xmax)
    s0 = ctx.core_band
    if im < -s0:
        return -log_G_line(-re, -im, ctx)
    big, small = max(1.0, 1.0 / w), min(1.0, 1.0 / w)
    top = max(big - s0, s0)
    n_big = math.floor((im - top) / big) + 1 if im >= top else 0
    n_small = max(0, math.ceil((im - n_big * big - s0) / small))
    if n_big + n_small > _MAX_SHIFTS:
        raise QuadError("shift path of log G above step budget",
                        steps=n_big + n_small)
    steps = np.repeat([big, small], [n_big, n_small])
    path = np.subtract.accumulate(np.concatenate([[float(im)], steps]))
    im_cur = float(path[-1])
    ys = path[1:] + ctx.omega_bar                   # Im zeta of each step
    scales = np.where(steps == 1.0, math.pi * w, math.pi)
    # terms in blocks of 2^14 values (or one step), summed in path order
    acc = 0.0
    rows = max(1, (1 << 14) // max(1, re.size))
    for j in range(0, len(ys), rows):
        zeta = scales[j:j + rows, None] * (re + 1j * ys[j:j + rows, None])
        # one 1-d call is faster than a 2-d one
        block = _log_m2i_sinh(zeta.ravel()).reshape(zeta.shape)
        block[0] += acc
        if len(block) > 1:
            np.add.accumulate(block, out=block)
        acc = block[-1]
    far = np.abs(re) >= _far_threshold(w)
    base = np.empty(re.shape, dtype=complex)
    if far.any():
        base[far] = _log_G_far(re[far] + 1j * im_cur, w)
    near = ~far
    if near.any():
        base[near] = _log_G_strip(re[near], im_cur, ctx, _uniform_step(re))
    return acc + base


def log_G(z, ctx):
    """log G at scalar or array arguments (principal-branch pieces
    summed along the shift path; consumers exponentiate).  Raises
    QuadError where log_G_line does, log G beyond the float range included."""
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    flat = zs.ravel()
    res = np.empty(flat.shape, dtype=complex)
    for im in sorted(set(flat.imag.tolist())):
        sel = flat.imag == im
        res[sel] = log_G_line(flat[sel].real, im, ctx)
    out = res.reshape(zs.shape)
    return complex(out.flat[0]) if scalar else out
