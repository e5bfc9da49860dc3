"""Quadrature on vertical lines in the complex plane.

Every integral in this package runs along contours Re t = -epsilon (or a
product of such lines), with integrands analytic in a strip around the
contour and exponentially decaying along it.  One evaluator,
`chain_line_integral`, computes them all.  It handles iterated
integrals whose stage-a integrand couples T_a to T_{a-1} only through
the difference T_a - T_{a-1} (the cumulative-variable form of all the
nested sums here).  On a shared uniform imaginary grid each stage is
one discrete convolution, so depth r costs r convolutions instead of an
r-dimensional tensor.  Each convolution is an FFT under an exponential
tilt (`_tilted_convolve`), O(n log n) per stage.  A single line is the
depth-1 chain, and an integral over the real axis is the line
Re t = -eps with x = Im t.

Uniform (trapezoid) steps are spectrally accurate for these integrands:
the error decays like exp(-2*pi*d/h) where d is the width of the
analyticity strip, in practice the contour-to-pole distance.  Every
grid is built by one rule (`_chain_grid`) from the strip width, the
decay rates on both sides and a bound on the oscillation frequency.
Error estimates come from step doubling plus boundary-tail monitors and
are deliberately conservative.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadConfig",
    "EvalResult",
    "QuadError",
    "ChainStage",
    "measure_kernel",
    "chain_pass",
    "chain_line_integral",
]

TWO_PI = 2.0 * math.pi

# Grid constants.  They enter every value, so fingerprint() names them.
_MARGIN = 6.0          # additive truncation margin
_STRIP_SAFETY = 0.8    # usable fraction of the pole distance
_SHARPNESS = 2.2       # grid-step log factor (step doubling headroom)
# Budgets.  They only decide whether an evaluation raises QuadError,
# never its value, so they stay out of the fingerprint.
_MAX_DIM = 6
_MAX_CHAIN_NODES = 200_000


class QuadError(Exception):
    """Raised when a contour integral cannot be evaluated as configured."""

    def __init__(self, message, **detail):
        super().__init__(message)
        self.detail = detail


@dataclass(frozen=True)
class QuadConfig:
    """Accuracy targets of an evaluation: the relative tolerance rel_tol
    and the absolute tolerance abs_tol.  Everything else a grid needs is
    a module constant."""
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def fingerprint(self):
        """Short string identifying everything that affects values: the
        two tolerances and the grid constants."""
        return ("r%.3g,a%.3g,m%.3g,s%.3g,q%.3g"
                % (self.rel_tol, self.abs_tol, _MARGIN, _STRIP_SAFETY,
                   _SHARPNESS))


DEFAULT_CONFIG = QuadConfig()


@dataclass
class EvalResult:
    value: complex
    err_estimate: float
    meta: dict = field(default_factory=dict)

    def __complex__(self):
        return complex(self.value)


def _require_finite(value, err, **detail):
    """Raise QuadError unless both the value and its error estimate are
    finite; an integral never returns NaN or inf."""
    if not (math.isfinite(abs(complex(value))) and math.isfinite(err)):
        raise QuadError("non-finite integral or error estimate",
                        value=complex(value), err=float(err), **detail)


def _worst(values):
    """The largest of the non-negative `values` (0.0 if there are none),
    or NaN if any is NaN: the builtin max keeps its current best when it
    meets a NaN, so a NaN case would drop out of a worst-case check."""
    values = [float(v) for v in values]
    if any(map(math.isnan, values)):
        return math.nan
    return max(values, default=0.0)


def _log_target(cfg):
    tol = max(min(cfg.rel_tol, cfg.abs_tol) * 1e-2, 1e-16)
    return math.log(1.0 / tol)


# ---------------------------------------------------------------------------
# Convolution chains for iterated cumulative integrals

@dataclass(frozen=True)
class ChainStage:
    """One stage of an iterated integral in cumulative variables.

    cum:  kernel evaluated at the cumulative point T_a (None = 1)
    diff: kernel evaluated at the difference T_a - T_{a-1}; None means
          the standard measure 1/(e^{2 pi i t} - 1).
    """
    cum: object = None
    diff: object = None


def measure_kernel(delta):
    """1/(e^{2 pi i delta} - 1), written as e^{-x}/(1 - e^{-x}) where
    Re x = Re(2 pi i delta) > 0, so that no exponential overflows."""
    x = TWO_PI * 1j * np.asarray(delta)
    pos = x.real > 0.0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, -e, 1.0) / (e - 1.0)


def _fast_len(n):
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles fast."""
    best = 1 << max(0, n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


# The FFT of a tilted pair rounds output k to about eps * e^{f(t, k)},
# f(t, k) = max_i(log|a_i| + t i) + max_m(log|b_m| + t m) - t k, while
# the direct sum rounds it to about eps * max_i |a_i b_{k-i}|.  Each
# output is taken from a tilt whose bound exceeds the best one at that
# output by at most e^_TILT_SLACK.
_TILT_SLACK = 2.0
_HULL_STRIDE = 8


def _upper_hull(la):
    """Upper concave hull of the points (i, la[i]) as (x, y) arrays.

    Points are first thinned to the maximum of each run of _HULL_STRIDE
    and the two end points, which are always vertices.  Vectorised
    sweeps then drop every point on or below the chord of its
    neighbours (such a point is never a hull vertex, so the drops can be
    made at once) until none is left or, rarely, a monotone chain
    finishes the rest."""
    n = len(la)
    pad = (-n) % _HULL_STRIDE
    blocks = np.concatenate([la, np.full(pad, -np.inf)]).reshape(
        -1, _HULL_STRIDE)
    x = np.argmax(blocks, axis=1) + _HULL_STRIDE * np.arange(len(blocks))
    x = x[la[x] > -np.inf]
    if len(x) == 0:
        return np.zeros(0), np.zeros(0)
    # the end points are added by hand: the first call of np.unique
    # loads about 2 MB of numpy code, a peak-memory cost on its own
    first = int(np.argmax(la > -np.inf))
    last = n - 1 - int(np.argmax(la[::-1] > -np.inf))
    if first < x[0]:
        x = np.concatenate([[first], x])
    if last > x[-1]:
        x = np.append(x, last)
    y = la[x]
    x = x.astype(float)
    for _ in range(8):
        if len(x) < 3:
            return x, y
        cross = ((x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
                 - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]))
        if np.all(cross < 0.0):
            return x, y
        keep = np.ones(len(x), dtype=bool)
        keep[1:-1] = cross < 0.0
        x, y = x[keep], y[keep]
    hx, hy = [], []
    for px, py in zip(x.tolist(), y.tolist()):
        while len(hx) > 1 and ((hx[-1] - hx[-2]) * (py - hy[-2])
                               - (hy[-1] - hy[-2]) * (px - hx[-2])) >= 0.0:
            hx.pop()
            hy.pop()
        hx.append(px)
        hy.append(py)
    return np.array(hx), np.array(hy)


def _tilt_plan(la, lb, lo, hi):
    """Tilts and inclusive output blocks [(t, start, stop), ...] that
    cover lo..hi-1.

    The direct rounding scale of output k is bounded by g(k), the max-
    plus convolution of the two hulls: their Minkowski sum, whose edges
    are the edges of both hulls merged by slope.  The tilt -s makes
    f(t, k) the tangent of g along its edge of slope s, so the excess
    f - g is zero on that edge and grows linearly away from it.  Blocks
    are chosen greedily from the left: of the tangents within the slack
    at the block start, the rightmost reaches furthest, which fixes the
    block end; the tangent with the least worst excess over the block is
    then used.  Excesses are checked at the hull vertices, between which
    they are linear."""
    xa, ya = _upper_hull(la)
    xb, yb = _upper_hull(lb)
    dx = np.concatenate([np.diff(xa), np.diff(xb)])
    dy = np.concatenate([np.diff(ya), np.diff(yb)])
    if len(dx) == 0:
        return [(0.0, lo, hi - 1)]
    order = np.argsort(-dy / dx, kind="stable")
    vx = xa[0] + xb[0] + np.concatenate([[0.0], np.cumsum(dx[order])])
    vy = ya[0] + yb[0] + np.concatenate([[0.0], np.cumsum(dy[order])])
    slopes = dy[order] / dx[order]
    px = np.concatenate([[lo], vx[(vx > lo) & (vx < hi - 1)], [hi - 1]])
    # g at the sample points; beyond the hull its end edges continue
    gy = np.interp(px, vx, vy)
    gy = np.where(px < vx[0], vy[0] + slopes[0] * (px - vx[0]), gy)
    gy = np.where(px > vx[-1], vy[-1] + slopes[-1] * (px - vx[-1]), gy)
    base = vy[:-1] - slopes * vx[:-1]
    own = np.clip(np.searchsorted(vx, px, side="right") - 1,
                  0, len(slopes) - 1)

    def excess(e, p):
        return base[e] + slopes[e] * px[p] - gy[p]

    plan = []
    start = 0
    while True:
        cand = np.arange(own[start], len(slopes))
        reach = cand[np.flatnonzero(excess(cand, start) <= _TILT_SLACK)[-1]]
        over = np.flatnonzero(excess(reach, np.arange(start, len(px)))
                              > _TILT_SLACK)
        stop = len(px) - 1 if len(over) == 0 else start + int(over[0]) - 1
        block = np.arange(start, stop + 1)
        # the worst excess over the block is convex in the tilt, so a
        # ternary search over the candidate edges finds its minimum
        e0, e1 = int(own[start]), int(reach)
        while e1 - e0 > 2:
            m0 = e0 + (e1 - e0) // 3
            m1 = e1 - (e1 - e0) // 3
            if excess(m0, block).max() <= excess(m1, block).max():
                e1 = m1
            else:
                e0 = m0
        e = min(range(e0, e1 + 1), key=lambda c: excess(c, block).max())
        plan.append((-float(slopes[e]), int(px[start]), int(px[stop])))
        if stop == len(px) - 1:
            return plan
        start = stop


def _tilted_fft(x, lx, t, size):
    """Length-size FFT of x_i e^{t i - s}, s = max(log|x_i| + t i), so
    that the tilted sequence has unit maximum.  The factor is applied as
    two halves: for x_i != 0 the exponent is at most -log|x_i| <= 745,
    whose half never overflows, and the clip keeps zeros at zero."""
    e = np.arange(len(lx), dtype=float)
    e *= t
    s = np.max(e + lx)
    e -= s
    np.minimum(e, 745.0, out=e)
    e *= 0.5
    np.exp(e, out=e)
    buf = np.zeros(size, dtype=complex)
    np.multiply(x, e, out=buf[:len(x)])
    buf[:len(x)] *= e
    return np.fft.fft(buf, out=buf), s


def _tilted_convolve(a, b, lo, hi):
    """Entries lo..hi-1 of the full linear convolution of a and b.

    Computed by FFT of the tilted inputs a_i e^{t i} and b_m e^{t m},
    each scaled to unit maximum, and untilted by e^{-t k} afterwards: a
    tilt commutes with convolution and moves where the FFT's rounding
    falls.  A plain FFT spreads the rounding of the largest products
    over every output, which swamps outputs many decades smaller; with
    one tilt per block of outputs (`_tilt_plan`) each output is rounded
    relative to its own scale sum_i |a_i b_{k-i}|, as in the direct sum
    (to about 1e-13 instead of 1e-16).  That holds for resolved inputs,
    whose magnitudes change by a moderate factor from one sample to the
    next, as sampled integrands do.  Where neighbouring samples differ
    by many decades, a hull bridges an exact zero between them, and an
    output whose largest term is that zero is rounded relative to the
    bridged size.  Non-finite inputs give NaN outputs; nothing is
    masked.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(np.abs(a))
        lb = np.log(np.abs(b))
        top = la.max() + lb.max()
    if np.isnan(top) or top == np.inf:
        return np.full(hi - lo, np.nan, dtype=complex)
    if top == -np.inf:
        return np.zeros(hi - lo, dtype=complex)
    size = _fast_len(max(hi, len(a), len(b), len(a) + len(b) - 1 - lo))
    out = np.empty(hi - lo, dtype=complex)
    for t, start, stop in _tilt_plan(la, lb, lo, hi):
        fa, sa = _tilted_fft(a, la, t, size)
        fb, sb = _tilted_fft(b, lb, t, size)
        fa *= fb
        del fb
        np.fft.ifft(fa, out=fa)
        ks = np.arange(start, stop + 1)
        out[start - lo:stop + 1 - lo] = (fa[start:stop + 1]
                                        * np.exp(sa + sb - t * ks))
    return out


def _chain_grid(eps, cfg, decay, nstages, pole_dist=None, freq=0.0,
                chirp=0.0):
    """Shared imaginary grid (h, ys) for a chain of nstages stages.

    decay is the (minus, plus) pair of exponential decay rates towards
    Im t = -inf and +inf.  The minus side gets one guard band, the plus
    side one per stage after the first, for kernels that do not decay
    upward until a later stage does.  The step resolves the pole
    distance (pole_dist, default eps) and an oscillation of angular
    frequency at most freq + chirp*|Im t| along the grid, whose growth
    across the strip it must outrun.
    """
    dm, dp = decay
    d = (pole_dist if pole_dist else eps) * _STRIP_SAFETY
    if d <= 0.0:
        raise QuadError("pole distance must be positive", eps=eps)
    L = _SHARPNESS * math.log(1.0 / max(cfg.rel_tol, 1e-15))
    h = TWO_PI * d / L
    ltol = _log_target(cfg)
    guard = ltol / TWO_PI
    ym = ltol / dm + _MARGIN + guard
    yp = ltol / dp + _MARGIN + guard * max(0, nstages - 1)
    nu = freq + chirp * max(ym, yp)
    if nu > 0.0:
        h = 1.0 / (1.0 / h + nu / math.pi)
    nm = int(math.ceil(ym / h / 2.0)) * 2
    npl = int(math.ceil(yp / h / 2.0)) * 2
    if nm + npl + 1 > _MAX_CHAIN_NODES:
        raise QuadError("chain grid above node budget", nodes=nm + npl + 1)
    ys = h * np.arange(-nm, npl + 1)
    return h, ys


def chain_pass(stages, eps, h, ys):
    """Run the convolution chain on the given grid.

    Returns chi, the stage-r integrand accumulated on the line
    Re T_r = -r*eps: the final integral is i^r * h * chi.sum() (times
    any caller prefactor).
    """
    n = len(ys)
    ydiff = h * np.arange(-(n - 1), n)
    chi = None
    for a, st in enumerate(stages, start=1):
        line = (-a * eps) + 1j * ys
        if chi is None:
            dline = (-eps) + 1j * ys
            dvals = st.diff(dline) if st.diff else measure_kernel(dline)
            chi = dvals
        else:
            dgrid = (-eps) + 1j * ydiff
            dvals = st.diff(dgrid) if st.diff else measure_kernel(dgrid)
            chi = h * _tilted_convolve(chi, dvals, n - 1, 2 * n - 1)
        if st.cum is not None:
            chi = chi * st.cum(line)
    return chi


def chain_line_integral(stages, eps, cfg=None, *, decay, pole_dist=None,
                        prefactor=1.0, freq=0.0):
    """Iterated integral prod_a int dT_a diff_a(T_a - T_{a-1}) cum_a(T_a)
    over the lines Re T_a = -a*eps, evaluated by chained convolutions.

    decay is the (minus, plus) pair of decay rates of the integrand
    along the lines (2*pi on the minus side under the measure kernel),
    freq a bound on its angular frequency along them."""
    cfg = cfg or DEFAULT_CONFIG
    r = len(stages)
    if r == 0:
        return EvalResult(complex(prefactor), 0.0, {"dim": 0})
    if r > _MAX_DIM:
        raise QuadError("dimension above the supported maximum",
                        dim=r, max_dim=_MAX_DIM)
    dm, dp = float(decay[0]), float(decay[1])
    if not (dm > 0.0 and dp > 0.0):
        raise QuadError("decay hint must be positive", decay=decay)
    h, ys = _chain_grid(eps, cfg, (dm, dp), r, pole_dist, freq)

    chi = chain_pass(stages, eps, h, ys)
    value = complex(prefactor) * (1j ** r) * h * chi.sum()
    tail = abs(prefactor) * (abs(chi[0]) / dm + abs(chi[-1]) / dp)
    _require_finite(value, tail, nodes=len(ys), stage="fine")
    meta = {"dim": r, "eps": eps, "h": h, "nodes": len(ys),
            "U": (float(-ys[0]), float(ys[-1]))}
    chi_c = chain_pass(stages, eps, 2 * h, ys[::2])
    value_c = complex(prefactor) * (1j ** r) * (2 * h) * chi_c.sum()
    err = abs(value - value_c) + tail + cfg.abs_tol
    _require_finite(value_c, err, nodes=len(ys), stage="coarse")
    return EvalResult(value, err, meta)
