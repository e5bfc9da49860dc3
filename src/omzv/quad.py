"""Quadrature on vertical lines in the complex plane.

Every integral in this package runs along contours Re t = -epsilon (or a
product of such lines), with integrands analytic in a strip around the
contour and exponentially decaying along it.  One evaluator,
`_chain_integral`, computes them all.  It runs chains, iterated
integrals whose stage-a integrand couples T_a to T_{a-1} only through
the difference T_a - T_{a-1} (the cumulative-variable form of all the
nested sums here), and a finisher turns their last rows into the
value: `chain_line_integral` for one chain, the Theta coupling of the
Ohno connector for two.  On a shared uniform imaginary grid each stage is
one discrete convolution, so depth r costs r convolutions instead of an
r-dimensional tensor; `_convolve`, the one way into a convolution (the
Theta coupling's too), chooses direct sums or a tilted FFT.  A single
line is the depth-1 chain, and an integral over the real axis is the
line Re t = -eps with x = Im t.

One pass (`chain_rows`) evaluates each kernel once per integral on the
fine grid, and the measure kernel, which does not depend on omega, once
per grid, kept in the process memo `cache._MEASURE_MEMO`.  The error
estimate compares the fine grid with the grids of step 2h and 4h, the
fine grid with every other and every fourth node kept (trapezoid grids
nest; `STEPS`).  Their chains ride through the fine pass as two more
rows, zero off their nodes: each stage is one convolution of all three
rows, and the finisher runs once per grid on them.  A diff table is
one read-only `_Operand`, whose logarithm and hull serve every stage and
every integral that reads it.

Every chain kernel is a product of powers of e^x/(1 - e^x) and
1/(1 - e^x); `geometric_factor` evaluates them without overflow and
raises QuadError at their poles.

Uniform (trapezoid) steps are spectrally accurate for these integrands:
the error decays like exp(nu*d - 2*pi*d/h), d the width of the
analyticity strip (the contour-to-pole distance) and nu a bound on the
integrand's angular frequency, as in `hypgamma._trapezoid_nodes`.
`_chain_integral` sizes its own grid from d, nu and the decay rates its
caller passes, by one rule (`_chain_grid`): the fine grid itself meets
the tolerance, its span covering each tail once, one guard band per side
(Trefethen & Weideman, SIAM Review 56, 2014).  The three levels
extrapolate that geometric decay to the fine grid's own error, floored
at the rounding of the finisher's sum, plus the finisher's boundary-tail
monitors; a grid whose estimate misses the tolerance is refined by
halving its step.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import cache as _cache

__all__ = [
    "QuadConfig",
    "EvalResult",
    "QuadError",
    "ChainStage",
    "cexpm1",
    "geometric_factor",
    "measure_kernel",
    "chain_line_integral",
]

TWO_PI = 2.0 * math.pi

# Grid constants; fingerprint() names them and the span rule, "g1".
_STRIP_SAFETY = 0.8    # usable fraction of the pole distance
_SHARPNESS = 1.4       # grid-step log factor: error ~ rel_tol^_SHARPNESS
# Budgets.  They only decide whether an evaluation raises QuadError,
# never its value, so they stay out of the fingerprint.  _MAX_DIM also
# keeps the estimates honest, not only the cost bounded: to depth 8 the
# values at two contour offsets differ by at most 0.24 of their summed
# estimates, but deeper the rounding can outgrow the fixed 1e-13 floor
# of `_chain_integral`'s estimate (by up to 1.3 times at depth 12).
_MAX_DIM = 8
_MAX_CHAIN_NODES = 200_000
# Grid levels of the error estimate: level l keeps every STEPS[l]-th node.
STEPS = (1, 2, 4)


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

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be finite and > 0")
        if not 0.0 <= self.abs_tol < math.inf:
            raise ValueError("abs_tol must be finite and >= 0")

    def fingerprint(self):
        """Short string identifying everything that affects values: the
        two tolerances, the span rule and the grid constants."""
        return ("r%.3g,a%.3g,g1,s%.3g,q%.3g"
                % (self.rel_tol, self.abs_tol, _STRIP_SAFETY, _SHARPNESS))


DEFAULT_CONFIG = QuadConfig()


@dataclass
class EvalResult:
    """A value and its error estimate, as Python complex and float
    whatever route made them (a fresh grid's numpy scalars, the memo, the
    store): numpy and CPython divide complex numbers differently."""
    value: complex
    err_estimate: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.value = complex(self.value)
        self.err_estimate = float(self.err_estimate)

    def __complex__(self):
        return self.value

    @classmethod
    def combine(cls, terms, meta=None):
        """The sum of c * value over the (c, result) pairs, added in their
        order, with the estimate sum |c| * err_estimate."""
        total, err = 0j, 0.0
        for c, res in terms:
            total += c * res.value
            err += abs(c) * res.err_estimate
        return cls(total, err, meta or {})


def _require_finite(value, err, **detail):
    """Raise QuadError unless both the value and its error estimate are
    finite; an integral never returns NaN or inf."""
    if not (math.isfinite(abs(complex(value))) and math.isfinite(err)):
        raise QuadError("non-finite integral or error estimate",
                        value=complex(value), err=float(err), **detail)


def _worst(values):
    """The largest of the non-negative `values`, or NaN if there are
    none or any is NaN: the builtin max keeps its current best when it
    meets a NaN, so a NaN case would drop out of a worst-case check, and
    a worst case over no cases checks nothing."""
    values = [float(v) for v in values]
    if any(map(math.isnan, values)):
        return math.nan
    return max(values, default=math.nan)


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


def cexpm1(z):
    """exp(z) - 1, accurate for small |z| (numpy expm1 is real-only)."""
    z = np.asarray(z, dtype=complex)
    return _expm1(z, np.exp(z))


def _expm1(z, ez, mag=None, low=None):
    """exp(z) - 1 from ez = exp(z): the difference, or a series where
    |z| < 1e-4 and the difference would cancel.  mag and low, float and
    bool arrays of z's shape, take |z| and the test when given."""
    out = ez - 1.0
    small = np.less(np.abs(z, out=mag), 1e-4, out=low)
    if np.any(small):
        zs = np.where(small, z, 0.0)
        series = zs * (1.0 + zs / 2.0 * (1.0 + zs / 3.0 * (1.0 + zs / 4.0)))
        out = np.where(small, series, out)
    return out


def geometric_factor(x, a, b):
    """(e^x/(1 - e^x))^a (1/(1 - e^x))^b for integers a, b >= 0, the
    factors of every chain kernel, from the one exponential e = e^s:
    s = x where Re x <= 0 and -x elsewhere, so |e| <= 1 and nothing
    overflows.  With d = e - 1 the factors are -e/d and -1/d where
    Re x <= 0, 1/d and e/d elsewhere.  Raises QuadError at a pole, x
    within 1e-12 of 2 pi i m.  A scalar x is a one-point array."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 0:
        return geometric_factor(x.reshape(1), a, b)[0]
    pos = x.real > 0.0
    # a real sign array: np.where is several times slower on complex
    s = x * np.where(pos, -1.0, 1.0)
    e = np.exp(s)
    mag, low = np.empty(x.shape), np.empty(x.shape, dtype=bool)
    d = _expm1(s, e, mag, low)
    if np.less(np.abs(d, out=mag), 1e-12, out=low).any():
        raise QuadError("kernel pole: x at an integer multiple of 2 pi i",
                        x=complex(x.flat[int(np.argmax(low))]))
    # s is spent: the numerator takes its buffer
    num = np.multiply((-1.0) ** (a + b), _power(e, a), out=s)
    np.copyto(num, _power(e, b) if b else 1.0, where=pos)
    return np.divide(num, _power(d, a + b), out=num)


def _power(z, k):
    """z^k by products, for an integer k >= 0: numpy's complex power of
    an array goes through exp and log (and an in-place product rounds
    differently on one-point arrays)."""
    out = np.ones_like(z) if k == 0 else z
    for _ in range(k - 1):
        out = out * z
    return out


def measure_kernel(delta):
    """1/(e^{2 pi i delta} - 1), the factor e^x/(1 - e^x) at
    x = -2 pi i delta (`geometric_factor`)."""
    return geometric_factor(-TWO_PI * 1j * np.asarray(delta), 1, 0)


@lru_cache(maxsize=256)
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
# output by at most e^_TILT_SLACK.  Tilts are multiples of 2^-20 and row
# scales integers (`_tilted_fft`): with |t| < 2^11 (a log-magnitude moves
# by at most 1,455 per node) and n < 2^19 nodes, each exponent t*i, e - s
# and sa + sb - t*k is a multiple of 2^-20 below 2^33, exact in float64.
_TILT_SLACK = 2.0
_HULL_STRIDE = 8
# Largest grid of direct convolutions, and the smallest normal float.
_DIRECT_MAX = 1200
_TINY = np.finfo(float).tiny


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


def _tilt_plan(hull_a, hull_b, lo, hi):
    """Tilts and inclusive output blocks [(t, start, stop), ...] that
    cover lo..hi-1, given the upper hulls of both log-magnitudes.

    The direct rounding scale of output k is bounded by g(k), the max-
    plus convolution of the two hulls: their Minkowski sum, whose edges
    are the edges of both hulls merged by slope.  The tilt -s makes
    f(t, k) the tangent of g along its edge of slope s, so the excess
    f - g is zero on that edge and grows away from it.  Blocks are
    chosen greedily from the left: of the tangents within the slack at
    the block start, the rightmost reaches furthest, which fixes the
    block end.  g is concave, so each excess is convex and peaks over a
    block at one of its ends: the tangent whose larger end excess is
    least is used.  Excesses are checked at the hull vertices, between
    which they are linear."""
    xa, ya = hull_a
    xb, yb = hull_b
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
        at_start = excess(cand, start)
        cand = cand[:np.flatnonzero(at_start <= _TILT_SLACK)[-1] + 1]
        over = np.flatnonzero(excess(cand[-1], np.arange(start, len(px)))
                              > _TILT_SLACK)
        stop = len(px) - 1 if len(over) == 0 else start + int(over[0]) - 1
        worst = np.maximum(at_start[:len(cand)], excess(cand, stop))
        e = cand[np.argmin(worst)]
        t = round(-float(slopes[e]) * 2 ** 20) / 2 ** 20
        plan.append((t, int(px[start]), int(px[stop])))
        if stop == len(px) - 1:
            return plan
        start = stop


def _tilted_fft(x, lx, t, size):
    """Length-size FFTs of the rows x_i e^{t i - s}, s = max(log|x_i| +
    t i) per row rounded up to an integer (kept as a column), so each
    tilted row has its maximum in (1/e, 1].  The factor is applied as
    two halves: for x_i != 0 the exponent is at most -log|x_i| <= 745,
    whose half never overflows, and the clip keeps zeros at zero."""
    n = lx.shape[-1]
    e = np.arange(n, dtype=float)
    e *= t
    s = np.ceil(np.max(e + lx, axis=-1, keepdims=True))
    e = e - s
    np.minimum(e, 745.0, out=e)
    e *= 0.5
    np.exp(e, out=e)
    buf = np.zeros(x.shape[:-1] + (size,), dtype=complex)
    np.multiply(x, e, out=buf[..., :n])
    buf[..., :n] *= e
    return np.fft.fft(buf, out=buf), s


class _Operand:
    """A kernel table as the second operand of `_convolve`, read only:
    its values, their log-magnitude and its maximum top, and its upper
    hull.  A table convolved at several stages, or by every integral on
    a grid (`_measure_operand`), takes its logarithm and hull once; no
    convolution writes to it."""

    def __init__(self, vals):
        self.vals = vals.view()
        with np.errstate(divide="ignore", invalid="ignore"):
            self.log = np.log(np.abs(vals))
            self.hull = _upper_hull(self.log)
        self.vals.flags.writeable = self.log.flags.writeable = False
        self.top = self.log.max()


def _tilted_convolve(a, b, lo, hi):
    """Entries lo..hi-1 of the full linear convolution of each row of a
    with the `_Operand` b, which is only read.

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

    A block of L outputs start..stop reads b only at start-n+1..stop:
    each block transforms that window, at the shortest length that keeps
    its outputs free of wrap-around (n + L - 1 in a chain, not 2n - 1).

    The rows share the tilt plan of the first one, which must not
    vanish where the others do not (an all-zero first row gives zeros):
    per tilt, one FFT of all rows against the shared FFT of b, and each
    row untilted by its own scale.  The first row's outputs are those
    of its one-row call, bit for bit.
    """
    shape = (len(a), hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(np.abs(a))
        top = la.max() + b.top
    if np.isnan(top) or top == np.inf:
        return np.full(shape, np.nan, dtype=complex)
    if la[0].max() == -np.inf or b.top == -np.inf:
        return np.zeros(shape, dtype=complex)
    n, nb = a.shape[-1], len(b.vals)
    out = np.empty(shape, dtype=complex)
    plan = _tilt_plan(_upper_hull(la[0]), b.hull, lo, hi)
    for t, start, stop in plan:
        m0, m1 = max(0, start - n + 1), min(nb, stop + 1)
        size = _fast_len(max(n, stop + 1 - m0, n + m1 - 1 - start))
        fb, sb = _tilted_fft(b.vals[m0:m1], b.log[m0:m1], t, size)
        fa, sa = _tilted_fft(a, la, t, size)
        fa *= fb
        np.fft.ifft(fa, out=fa)
        j, L = start - m0, stop + 1 - start
        out[..., start - lo:stop + 1 - lo] = (
            fa[..., j:j + L] * np.exp(sa + sb - t * np.arange(j, j + L)))
    return out


def _convolve(rows, op, lo, hi):
    """Outputs lo..hi-1 of the convolution of each level row (n nodes)
    with the `_Operand` op, row l at its every STEPS[l]-th node with op's
    every STEPS[l]-th entry: a chain stage's valid part n-1..2n-2, or all
    of 0..2n-2 for the Theta coupling.  Up to _DIRECT_MAX = 1200 nodes
    they are direct sums, each within a few u of its own scale (166-489 u
    tilted), in 0.14-0.82 of the tilted time (parity near 1,500 nodes),
    unless a product of nonzero entries of op and the first row can be
    subnormal (< _TINY; 6 times slower direct).  Else `_tilted_convolve`."""
    n = rows.shape[-1]
    if n > _DIRECT_MAX or (
            np.abs(rows[0]).min(initial=np.inf, where=rows[0] != 0)
            * np.exp(op.log.min(initial=np.inf, where=op.log > -np.inf))
            < _TINY):
        return _tilted_convolve(rows, op, lo, hi)
    skip = n - 1 if lo >= n - 1 and hi <= len(op.vals) else 0
    out = np.zeros((len(rows), hi - lo), dtype=complex)
    for row, o, m in zip(rows, out, STEPS):
        full = np.convolve(op.vals[::m], row[::m], "valid" if skip else "full")
        o[::m] = full[(lo - skip) // m:(hi - 1 - skip) // m + 1]
    return out


def _chain_grid(eps, cfg, decay, pole_dist=None, freq=0.0, chirp=0.0):
    """Shared imaginary grid (h, ys) of `_chain_integral`'s chains.

    decay is the (minus, plus) pair of exponential decay rates towards
    Im t = -inf and +inf.  The span is l/dm + g below and l/dp + g above
    (target e^{-l}, `_log_target`), one guard band g = l/(2 pi) per side
    at any depth.  Below, G kernels tend to a constant and E-block
    binomials grow: only the measure in each gap brings a row down.
    Above, any T_a over T_r pays e^{-2 pi (T_a - T_r)}: no stage adds a
    band.  The step resolves the pole distance d (pole_dist, default eps)
    and an oscillation of angular frequency at most nu = freq +
    chirp*|Im t|: the error e^{nu d - 2 pi d/h} is e^{-L} at 1/h =
    L/(2 pi d) + nu/(2 pi).  QuadError for a decay rate or a pole
    distance not > 0.
    """
    dm, dp = float(decay[0]), float(decay[1])
    if not (dm > 0.0 and dp > 0.0):
        raise QuadError("decay hint must be positive", decay=decay)
    d = (eps if pole_dist is None else pole_dist) * _STRIP_SAFETY
    if not d > 0.0:
        raise QuadError("pole distance must be positive",
                        pole_dist=pole_dist, eps=eps)
    L = _SHARPNESS * math.log(1.0 / max(cfg.rel_tol, 1e-15))
    h = TWO_PI * d / L
    ltol = _log_target(cfg)
    ym, yp = ltol / dm + ltol / TWO_PI, ltol / dp + ltol / TWO_PI
    nu = freq + chirp * max(ym, yp)
    if nu > 0.0:
        h = 1.0 / (1.0 / h + nu / TWO_PI)
    nm = int(math.ceil(ym / h / 4.0)) * 4
    npl = int(math.ceil(yp / h / 4.0)) * 4
    if nm + npl + 1 > _MAX_CHAIN_NODES:
        raise QuadError("chain grid above node budget", nodes=nm + npl + 1)
    ys = h * np.arange(-nm, npl + 1)
    return h, ys


def _diff_grid(eps, h, n):
    """The 2n-1 differences -eps + i h k, |k| < n, of a grid of n nodes."""
    return (-eps) + 1j * (h * np.arange(-(n - 1), n))


def _measure_operand(eps, h, n):
    """The measure kernel's `_Operand` on the differences of the grid
    (eps, h) of n nodes, the same for every omega: made and memoised on
    the grid's first use, and read by every integral on the grid."""
    return _cache._MEASURE_MEMO.get_or_make(
        (eps, h, 2 * n - 1),
        lambda: _Operand(measure_kernel(_diff_grid(eps, h, n))))


def chain_rows(chains, eps, h, ys):
    """The chains (lists of ChainStage) on the grid (h, ys), each with
    the chains of the nested grids of step 2h and 4h, every kernel
    evaluated once.

    Each distinct diff kernel of a stage after the first is one
    read-only `_Operand` on the 2n-1 differences h*k, |k| < n, shared by
    every stage and chain that uses it; the measure kernel's (diff None)
    is the grid's one operand, shared by every integral on it
    (`_measure_operand`).  A first stage's diff kernel is the slice of
    that table on its line, which holds exactly the same values, or else
    is evaluated on the line alone.  Stage a's cum kernel is evaluated
    on the line Re T = -a*eps when the pass reaches it, so that one
    full-length cum table is held at a time.

    The coarse chains are two more rows on the fine grid, zeroed before
    each convolution off the even nodes and off every fourth node (what
    they hold there is never read).  n - 1 is a multiple of 4, so their
    outputs on those nodes take only the differences on them, the tables
    of step 2h and 4h.  Each stage is one `_convolve` of all rows (one
    shared logarithm, hull and tilt plan when tilted), and they are
    multiplied by the same cum values, as chi * cum in that operand
    order: a complex product rounds differently with its operands
    swapped, and the fine row rounds as the one-row chain does.  The
    coarse rows start at the first convolution (before it they are
    subsamples of the fine row), and a chain of depth 1 has the fine row
    for all three.

    Returns per chain the three stage-r rows on the line Re T_r =
    -r*eps; row l at every m = STEPS[l]-th node is the chain of step m*h.
    """
    n = len(ys)
    first = n - 1 - int(round(-ys[0] / h))
    ops = {d: _measure_operand(eps, h, n) if d is None
           else _Operand(d(_diff_grid(eps, h, n)))
           for d in dict.fromkeys(st.diff for stages in chains
                                  for st in stages[1:])}
    lines = {}
    steps = h * np.array(STEPS, dtype=float)[:, None]
    out = []
    for stages in chains:
        d = stages[0].diff
        if d not in lines:
            lines[d] = (ops[d].vals[first:first + n] if d in ops else
                        (measure_kernel if d is None else d)((-eps) + 1j * ys))
        chi = lines[d]
        for a, st in enumerate(stages, start=1):
            if a > 1:
                chi = np.array([chi] * 3) if a == 2 else chi
                chi[1:, 1::2] = chi[2, 2::4] = 0.0
                chi = _convolve(chi, ops[st.diff], n - 1, 2 * n - 1) * steps
            if st.cum is not None:
                chi = chi * st.cum(-a * eps + 1j * ys)
        out.append((chi, chi, chi) if chi.ndim == 1 else tuple(chi))
    return out


def _chain_integral(chains, eps, cfg, finish, *, decay, pole_dist=None,
                    freq=0.0, chirp=0.0, **meta):
    """One or more chains (lists of ChainStage) on the lines Re T_a =
    -a*eps, on the grid `_chain_grid` sizes from decay, pole_dist, freq
    and chirp, refined until their error estimate meets the tolerance.
    QuadError for a chain longer than _MAX_DIM.

    finish(h, ys, rows) -> ([V_h, V_2h, V_4h], tail, scale) runs once per
    grid on each chain's three last rows (`chain_rows`): row l at every
    m = STEPS[l]-th node gives the value at step m*h, and the fine rows a
    tail bound and the sum of the magnitudes added up.  With e2 = |V_h -
    V_2h| and e4 = |V_2h - V_4h|, the
    estimate e2 (e2/e4)^2 is the error of V_h for a trapezoid error
    A e^{-c/h}; it is e2 when e4 <= e2.  Floored at 1e-13 of the fine
    scale (the rounding of the convolutions and the sum), it gives err =
    max(estimate, floor) + tail + abs_tol.  While err exceeds max(abs_tol,
    rel_tol |V_h|) and the estimate is its largest part, h is halved on
    the same span, or QuadError raised past _MAX_CHAIN_NODES.  A value
    or estimate that is not finite raises QuadError (detail stage "fine"
    or "coarse").  meta gains the grid's eps, h, nodes and U, and the
    number of halvings, refinements."""
    dim = max(map(len, chains))
    if dim > _MAX_DIM:
        raise QuadError("dimension above the supported maximum",
                        dim=dim, max_dim=_MAX_DIM)
    h, ys = _chain_grid(eps, cfg, decay, pole_dist, freq, chirp)
    nm = int(round(-ys[0] / h))
    refinements = 0
    while True:
        rows = chain_rows(chains, eps, h, ys)
        nodes = len(ys)
        (value, v2, v4), tail, scale = finish(h, ys, rows)
        _require_finite(value, tail, nodes=nodes, stage="fine")
        e2, e4 = abs(value - v2), abs(v2 - v4)
        est = e2 * (e2 / e4) ** 2 if e4 > e2 else e2
        floor = 1e-13 * scale
        err = max(est, floor) + tail + cfg.abs_tol
        _require_finite(v2 + v4, err, nodes=nodes, stage="coarse")
        if not (err > max(cfg.abs_tol, cfg.rel_tol * abs(value))
                and est > max(floor, tail + cfg.abs_tol)):
            break
        if 2 * nodes - 1 > _MAX_CHAIN_NODES:
            raise QuadError("chain refinement above node budget",
                            nodes=2 * nodes - 1, err=err)
        h, nm = 0.5 * h, 2 * nm
        ys = h * np.arange(-nm, 2 * nodes - 1 - nm)
        refinements += 1
    meta.update(eps=eps, h=h, nodes=nodes, U=(float(-ys[0]), float(ys[-1])),
                refinements=refinements)
    return EvalResult(value, err, meta)


def chain_line_integral(stages, eps, cfg=None, *, decay, pole_dist=None,
                        prefactor=1.0, freq=0.0):
    """Iterated integral prod_a int dT_a diff_a(T_a - T_{a-1}) cum_a(T_a)
    over the lines Re T_a = -a*eps: the one-chain `_chain_integral`.

    decay is the (minus, plus) pair of decay rates of the integrand
    along the lines (2*pi on the minus side under the measure kernel),
    freq a bound on its angular frequency along them."""
    cfg = cfg or DEFAULT_CONFIG
    r = len(stages)
    if r == 0:
        return EvalResult(complex(prefactor), 0.0, {"dim": 0})
    dm, dp = decay
    pref = complex(prefactor) * (1j ** r)

    def finish(h, ys, rows):
        (levels,) = rows
        mag = np.abs(levels[0])
        return ([pref * (m * h) * row[::m].sum()
                 for row, m in zip(levels, STEPS)],
                abs(prefactor) * (mag[0] / dm + mag[-1] / dp),
                abs(prefactor) * h * mag.sum())

    return _chain_integral([stages], eps, cfg, finish, decay=decay,
                           pole_dist=pole_dist, freq=freq, dim=r)
