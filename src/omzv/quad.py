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

Each kernel is evaluated once per integral, on the fine grid
(`chain_tables`).  The step-doubled estimate runs on the grid of step
2h, the fine grid with every other node dropped (trapezoid grids nest).
Its chain rides through the fine pass as a second row that is zero at
the odd nodes, so each stage is one convolution of both rows against
the fine tables (`chain_pass`).  A diff table shared by several stages
keeps its hull and last tilted FFTs for the next one (`_Operand`).

Every chain kernel is a product of powers of e^x/(1 - e^x) and
1/(1 - e^x); `geometric_factor` evaluates them without overflow and
raises QuadError at their poles.

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
from functools import cached_property

import numpy as np

__all__ = [
    "QuadConfig",
    "EvalResult",
    "QuadError",
    "ChainStage",
    "cexpm1",
    "geometric_factor",
    "measure_kernel",
    "chain_tables",
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


def cexpm1(z):
    """exp(z) - 1, accurate for small |z| (numpy expm1 is real-only)."""
    z = np.asarray(z, dtype=complex)
    return _expm1(z, np.exp(z))


def _expm1(z, ez):
    """exp(z) - 1 from ez = exp(z): the difference, or a series where
    |z| < 1e-4 and the difference would cancel."""
    out = ez - 1.0
    small = np.abs(z) < 1e-4
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
    within 1e-12 of 2 pi i m."""
    x = np.asarray(x, dtype=complex)
    pos = x.real > 0.0
    # a real sign array: np.where is several times slower on complex
    s = x * np.where(pos, -1.0, 1.0)
    e = np.exp(s)
    d = _expm1(s, e)
    bad = np.abs(d) < 1e-12
    if np.any(bad):
        raise QuadError("kernel pole: x at an integer multiple of 2 pi i",
                        x=complex(x.flat[int(np.argmax(bad))]))
    num = np.asarray((-1.0) ** (a + b) * _power(e, a))
    np.copyto(num, _power(e, b), where=pos)
    return num / _power(d, a + b)


def _power(z, k):
    """z^k by products, for an integer k >= 0: numpy's complex power of
    an array goes through exp and log."""
    out = np.ones_like(z) if k == 0 else z
    for _ in range(k - 1):
        out = out * z
    return out


def measure_kernel(delta):
    """1/(e^{2 pi i delta} - 1), the factor e^x/(1 - e^x) at
    x = -2 pi i delta (`geometric_factor`)."""
    return geometric_factor(-TWO_PI * 1j * np.asarray(delta), 1, 0)


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


def _tilt_plan(hull_a, hull_b, lo, hi):
    """Tilts and inclusive output blocks [(t, start, stop), ...] that
    cover lo..hi-1, given the upper hulls of both log-magnitudes.

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
    """Length-size FFTs of the rows x_i e^{t i - s}, s = max(log|x_i| +
    t i) per row (kept as a column), so that each tilted row has unit
    maximum.  The factor is applied as two halves: for x_i != 0 the
    exponent is at most -log|x_i| <= 745, whose half never overflows,
    and the clip keeps zeros at zero."""
    n = lx.shape[-1]
    e = np.arange(n, dtype=float)
    e *= t
    s = np.max(e + lx, axis=-1, keepdims=True)
    e = e - s
    np.minimum(e, 745.0, out=e)
    e *= 0.5
    np.exp(e, out=e)
    buf = np.zeros(x.shape[:-1] + (size,), dtype=complex)
    np.multiply(x, e, out=buf[..., :n])
    buf[..., :n] *= e
    return np.fft.fft(buf, out=buf), s


class _Operand:
    """A kernel table as the second operand of `_tilted_convolve`: its
    values, their log-magnitude, its upper hull (made when first used)
    and the tilted FFTs of its last convolution, keyed by (tilt, size).
    A table convolved at several stages takes its logarithm and hull
    once, and an FFT again only at a tilt its last convolution did not
    use; keeping no older FFTs bounds the memory."""

    def __init__(self, vals):
        self.vals = vals
        with np.errstate(divide="ignore", invalid="ignore"):
            self.log = np.log(np.abs(vals))
        self.top = self.log.max()
        self.ffts = {}

    @cached_property
    def hull(self):
        return _upper_hull(self.log)


def _tilted_convolve(a, b, lo, hi):
    """Entries lo..hi-1 of the full linear convolution of a, an array or
    a stack of rows, with b (an array or an `_Operand`, whose FFTs are
    reused and replaced).

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

    The rows share the tilt plan of the first one, which must not
    vanish where the others do not (an all-zero first row gives zeros):
    per tilt, one FFT of all rows against the shared FFT of b, and each
    row untilted by its own scale.  The first row's outputs are those
    of its one-row call, bit for bit.
    """
    if not isinstance(b, _Operand):
        b = _Operand(b)
    shape = a.shape[:-1] + (hi - lo,)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(np.abs(a))
        top = la.max() + b.top
    if np.isnan(top) or top == np.inf:
        return np.full(shape, np.nan, dtype=complex)
    la0 = la.reshape(-1, la.shape[-1])[0]
    if la0.max() == -np.inf or b.top == -np.inf:
        return np.zeros(shape, dtype=complex)
    n, nb = a.shape[-1], len(b.vals)
    size = _fast_len(max(hi, n, nb, n + nb - 1 - lo))
    out = np.empty(shape, dtype=complex)
    plan = _tilt_plan(_upper_hull(la0), b.hull, lo, hi)
    keys = [(t, size) for t, _, _ in plan]
    b.ffts = {k: b.ffts[k] for k in keys if k in b.ffts}
    for key, (t, start, stop) in zip(keys, plan):
        fa, sa = _tilted_fft(a, la, t, size)
        fb = b.ffts.get(key)
        if fb is None:
            fb = b.ffts[key] = _tilted_fft(b.vals, b.log, t, size)
        fa *= fb[0]
        np.fft.ifft(fa, out=fa)
        ks = np.arange(start, stop + 1)
        out[..., start - lo:stop + 1 - lo] = (fa[..., start:stop + 1]
                                             * np.exp(sa + fb[1] - t * ks))
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


def _diff_values(diff, z):
    return measure_kernel(z) if diff is None else diff(z)


def chain_tables(chains, eps, h, ys):
    """Kernel tables of one or more chains (lists of ChainStage) on the
    grid (h, ys), every kernel evaluated once.

    Each distinct diff kernel of a stage after the first (None, the
    measure kernel, included) is one `_Operand` on the 2n-1 differences
    h*k, |k| < n, shared by every stage and chain that uses it.  A first
    stage's diff kernel is the slice of that table on its line, which
    holds exactly the same values h*k, or else is evaluated on the line
    alone.  Stage a's cum kernel becomes a call that evaluates it on the
    line Re T = -a*eps when the pass reaches the stage, so that one
    full-length cum table is held at a time.  Returns one list of (diff,
    cum) pairs per chain, cum None for the kernel 1.
    """
    n = len(ys)
    first = n - 1 - int(round(-ys[0] / h))
    ops = dict.fromkeys(st.diff for stages in chains for st in stages[1:])
    if ops:
        dgrid = (-eps) + 1j * (h * np.arange(-(n - 1), n))
        ops = {d: _Operand(_diff_values(d, dgrid)) for d in ops}
    lines = {}
    out = []
    for stages in chains:
        d = stages[0].diff
        if d not in lines:
            lines[d] = (ops[d].vals[first:first + n] if d in ops
                        else _diff_values(d, (-eps) + 1j * ys))
        table = []
        for a, st in enumerate(stages, start=1):
            cum = st.cum and (lambda k=st.cum, z0=-a * eps: k(z0 + 1j * ys))
            table.append((lines[d] if a == 1 else ops[st.diff], cum))
        out.append(table)
    return out


def chain_pass(table, h):
    """Run the convolution chain on one chain's kernel tables (from
    `chain_tables`) with grid step h, and with it the chain of the
    nested grid of step 2h.

    The coarse chain is a second row on the fine grid, zero at the odd
    nodes.  n - 1 is even, so the even outputs of its convolution with
    the fine diff table take only the even differences, the table of
    step 2h: they are the coarse chain's stage.  Both rows share one
    logarithm, hull and tilt plan per stage (`_tilted_convolve`) and are
    multiplied by the same cum values, as chi * c() in that operand
    order: a complex product rounds differently with its operands
    swapped, and the fine row rounds as the one-row chain does.  Up to
    the first convolution the coarse chain is every other fine value,
    so its row starts there, and a chain of depth 1 has the fine row
    for both.

    Returns (chi, chi_c), the stage-r integrands accumulated on the line
    Re T_r = -r*eps: the final integral is i^r * h * chi.sum() (times
    any caller prefactor), its step-doubled value i^r * 2h *
    chi_c[::2].sum().
    """
    chi = table[0][0]
    n = len(chi)
    steps = np.array([[h], [2.0 * h]])
    for a, (d, c) in enumerate(table):
        if a == 1:
            chi = np.array([chi, chi])
            chi[1, 1::2] = 0.0
        if a:
            chi = _tilted_convolve(chi, d, n - 1, 2 * n - 1) * steps
            chi[1, 1::2] = 0.0
        if c is not None:
            chi = chi * c()
    return (chi, chi) if chi.ndim == 1 else (chi[0], chi[1])


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

    chi, chi_c = chain_pass(chain_tables([stages], eps, h, ys)[0], h)
    value = complex(prefactor) * (1j ** r) * h * chi.sum()
    tail = abs(prefactor) * (abs(chi[0]) / dm + abs(chi[-1]) / dp)
    _require_finite(value, tail, nodes=len(ys), stage="fine")
    meta = {"dim": r, "eps": eps, "h": h, "nodes": len(ys),
            "U": (float(-ys[0]), float(ys[-1]))}
    value_c = complex(prefactor) * (1j ** r) * (2 * h) * chi_c[::2].sum()
    err = abs(value - value_c) + tail + cfg.abs_tol
    _require_finite(value_c, err, nodes=len(ys), stage="coarse")
    return EvalResult(value, err, meta)
