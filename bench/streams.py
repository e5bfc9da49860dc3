"""Seeded request streams, one per workload.

Pure data and the standard library only: a stream is a list of dicts
that the runner parses into `omzv` objects during set-up.  The same
seed gives the same stream; inputs are never filtered by whether the
program handles them, so values that fail today stay in the mix.

Costs vary by orders of magnitude with chain depth and omega, so every
stream is stratified: each seed draws the same number of requests per
(kind, omega, depth or weight) cell, and only the contents of a cell
vary with the seed.  That keeps the work per stream, and with it the
wall time, close across seeds.
"""

import cmath
import math
import random

OMEGAS = (0.6, 1.0, 1.4)
MAX_WEIGHT = 5

# chains: ZETA_COUNTS[omega][depth] seed-drawn zeta indices per
# (omega, depth) cell, distinct within a cell.  Depths 1 and 2 cost
# milliseconds and draw their weight (depth + 1 .. depth + extra); from
# depth 3 on the weight is fixed per depth, so every draw has the same
# node count and nearly the same cost, and only the entries vary with
# the seed.  At omega 1.4 the
# cost also depends on the entries, by up to 5x at a fixed node count
# (subnormal intermediates), which would swamp the seed-to-seed spread:
# there only depth 1 is drawn, and fixed requests cover depths 2 to 4, a
# product and a duality.  Depths 5 and 6 run at 0.6 and 1.0 only: one
# depth-6 chain at 1.4 would take half a pass.
#
# The counts place the two latency percentiles inside clusters of
# requests of equal cost: the median among the depth-2 chains at 1.0
# (10 of them, each about as costly as the next), the tail among the
# depth-3 chains at 1.0 and the fixed 1.4 requests of the same cost.
ZETA_COUNTS = {
    0.6: {1: 2, 2: 6, 3: 2, 4: 1, 5: 1, 6: 1},
    1.0: {1: 2, 2: 10, 3: 2, 4: 1, 5: 1, 6: 1},
    1.4: {1: 2},
}
ZETA_EXTRA = {1: 6, 2: 5}
ZETA_WEIGHT = {3: 6, 4: 7, 5: 7, 6: 8}
FIXED_CHAINS = (
    {"kind": "zeta", "omega": 1.4, "index": [2, 2]},
    {"kind": "zeta", "omega": 1.4, "index": [1, 1, 2]},
    {"kind": "zeta", "omega": 1.4, "index": [2, 1, 2]},
    {"kind": "zeta", "omega": 1.4, "index": [1, 1, 1, 3]},
    {"kind": "product", "omega": 1.4, "pair": ["G1", "E G1"]},
    {"kind": "duality", "omega": 1.4, "mono": "E G1 G1"},
)
# products at 0.6 and 1.0: pairs with two G letters (chains of depth
# <= 2) and weight <= PRODUCT_MAX_WEIGHT.  Dualities at 0.6 and 1.0:
# monomials with DUAL_G G letters and weight <= DUAL_MONO_MAX_WEIGHT.
# Zeta dualities: depth and weight fixed, so both sides are chains of
# depth 2 at every omega.
PRODUCT_G_COUNT = 2
PRODUCT_MAX_WEIGHT = 4
DUAL_G = 2
DUAL_MONO_MAX_WEIGHT = 4
ZETA_DUAL_SHAPE = (2, 4)     # (depth, weight); the dual has depth 4 - 2
OHNO_ORDER = 2

# algebra: share of the weight <= 5 Satoh battery drawn per stream.
# Within each (total weight, total length) cell the pairs are ordered by
# a cost proxy and drawn systematically from a seed-drawn offset, so
# every stream spans the cost range of every cell.
ALGEBRA_SHARE = 0.035

# connector: fixed relation shapes at seed-drawn deformation points
# (the grid and so the cost depend on the shape, not the point)
LINE_POINTS = 400
LINES_PER_HEIGHT = 2         # per omega and height class
POINTS_PER_OMEGA = 4
LAM_RADIUS = (0.006, 0.010)


def monomials(max_weight=MAX_WEIGHT):
    """Admissible A-monomials of weight 1..max_weight as strings, in
    the package's canonical order (weight, length, letters).  E has
    weight 1, G(k) weight k; admissible means ending in a G letter."""
    out = []

    def grow(letters, weight):
        if letters and letters[-1] > 0:
            out.append(tuple(letters))
        for k in range(0, max_weight - weight + 1):
            w = k if k else 1
            if weight + w <= max_weight:
                grow(letters + [k], weight + w)

    grow([], 0)
    out.sort(key=lambda ls: (sum(k if k else 1 for k in ls), len(ls), ls))
    return [" ".join("G%d" % k if k else "E" for k in ls) for ls in out]


def mono_weight(text):
    return sum(1 if t == "E" else int(t[1:]) for t in text.split())


def satoh_battery(max_weight=MAX_WEIGHT):
    """All unordered pairs (diagonal included) of the monomials."""
    mons = monomials(max_weight)
    return [(a, b) for i, a in enumerate(mons) for b in mons[i:]]


def _systematic(rng, items, key, order, share):
    """`share` of the items from every `key` cell, taken at even steps
    through the cell sorted by `order`, from a random offset."""
    cells = {}
    for it in items:
        cells.setdefault(key(it), []).append(it)
    out = []
    for k in sorted(cells):
        cell = sorted(cells[k], key=order)
        n = max(1, round(share * len(cell)))
        step = len(cell) / n
        off = rng.random() * step
        out.extend(cell[int(off + i * step)] for i in range(n))
    return out


def _ab_length(text):
    """Length of the monomial as an a/b word: G(k) = b a^k, E = b."""
    return sum(1 if t == "E" else int(t[1:]) + 1 for t in text.split())


def _g_count(text):
    return sum(t != "E" for t in text.split())


def _index(rng, depth, weight):
    """Uniform admissible index (last entry >= 2) of given depth and
    weight, by drawing a composition of weight - 1 into depth parts
    and adding 1 to the last part."""
    cuts = sorted(rng.sample(range(1, weight - 1), depth - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [weight - 1])]
    parts[-1] += 1
    return parts


def _even(rng, n, lo, hi):
    """n values spread evenly over [lo, hi) from a random offset, in
    random order."""
    off = rng.random()
    out = [lo + (hi - lo) * (i + off) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _small_complex(rng, lo, hi):
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2 * math.pi))


def _pair(z):
    return [z.real, z.imag]


def algebra(seed):
    rng = random.Random(seed)
    pairs = _systematic(
        rng, satoh_battery(),
        key=lambda ab: (mono_weight(ab[0]) + mono_weight(ab[1]),
                        len(ab[0].split()) + len(ab[1].split())),
        order=lambda ab: (_ab_length(ab[0]) * _ab_length(ab[1]), ab),
        share=ALGEBRA_SHARE)
    rng.shuffle(pairs)
    return [{"kind": "algebra", "pair": list(ab)} for ab in pairs]


def chains(seed):
    rng = random.Random(seed)
    duals = [m for m in monomials() if _g_count(m) == DUAL_G
             and mono_weight(m) <= DUAL_MONO_MAX_WEIGHT]
    out = [dict(r) for r in FIXED_CHAINS]
    for w in OMEGAS:
        for depth, count in ZETA_COUNTS[w].items():
            drawn = set()
            while len(drawn) < count:
                weight = ZETA_WEIGHT.get(depth) or \
                    depth + rng.randint(1, ZETA_EXTRA[depth])
                drawn.add(tuple(_index(rng, depth, weight)))
            out.extend({"kind": "zeta", "omega": w, "index": list(k)}
                       for k in sorted(drawn))
        if w != 1.4:
            out.append({"kind": "duality", "omega": w,
                        "mono": rng.choice(duals)})
        out.append({"kind": "zeta_dual", "omega": w,
                    "index": _index(rng, *ZETA_DUAL_SHAPE)})
        out.append({"kind": "ohno", "omega": w, "order": OHNO_ORDER,
                    "index": _index(rng, 1, rng.randint(2, 3))})
    out.extend(_products(rng, [w for w in OMEGAS if w != 1.4]))
    rng.shuffle(out)
    return out


def _products(rng, omegas):
    """One product request per omega, systematic picks through the
    product cell ordered by the size of the shuffle product in a/b
    words, so the expansion work per stream hardly varies."""
    cell = [(a, b) for a, b in satoh_battery()
            if _g_count(a) + _g_count(b) == PRODUCT_G_COUNT
            and mono_weight(a) + mono_weight(b) <= PRODUCT_MAX_WEIGHT]
    cell.sort(key=lambda ab: (math.comb(_ab_length(ab[0])
                                        + _ab_length(ab[1]),
                                        _ab_length(ab[0])), ab))
    ws = list(omegas)
    rng.shuffle(ws)
    step = len(cell) / len(ws)
    off = rng.random() * step
    return [{"kind": "product", "omega": w,
             "pair": list(cell[int(off + i * step)])}
            for i, w in enumerate(ws)]


def _core_band(w):
    return 0.5 * min(1.0, 1.0 / w)


def _omega_bar(w):
    return 0.5 * (1.0 + 1.0 / w)


def connector(seed):
    """Lines and points of log G at every omega, the initial relation
    at omega 0.6 (a connected integral of total depth 2) and one
    Saalschutz point at 1.0.  The two relations are the costliest
    requests and the points the cheapest; there are more lines than
    points, so both percentiles fall among the lines: the median on the
    cheaper ones, the tail in the middle.  (A median over the point
    calls, each well under a millisecond of mostly interpreter overhead,
    spread by a third of its value between runs.)"""
    rng = random.Random(seed)
    out = []
    for w in OMEGAS:
        s0 = _core_band(w)
        # lines in the core band and shifted up and down
        heights = [h for _ in range(LINES_PER_HEIGHT)
                   for h in (rng.uniform(-0.8, 0.8) * s0,
                             s0 + rng.uniform(0.2, 1.2),
                             -s0 - rng.uniform(0.2, 1.2))]
        # the largest |Re z| on a line sets its strip grid and so its
        # cost: every line spans about [-x, x] with x in a narrow range
        for im in heights:
            x = rng.uniform(2.5, 3.0)
            out.append({"kind": "line", "omega": w, "x0": -x,
                        "h": 2 * x / LINE_POINTS, "m": LINE_POINTS,
                        "im": im})
        # |Re z| sets the strip grid and so the cost: spread it evenly
        for x, y in zip(_even(rng, POINTS_PER_OMEGA, 0.0, 2.0),
                        _even(rng, POINTS_PER_OMEGA, -0.8, 0.8)):
            z = complex(rng.choice((-1, 1)) * x, y * s0)
            out.append({"kind": "point", "omega": w, "z": _pair(z)})

    def deformation():
        return {"lam": _pair(_small_complex(rng, *LAM_RADIUS)),
                "mu": _pair(_small_complex(rng, *LAM_RADIUS))}

    out.append(dict(kind="initial", omega=0.6, k=[1], **deformation()))
    ob = _omega_bar(1.0)
    out.append({"kind": "saal", "omega": 1.0,
                "u": [_pair(complex(rng.uniform(-0.2, 0.25),
                                    rng.uniform(0.62, 0.85) * ob))
                      for _ in range(4)]})
    rng.shuffle(out)
    return out


STREAMS = {"algebra": algebra, "chains": chains, "connector": connector}
