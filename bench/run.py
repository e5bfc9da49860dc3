"""Benchmark of the omzv package: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
its `src/` directory.  Load model: a closed loop with one client in one
single-threaded process; each request is sent when the previous one has
returned.

A pass sets the package up (fresh import, store load, context
construction: `setup_s`) and then sends the workload's seeded request
stream once (`wall_s`).  Every run first makes one untimed warm-up
pass.  An untraced run then times a fixed number of passes, set by
--seconds and the workload's nominal pass cost.  `wall_s` and each
request's latency are interquartile means over the passes; `setup_s`
is the median of all set-ups in the run.  A traced run alternates
untraced and traced passes: per-layer numbers come from the traced
ones, the exact counts must repeat between them, and
`trace.overhead_s` is the median of the traced-minus-untraced
differences of the pairs.  Peak memory is read after the last pass;
the correctness gate runs after that, on every run.  The last line of
standard output is the JSON result; a per-request report goes to
bench_out/.
"""

import os

# Pin BLAS threads before numpy is imported anywhere: the strip
# quadrature's matmul would otherwise use a second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

import streams  # noqa: E402
import tracing  # noqa: E402
import work  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, "bench_out")

WORKLOADS = tuple(streams.STREAMS)
STORE_WORKLOADS = ("chains",)
SETUP_REPEATS = 8      # extra set-ups before the first pass, for setup_s
TAIL_BEYOND = 10       # requests that must lie beyond the tail percentile
# Nominal seconds per pass, its set-up included, on a 2-core x86
# machine.  They fix how many passes a --seconds budget buys, so the
# count does not change with the speed of the machine.
PASS_S = {"algebra": 3.0, "chains": 4.0, "connector": 7.0}
MIN_PASSES = 4         # so that the interquartile mean drops two
TRACE_PAIRS = 3        # untraced + traced pass pairs in a traced run

UNITS = {"wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}
END_TO_END = tuple(UNITS)
LAYER_TIMES = {
    "words.busy_s": ("words.",),
    "words.satoh_busy_s": ("words.satoh",),
    "words.product_busy_s": ("words.product",),
    "omega.busy_s": ("omega.",),
    "hypgamma.busy_s": ("hypgamma",),
    "ohno.busy_s": ("ohno",),
}
DEPTHS = range(1, 7)
EXACT_COUNTS = ("words.calls", "words.terms_out", "quad.nodes",
                "quad.conv_macs", "quad.fail", "hypgamma.points",
                "ohno.calls", "ohno.nodes", "cache.writes",
                "cache.bytes_written")
PER_LAYER = (
    tuple(LAYER_TIMES) + tuple("omega.busy_s.d%d" % d for d in DEPTHS)
    + EXACT_COUNTS + ("hypgamma.points_per_s", "cache.load_s",
                      "trace.overhead_s", "fail_frac", "tol_miss_frac",
                      "dishonest_frac"))


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".busy_s." in name:
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def tail(latencies, beyond=TAIL_BEYOND):
    """Latency at the highest percentile with at least `beyond` samples
    above it (nearest rank).  Returns (value, percentile, n)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= beyond:
        raise ValueError("need more than %d samples, got %d" % (beyond, n))
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n


def store_path_for(workload, seed):
    if workload not in STORE_WORKLOADS:
        return None
    return os.path.join(WORK_DIR, "store-%s-%d-%d.jsonl"
                        % (workload, seed, os.getpid()))


def remove(path):
    if path and os.path.exists(path):
        os.remove(path)


def run_pass(env, trace):
    """Send the prepared stream once.  Returns (wall seconds, records,
    tracer)."""
    tr = tracing.Tracer(trace)
    calls = work.Calls(env, tr)
    store = env.store
    size0 = os.path.getsize(env.store_path) if store is not None and \
        os.path.exists(env.store_path) else 0
    n0 = len(store) if store is not None else 0
    recs = []
    gc.collect()
    t0 = time.perf_counter()
    for rid, req in enumerate(env.prepared):
        tr.rid = rid
        r0 = time.perf_counter()
        with tr.span("request"):
            rec = work.run_request(calls, req)
        rec["ms"] = (time.perf_counter() - r0) * 1e3
        recs.append(rec)
    wall = time.perf_counter() - t0
    if store is not None:
        tr.count("cache.writes", len(store) - n0)
        tr.count("cache.bytes_written",
                 os.path.getsize(env.store_path) - size0)
    return wall, recs, tr


class Passes:
    """Set-up and pass bookkeeping for one run."""

    def __init__(self, workload, seed, stream):
        self.stream = stream
        self.store_path = store_path_for(workload, seed)
        self.setups = []
        self.loads = []

    def setup(self):
        """Set the package up afresh, with an empty store."""
        remove(self.store_path)
        env = work.setup(self.stream, self.store_path)
        self.setups.append(env.times["setup_s"])
        self.loads.append(env.times["load_s"])
        return env

    def measured(self, trace):
        env = self.setup()
        wall, recs, tr = run_pass(env, trace)
        return env, wall, recs, tr


def same_bits(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        x, y = complex(x), complex(y)
        if (x.real.hex(), x.imag.hex()) != (y.real.hex(), y.imag.hex()):
            return False
    return True


def fractions(verdicts):
    n = len(verdicts)
    checked = [v for v in verdicts if v.oracle]
    return {
        "fail_frac": sum(v.failed for v in verdicts) / n,
        "tol_miss_frac": sum(v.tol_miss for v in verdicts) / n,
        "dishonest_frac": (sum(v.dishonest for v in checked) / len(checked)
                           if checked else 0.0),
    }


def iqm(xs):
    """Interquartile mean: the mean of the middle half (all of them for
    fewer than four).  The machine's speed can switch between two levels
    every few seconds; a median over passes then jumps between the
    levels, while this moves with the share of time spent at each and
    still drops outliers."""
    xs = sorted(xs)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def layer_metrics(tracers, overheads, loads, verdicts):
    """Per-layer numbers from the traced passes: medians of times,
    counts from the first (they must all be equal)."""
    def busy(tr, prefixes):
        bn = tracing.busy_by_name(tr.spans)
        return sum(t for name, t in bn.items()
                   if any(name.startswith(p) for p in prefixes))

    out = {}
    for name, prefixes in LAYER_TIMES.items():
        out[name] = statistics.median(busy(t, prefixes) for t in tracers)
    for d in DEPTHS:
        out["omega.busy_s.d%d" % d] = statistics.median(
            busy(t, ("omega.d%d" % d,)) for t in tracers)
    counts = tracers[0].counts
    for name in EXACT_COUNTS:
        out[name] = counts[name]
    hb = out["hypgamma.busy_s"]
    out["hypgamma.points_per_s"] = out["hypgamma.points"] / hb if hb else 0.0
    out["cache.load_s"] = statistics.median(loads)
    out["trace.overhead_s"] = statistics.median(overheads)
    out.update(fractions(verdicts))
    return out


def env_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def request_report(stream, ms, verdicts, fingerprints):
    rows = []
    for rid, (req, t, v) in enumerate(zip(stream, ms, verdicts)):
        rows.append({
            "id": rid, "request": req, "ms": t, "nodes": v.nodes,
            "err": v.errs,
            "fingerprint": fingerprints.get(req["kind"], fingerprints["*"]),
            "failed": v.failed, "tol_miss": v.tol_miss,
            "dishonest": v.dishonest, "notes": v.notes,
        })
    return rows


def fingerprints(env):
    fps = {"*": env.cfg.fingerprint()}
    for kind in work.CONN_KINDS:
        fps[kind] = env.conn_cfg.fingerprint()
    return fps


def measure(workload, seed, seconds, trace):
    stream = streams.STREAMS[workload](seed)
    passes = Passes(workload, seed, stream)
    os.makedirs(WORK_DIR, exist_ok=True)
    correct = True
    walls, lat, overheads, tracers = [], [], [], []
    values = None

    def timed(traced):
        nonlocal correct, values
        env, wall, recs, tr = passes.measured(traced)
        got = [r["values"] for r in recs]
        if values is None:
            values = got
        elif not all(same_bits(a, b) for a, b in zip(got, values)):
            correct = False
            print("values changed between passes", file=sys.stderr)
        if not traced:
            walls.append(wall)
            lat.append([r["ms"] for r in recs])
        return env, wall, recs, tr

    try:
        for _ in range(SETUP_REPEATS):
            passes.setup()
        passes.measured(False)      # warm-up
        if trace:
            for _ in range(TRACE_PAIRS):
                env = recs = None   # one pass's package state at a time
                _, wall, _, _ = timed(False)
                env, t_wall, recs, tr = timed(True)
                overheads.append(t_wall - wall)
                tracers.append(tr)
            counts = [{k: tr.counts[k] for k in EXACT_COUNTS}
                      for tr in tracers]
            if any(c != counts[0] for c in counts):
                correct = False
                print("exact counts differ between traced passes: %s"
                      % counts, file=sys.stderr)
        else:
            for _ in range(pass_count(workload, seconds)):
                env = recs = None
                env, _, recs, _ = timed(False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fps = fingerprints(env)
        verdicts = work.gate(env, env.prepared, recs)
    finally:
        remove(passes.store_path)

    correct = correct and not any(v.exact_wrong for v in verdicts)
    per_req = [iqm(x) for x in zip(*lat)]
    t_val, t_pct, t_n = tail(per_req)
    if trace:
        metrics = layer_metrics(tracers, overheads, passes.loads, verdicts)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "wall_s": iqm(walls),
            "req_p50_ms": statistics.median(per_req),
            "req_tail_ms": t_val,
            "setup_s": statistics.median(passes.setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "env": env_info(), "passes": len(walls), "walls_s": walls,
        "setups_s": passes.setups, "trace_overheads_s": overheads,
        "tail": {"percentile": t_pct, "samples": t_n, "ms": t_val},
        "fractions": fractions(verdicts),
        "requests": request_report(stream, per_req, verdicts, fps),
    }
    path = os.path.join(WORK_DIR, "report-%s-%d-%d.json"
                        % (workload, seed, int(trace)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    failed = sum(v.failed for v in verdicts)
    print("env %s" % json.dumps(report["env"]))
    print("passes %d, tail p%.2f over %d requests, failed %d of %d, report %s"
          % (len(walls), t_pct, t_n, failed, len(stream),
             os.path.relpath(path, ROOT)))
    return {
        "correct": bool(correct),
        "attempted": len(stream),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "omzv", "__init__.py")):
        print("error: no omzv package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore", RuntimeWarning)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    mod = sys.modules.get("omzv")
    if mod is None or not os.path.abspath(mod.__file__).startswith(SRC):
        print("error: omzv was not imported from %s" % SRC, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
