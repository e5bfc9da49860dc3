"""The package API the benchmark calls: one request of every kind from
each benchmark stream runs through the benchmark's own set-up, request
and gate code without an error or a failed check.

The benchmark reaches names that nothing else in the package calls, such
as `omega.clear_value_cache`, `ohno.clear_connector_cache` and the
`coeffs`, `errs` and `cells()` of an `ohno_table`; this test keeps them.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def test_one_request_of_each_kind_passes_the_gate(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import streams
    import tracing
    import work

    # work.setup imports omzv afresh; the other tests keep their modules
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "omzv" or name.startswith("omzv.")}
    try:
        for workload, make in sorted(streams.STREAMS.items()):
            first = {}
            for req in make(1):
                first.setdefault(req["kind"], req)
            env = work.setup(list(first.values()), None)
            calls = work.Calls(env, tracing.Tracer(False))
            recs = [work.run_request(calls, req) for req in env.prepared]
            assert [r.get("error") for r in recs] == [None] * len(recs), \
                workload
            verdicts = work.gate(env, env.prepared, recs)
            assert [v.notes for v in verdicts if v.failed] == [], workload
    finally:
        for name in [n for n in sys.modules
                     if n == "omzv" or n.startswith("omzv.")]:
            del sys.modules[name]
        sys.modules.update(saved)
