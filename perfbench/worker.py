"""The timed process: runs a prepared plan through `stc.cli.main` in-process.

Usage: python3 perfbench/worker.py PLAN.json SECONDS TRACE

Run from the checkout root in a fresh interpreter.  Prints one JSON object
with each call's seconds; `run.py` turns them into metrics.  With TRACE 0 it
makes calls for SECONDS, one whole pass at least (or exactly the plan's
`passes`, if it names them), while the speed sampler (`speed.py`) probes
the machine; `times` are then the calls' CPU times scaled to the reference
speed, and `raw_times` their wall times as measured, both without the
probes' own time.  With
TRACE 1 it runs two untraced and two traced passes, and then, untimed,
makes one `keep_tables=True` solve per instance for the table and width
counts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter, thread_time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

GOLDEN_NETWORK = """\
A rho s
A rho t
A s p
A s r
A p a
A p b
A r c
A t r
A t d
L a a
L b b
L c c
L d d
"""
GOLDEN_TREE = """\
A x y
A y a
A y b
A y c
A x d
L a a
L b b
L c c
L d d
"""


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def invoke(main, argv):
    """(exit code or None if it raised, printed text, span), the span being
    (wall start, wall end, CPU start, CPU end) of this thread."""
    out = io.StringIO()
    start, cpu = perf_counter(), thread_time()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception as exc:  # a crash counts as a miss, the run goes on
        code, text = None, f"raised {type(exc).__name__}: {exc}"
    else:
        text = out.getvalue()
    return code, text, (start, perf_counter(), cpu, thread_time())


def judge(call, code, text):
    """Instances of the call that missed their reference, with a reason."""
    if code is None:
        return call["instances"], text
    if code != call["expect"]:
        return call["instances"], f"exit {code}, want {call['expect']}"
    if call["kind"] == "witness":
        problems = gate.check_witness(read(call["argv"][4]), text)
        if problems:
            return 1, "; ".join(problems[:3])
    if call["kind"] == "batch":
        wrong = gate.check_batch(text, call["verdicts"])
        if wrong:
            return len(wrong), f"batch verdicts differ on {wrong[:3]}"
    return 0, ""


def run_pass(main, calls, tally, key="spans", deadline=None):
    """Each plan entry called `repeat` times, in rounds over the plan so that
    the repeats of a cheap call spread over the pass; appends each call's
    span to `key`.  Stops before a call once past `deadline`."""
    rounds = max(call.get("repeat", 1) for call in calls)
    for call in (c for r in range(rounds) for c in calls if r < c.get("repeat", 1)):
        if deadline is not None and perf_counter() >= deadline:
            return
        gc.collect()
        code, text, span = invoke(main, call["argv"])
        call.setdefault(key, []).append(span)
        missed, why = judge(call, code, text)
        tally["attempted"] += call["instances"]
        tally["failed"] += missed
        if missed and len(tally["failures"]) < 5:
            tally["failures"].append(f"{call['name']}: {why}")


def scan_width(gamma_arcs, host_arcs):
    """Largest number of host arcs crossing the cut just above a vertex of
    the extension `gamma`, counted by walking each arc's extension path."""
    parent = {c: p for p, c in gamma_arcs}
    cut = {}
    for (u, v) in host_arcs:
        x = v
        while x != u:
            cut[x] = cut.get(x, 0) + 1
            x = parent[x]
    return max(cut.values(), default=0)


def table_counts(calls):
    """Reduced sizes and DP table sizes from one untimed solve per instance."""
    import stc

    pairs = sorted({(c["argv"][2], c["argv"][4]) for c in calls
                    if c["kind"] in ("verdict", "witness")})
    counts = {"reduction.arcs_out": 0, "reduction.width_out": 0,
              "solver.cells_total": 0, "solver.cells_peak": 0}
    for net_path, tree_path in pairs:
        inst = stc.preprocess(stc.parse_edgelist(read(net_path)),
                              stc.parse_edgelist(read(tree_path)))
        counts["reduction.arcs_out"] += len(inst.network.arcs)
        width = scan_width(inst.extension.gamma.arcs, inst.network.arcs)
        counts["reduction.width_out"] = max(counts["reduction.width_out"], width)
        tables = stc.solve(inst, keep_tables=True).tables
        for v, above in tables["above"].items():
            cells = len(above) + len(tables["below"].get(v, ()))
            counts["solver.cells_total"] += cells
            counts["solver.cells_peak"] = max(counts["solver.cells_peak"], cells)
    return counts


def main():
    plan_path, seconds, traced = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    plan = json.loads(read(plan_path))
    calls = plan["calls"]
    # One core for the whole run, so that the probes and the calls they
    # scale run on the same one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = {"attempted": 0, "failed": 0, "failures": [], "passes": 0,
             "calls": calls}

    import stc.cli

    warm = os.path.join(os.path.dirname(plan_path), "golden")
    with open(warm + ".network", "w", encoding="utf-8") as fh:
        fh.write(GOLDEN_NETWORK)
    with open(warm + ".tree", "w", encoding="utf-8") as fh:
        fh.write(GOLDEN_TREE)
    code, _, _ = invoke(stc.cli.main, ["solve", "-n", warm + ".network",
                                       "-t", warm + ".tree", "--witness"])
    if code != 0:
        raise SystemExit(f"warm-up solve on the golden instance exited {code}")
    gc.collect()
    gc.freeze()

    if not traced:
        sampler = speed.Sampler()
        sampler.start()
        # One whole pass at least, so that every instance has a time; then
        # more, up to the deadline, the last one cut off there.
        deadline = perf_counter() + seconds
        while True:
            first = tally["passes"] < plan.get("passes", 1)
            run_pass(stc.cli.main, calls, tally, deadline=None if first else deadline)
            tally["passes"] += 1
            if tally["passes"] >= plan.get("passes", 1) and (
                    "passes" in plan or perf_counter() >= deadline):
                break
        sampler.stop()
        for call in calls:
            spans = call.pop("spans")
            call["raw_times"] = [sampler.busy(*span)[0] for span in spans]
            call["times"] = [sampler.scaled(*span) for span in spans]
        tally["probe_s"] = statistics.median(sampler.times)
        tally["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # Untraced and traced passes in the order U T T U, so that neither
        # side gets the first pass or more of a drift in the machine's speed.
        tracer = layers.Tracer()
        for traced in (False, True, True, False):
            if traced:
                tracer.install()
                run_pass(stc.cli.main, calls, tally, key="traced_spans")
                tracer.uninstall()
            else:
                run_pass(stc.cli.main, calls, tally)
        tally["passes"] = 4
        for call in calls:
            for key in ("spans", "traced_spans"):
                call[key.replace("spans", "times")] = [
                    end - start for start, end, *_ in call.pop(key)]
        try:
            counts = table_counts(calls)
            counts_error = None
        except Exception as exc:  # a refactored API nulls these counts only
            counts, counts_error = {}, f"{type(exc).__name__}: {exc}"
        tally["trace"] = {"passes": 2,
                          "self_s": tracer.self_s, "calls": tracer.calls,
                          "missing": tracer.missing,
                          "installed": sorted(tracer.installed), "counts": counts,
                          "counts_error": counts_error}
    print(json.dumps(tally))


if __name__ == "__main__":
    main()
