"""Benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prepares the workload's input files from the seed, measures `setup_s`, then
runs the plan in a fresh worker process (`worker.py`).  The last line of
standard output is the result object; the line before it carries details
(sample counts, the tail percentile, failures, missing layer names).  Exits
2 without a result when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = os.path.join(".bench_build", "perfbench")
SETUP_REPEATS = 5       # fresh imports before the worker, and again after it
WORKER_TIMEOUT_S = 150
# One timed `import stc.cli`, scaled by the speed probes in and around it.
IMPORT_PROBE = (
    "import os, sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "import speed\n"
    "sampler = speed.Sampler()\n"
    "sampler.start()\n"
    "time.sleep(speed.PAD_S)\n"
    "sys.path.insert(0, os.path.join(os.getcwd(), 'src'))\n"
    "span = [time.perf_counter(), time.thread_time()]\n"
    "import stc.cli\n"
    "span[1:1] = [time.perf_counter()]\n"
    "span.append(time.thread_time())\n"
    "time.sleep(speed.PAD_S)\n"
    "sampler.stop()\n"
    "print(sampler.scaled(*span))\n"
)

# Layers reported as `<layer>_s` self times; the self time of the outermost
# span is `cli.overhead_s`, and update_extension is filed by step type.
TIME_LAYERS = tuple(dict.fromkeys(
    [layer for layer, _ in layers.LAYERS
     if layer not in ("cli.overhead", "reduction.step")]
    + list(layers.STEP_LAYERS.values())))
# Call counts reported per layer, and table counts from the untimed solves.
CALL_COUNTS = {
    "formats.parse_calls": "formats.parse",
    "digraph.builds": "digraph.build",
    "digraph.classify_calls": "digraph.classify",
    "digraph.reaches_calls": "digraph.reaches",
    "extension.scan_cut_calls": "extension.scan_cut",
    "reduction.check_calls": "reduction.check",
    "reduction.stretch_steps": "reduction.stretch",
    "reduction.insplit_steps": "reduction.insplit",
}
TABLE_COUNTS = ("reduction.arcs_out", "reduction.width_out",
                "solver.cells_total", "solver.cells_peak")
# Rank windows over the per-instance times: the middle fifth for the p50
# metrics, the slowest fifth for the tail.
P50, TAIL = (0.4, 0.6), (0.8, 1.0)


def window_mean(values, lo, hi):
    """Mean of the sorted values whose ranks fall between the fractions
    `lo` and `hi` of the list, a value counted by the share of its rank
    slot inside the window.  [0.4, 0.6] is a median that rests on the
    middle fifth rather than on one or two values."""
    xs = sorted(values)
    n = len(xs)
    total = weight = 0.0
    for i, x in enumerate(xs):
        share = max(0.0, min((i + 1) / n, hi) - max(i / n, lo))
        total += share * x
        weight += share
    return total / weight


def import_times(repeats, warm=False):
    """Times of `import stc.cli` in fresh interpreters, at the reference
    speed; with `warm`, one untimed import first writes the bytecode cache."""
    times = []
    for i in range(repeats + warm):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                             capture_output=True, text=True, timeout=60)
        if i >= warm:
            times.append(float(out.stdout.strip()))
    return times


def instance_times(raw, kind, key="times"):
    """Each instance's median time over the run's calls of one kind."""
    return [statistics.median(c[key]) for c in raw["calls"] if c["kind"] == kind]


def end_to_end(raw, setup_s, primary):
    verdicts = instance_times(raw, "verdict")
    witnesses = instance_times(raw, "witness")
    # one pass at each call's median time
    done = sum(c["instances"] for c in raw["calls"] if c["kind"] == primary)
    took = sum(instance_times(raw, primary))
    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (done / took, "1/s"),
        "verdict_p50_s": (window_mean(verdicts, *P50), "s"),
        "verdict_tail_s": (window_mean(verdicts, *TAIL), "s"),
        "witness_p50_s": (window_mean(witnesses, *P50), "s"),
        "peak_rss_mib": (raw["rss_mib"], "MiB"),
        "correct_frac": (1.0 - raw["failed"] / raw["attempted"], "fraction"),
    }
    raw_verdicts = instance_times(raw, "verdict", "raw_times")
    detail = {"verdict_instances": len(verdicts),
              "witness_instances": len(witnesses),
              "calls": sum(len(c["times"]) for c in raw["calls"]),
              "primary": primary,
              "probe_s": raw["probe_s"],
              "raw_verdict_p50_s": window_mean(raw_verdicts, *P50),
              "raw_verdict_tail_s": window_mean(raw_verdicts, *TAIL),
              "raw_witness_p50_s": window_mean(
                  instance_times(raw, "witness", "raw_times"), *P50)}
    return metrics, detail


def per_layer(raw):
    t = raw["trace"]
    installed = set(t["installed"])
    if "reduction.step" in installed:
        installed |= set(layers.STEP_LAYERS.values())
    gone = set(TIME_LAYERS) - installed
    n = t["passes"]
    metrics = {}
    for layer in TIME_LAYERS:
        value = None if layer in gone else t["self_s"].get(layer, 0.0) / n
        metrics[f"{layer}_s"] = (value, "s")
    metrics["cli.overhead_s"] = (t["self_s"].get("cli.overhead", 0.0) / n, "s")
    for name, layer in CALL_COUNTS.items():
        value = None if layer in gone else t["calls"].get(layer, 0) / n
        metrics[name] = (value, "count")
    for name in TABLE_COUNTS:
        metrics[name] = (t["counts"].get(name), "count")
    traced = sum(x for c in raw["calls"] for x in c["traced_times"])
    untraced = sum(x for c in raw["calls"] for x in c["times"])
    metrics["trace.pass_s"] = (traced / n, "s")
    metrics["trace.accounted_frac"] = (sum(t["self_s"].values()) / traced, "fraction")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "fraction")
    metrics["failed_frac"] = (raw["failed"] / raw["attempted"], "fraction")
    detail = {"missing_names": t["missing"],
              "null_layers": sorted(gone),
              "table_counts_error": t["counts_error"],
              "traced_passes": n}
    return metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    ap.add_argument("--wrong", action="append", default=[],
                    help="flip this instance's reference verdict (smoke test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "stc", "cli.py")):
        print("error: run from a checkout root holding src/stc", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))

    rel = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{args.size}")
    shutil.rmtree(rel, ignore_errors=True)
    plan = workloads.prepare(os.getcwd(), rel, args.workload, args.seed,
                             size=args.size, wrong=set(args.wrong))
    setup = [] if args.trace else import_times(SETUP_REPEATS, warm=True)

    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         os.path.join(rel, "plan.json"), str(args.seconds), str(args.trace)],
        capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        # half the imports after the worker, so that a slow spell of the
        # machine during one of the two moments moves the median less
        setup += import_times(SETUP_REPEATS)

    if args.trace:
        metrics, detail = per_layer(raw)
    else:
        metrics, detail = end_to_end(raw, statistics.median(setup), plan["primary"])
    detail.update(workload=args.workload, seed=args.seed, passes=raw["passes"],
                  failures=raw["failures"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
