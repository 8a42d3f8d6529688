"""Smoke test of the benchmark harness at tiny sizes.

Run from the checkout root:  python3 -m pytest -q perfbench/test_harness.py
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
SCRATCH = os.path.join(".bench_build", "perfbench-test")


def run(workload, trace, *extra, seed=1):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tree_files(rel):
    """Paths of all files under a plan directory, relative to it."""
    top = os.path.join(ROOT, rel)
    return sorted(os.path.relpath(os.path.join(d, f), top)
                  for d, _, names in os.walk(top) for f in names)


def prepare(tag, workload, seed):
    rel = os.path.join(SCRATCH, tag)
    shutil.rmtree(os.path.join(ROOT, rel), ignore_errors=True)
    return rel, workloads.prepare(ROOT, rel, workload, seed, size="tiny")


@pytest.mark.parametrize("builder", [workloads.spine, workloads.caterpillar])
def test_constructed_answers_match_the_oracle(builder):
    from stc import Digraph, soft_display

    for size in (5, 7):
        net, tree, labels, root_leaf, deep_leaf = builder(size)
        network = Digraph(net, labels)
        assert soft_display(network, Digraph(tree, labels))
        twin = workloads.no_twin(labels, root_leaf, deep_leaf)
        assert not soft_display(network, Digraph(tree, twin))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(workload):
    a, _ = prepare("a", workload, 3)
    b, _ = prepare("b", workload, 3)
    files = tree_files(a)
    assert files == tree_files(b)
    match, mismatch, errors = filecmp.cmpfiles(
        os.path.join(ROOT, a), os.path.join(ROOT, b),
        [f for f in files if f != "plan.json"], shallow=False)
    assert not mismatch and not errors


@pytest.mark.parametrize("workload", ["polytomy-wide", "batch"])
def test_other_seed_gives_other_instances(workload):
    _, one = prepare("one", workload, 1)
    _, two = prepare("two", workload, 2)
    assert {c["name"] for c in one["calls"]} != {c["name"] for c in two["calls"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_and_correct(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in BENCH[key]}
        for metric in BENCH[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_window_mean_counts_a_straddling_rank_by_its_share():
    import run as entry

    assert entry.window_mean([5, 1, 3, 2, 4], 0.4, 0.6) == pytest.approx(3)
    assert entry.window_mean([1, 2, 3, 4], 0.4, 0.6) == pytest.approx(2.5)
    assert entry.window_mean(range(1, 11), 0.8, 1.0) == pytest.approx(9.5)


def test_wrong_reference_shows_in_failed_frac():
    _, plan = prepare("wrong", "narrow-deep", 1)
    name = plan["calls"][0]["name"]
    plain = run("narrow-deep", 0, "--wrong", name)
    assert not plain["correct"] and plain["failed"] >= 1
    assert plain["metrics"]["correct_frac"]["value"] < 1
    traced = run("narrow-deep", 1, "--wrong", name)
    assert traced["metrics"]["failed_frac"]["value"] > 0


def test_wrong_batch_reference_counts_one_instance_per_miss():
    _, plan = prepare("wrongb", "batch", 1)
    name = next(iter(plan["calls"][-1]["verdicts"]))
    result = run("batch", 0, "--wrong", name)
    # the instance's own decision call and its line in the batch output
    assert result["failed"] >= 2 and not result["correct"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_between_traced_runs(workload):
    first, second = run(workload, 1), run(workload, 1)
    for metric in BENCH["per_layer"]:
        if metric["unit"] == "count":
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name


def test_self_times_account_for_the_traced_pass():
    result = run("narrow-deep", 1)
    assert abs(result["metrics"]["trace.accounted_frac"]["value"] - 1) < 0.02


def test_missing_name_is_reported_not_raised():
    tracer = layers.Tracer()
    tracer.install([("extension.width", "stc.extension.TreeExtension.gone"),
                    ("extension.width", "stc.no_such_module.width")])
    tracer.uninstall()
    assert tracer.missing == ["stc.extension.TreeExtension.gone",
                              "stc.no_such_module.width"]
    assert not tracer.installed


def test_witness_gate_rejects_a_tampered_witness():
    from stc.cli import main

    rel, plan = prepare("gate", "witness", 1)
    call = next(c for c in plan["calls"] if c["kind"] == "witness")
    argv = [os.path.join(ROOT, a) if a.startswith(rel) else a for a in call["argv"]]
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    tree = open(argv[4], encoding="utf-8").read()
    text = out.getvalue()
    assert gate.check_witness(tree, text) == []
    lines = text.splitlines()
    embed = [i for i, line in enumerate(lines) if line.startswith("EMBED")]
    dropped = "\n".join(lines[:embed[0]] + lines[embed[0] + 1:])
    assert gate.check_witness(tree, dropped)
    head, _, path = lines[embed[-1]].partition(" : ")
    reversed_path = lines[:embed[-1]] + [f"{head} : {' '.join(path.split()[::-1])}"]
    assert gate.check_witness(tree, "\n".join(reversed_path + lines[embed[-1] + 1:]))
