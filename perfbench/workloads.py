"""Seeded inputs of the four benchmark workloads, written as edge-list files.

Each workload becomes a plan: a list of CLI calls (argument lists relative to
the checkout root), each with the exit code it must produce.  The spine and
caterpillar families are built here so that their answers are known by
construction; the polytomy and batch families come from the program's
seeded generator (`stc.generator`), and batch verdicts from the brute-force
oracle `stc.oracle.soft_display`.

Run as a script to rebuild a stratified pool (see `build_pool`):
    python3 perfbench/workloads.py pool polytomy-wide|batch
"""

from __future__ import annotations

import json
import os
import random

YES, NO = 0, 1

WORKLOADS = ("narrow-deep", "polytomy-wide", "witness", "batch")

# The acceptance suite's generator configs: (leaves, reticulations,
# polytomy rate, target answer).  Copied so that edits to the tests cannot
# change the benchmark's inputs.
SUITE_CONFIGS = (
    (3, 1, 0.0, "unlabeled"),
    (4, 1, 0.0, "yes-biased"),
    (4, 2, 0.0, "unlabeled"),
    (5, 1, 0.0, "unlabeled"),
    (3, 2, 0.3, "yes-biased"),
    (4, 1, 0.3, "unlabeled"),
    (5, 1, 0.25, "yes-biased"),
    (4, 0, 0.4, "unlabeled"),
)
BATCH_MAX_ARCS = 12
BATCH_PARTS = 4         # `stc solve --batch` calls per pass of the batch workload
POLYTOMY_PARAMS = (20, 3, 0.4, "yes-biased")   # leaves, reticulations, rate

# Instances whose cost varies by orders of magnitude are drawn from a
# committed pool: candidates ranked by seed-state solve time, the extreme
# tenth at each end dropped, the rest cut into equal strata.  A seed picks
# one instance per stratum, so instances differ between seeds while the
# cost of the set barely does.  Drawing the same families freely from the
# seed made the per-seed median vary by 36-60%; strata by DP cells still
# left 11-12% (time within a stratum of cells varied up to 2x), strata by
# time about 3%.
POOLS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools.json")
POOL_SPECS = {
    # generator seeds scanned, strata
    "polytomy-wide": (2600, 20),
    "batch": (240, 16),
}

# `full` is what the benchmark measures; `tiny` is for the smoke test.
# Ladders double in size so the super-linear terms show; bigger sizes are
# skip rows (skips.json).  A run calls the plan pass after pass for its
# seconds; these sizes keep a pass to half of a 25-s run or less, so that
# each instance is called two or more times.
SIZES = {
    "full": {
        "narrow_spine": (50, 100, 200),
        "narrow_caterpillar": (125, 250),
        "polytomy_strata": tuple(range(20)),
        "polytomy_witnesses": (7, 8, 9, 10, 11, 12),
        "witness_spine": (34, 67, 134),
        "witness_caterpillar": (60, 150),
        "witness_cheap": 67,
        # raw maximum out-degree 2 and 3 drawn from the seed; 4 from the pool
        "batch_quota": {2: 256, 3: 84},
        "batch_strata": tuple(range(16)),
    },
    "tiny": {
        "narrow_spine": (5, 10),
        "narrow_caterpillar": (6, 12),
        "polytomy_strata": (0, 1),
        "polytomy_witnesses": (0,),
        "witness_spine": (5,),
        "witness_caterpillar": (6,),
        "witness_cheap": 5,
        "batch_quota": {2: 8, 3: 3},
        "batch_strata": (0,),
    },
}


# How many times a pass a cheap call is made (`repeat` in a plan entry).
CHEAP_REPEAT = 3


def edgelist(arcs, labels, name=None) -> str:
    out = [f"network {name}"] if name else []
    out += [f"A {u} {v}" for (u, v) in arcs]
    out += [f"L {v} {t}" for v, t in sorted(labels.items())]
    return "\n".join(out) + "\n"


def out_degrees(net):
    degree = {}
    for (u, _) in net.arcs:
        degree[u] = degree.get(u, 0) + 1
    return sorted(degree.values(), reverse=True)


# -- narrow families, answers by construction ---------------------------------


def spine(blocks):
    """The criterion-8 spine: cherry blocks with a reticulated diamond every
    fifth block, plus the tree it displays (one parent kept per diamond).

    Returns (network arcs, tree arcs, labels, root-leaf, deepest-leaf).
    """
    net, tree, labels = [], [], {}

    def taxon(v):
        labels[v] = f"t{len(labels) + 1}"

    for i in range(blocks):
        s, nxt = f"s{i}", f"s{i + 1}"
        if i % 5 == 4:
            u, w, m = f"u{i}", f"w{i}", f"m{i}"
            net += [(s, u), (s, w), (u, m), (w, m), (u, nxt),
                    (w, f"p{i}"), (m, f"q{i}")]
            # drop (w, m), then suppress the pass-through vertices w and m
            tree += [(s, u), (s, f"p{i}"), (u, f"q{i}"), (u, nxt)]
            taxon(f"p{i}")
            taxon(f"q{i}")
        else:
            net += [(s, f"p{i}"), (s, nxt)]
            tree += [(s, f"p{i}"), (s, nxt)]
            taxon(f"p{i}")
    tail = [(f"s{blocks}", f"p{blocks}"), (f"s{blocks}", f"q{blocks}")]
    net += tail
    tree += tail
    taxon(f"p{blocks}")
    taxon(f"q{blocks}")
    return net, tree, labels, "p0", f"q{blocks}"


def caterpillar(leaves):
    """A binary caterpillar tree used as a network; it displays only itself.

    Returns (network arcs, tree arcs, labels, root-leaf, deepest-leaf).
    """
    arcs = []
    for i in range(leaves - 2):
        arcs += [(f"c{i}", f"x{i}"), (f"c{i}", f"c{i + 1}")]
    last = f"c{leaves - 2}"
    arcs += [(last, f"x{leaves - 2}"), (last, f"x{leaves - 1}")]
    labels = {f"x{i}": f"t{i + 1}" for i in range(leaves)}
    return arcs, list(arcs), labels, "x0", f"x{leaves - 1}"


def no_twin(labels, root_leaf, deep_leaf):
    """Swap the taxon on the root's leaf child with one in the deepest
    cherry.  The network's root split separates the root-leaf taxon from
    the rest, the twin's separates another taxon, so the answer is NO."""
    out = dict(labels)
    out[root_leaf], out[deep_leaf] = labels[deep_leaf], labels[root_leaf]
    return out


def drop_taxon(arcs, labels, taxon):
    """A tree restricted to all taxa but one: the leaf goes, and its parent
    is suppressed when one child remains."""
    leaf = next(v for v, t in labels.items() if t == taxon)
    (parent,) = [u for u, v in arcs if v == leaf]
    arcs = [a for a in arcs if a[1] != leaf]
    kids = [v for u, v in arcs if u == parent]
    if len(kids) == 1:
        ups = [u for u, v in arcs if v == parent]
        arcs = [a for a in arcs if parent not in a] + [(u, kids[0]) for u in ups]
    return sorted(arcs), {v: t for v, t in labels.items() if v != leaf}


# -- generated families -----------------------------------------------------------


class Generated:
    """One generated instance: texts to write plus graphs for the oracle."""

    def __init__(self, name, inst, tree_arcs=None, tree_labels=None):
        self.name = name
        self.network = inst.network
        self.network_doc = inst.network_doc
        self.extension_doc = inst.extension_doc
        self.tree_arcs = list(inst.tree.arcs) if tree_arcs is None else tree_arcs
        self.tree_labels = dict(inst.tree.labels) if tree_labels is None else tree_labels
        self.tree_doc = edgelist(self.tree_arcs, self.tree_labels)

    def tree(self):
        from stc.digraph import Digraph

        return Digraph(self.tree_arcs, self.tree_labels)


def polytomy_instance(s):
    from stc.generator import GeneratorParams, generate

    leaves, retics, rate, target = POLYTOMY_PARAMS
    inst = generate(GeneratorParams(leaves, retics, rate, s, target))
    return Generated(f"poly{s}", inst)


def polytomy_candidate(g):
    """Exactly one raw out-degree-4 vertex, none larger, at most three of
    out-degree 3.  Each further polytomy adds a stretch gadget and
    multiplies the cost; degree 5 and 6 are skip rows."""
    degrees = out_degrees(g.network)
    return degrees[0] == 4 and degrees[1] < 4 and degrees.count(3) <= 3


def batch_instance(s, c):
    """Suite config `c` at generator seed `s`; None above 12 arcs.  As in
    the acceptance suite, about every third tree loses its last taxon (here
    by a rule on (s, c), so an instance does not depend on its position)."""
    from stc.generator import GeneratorParams, generate

    leaves, retics, rate, target = SUITE_CONFIGS[c]
    inst = generate(GeneratorParams(leaves, retics, rate, s, target))
    if len(inst.network.arcs) > BATCH_MAX_ARCS:
        return None
    name = f"s{s}-c{c}-l{leaves}-r{retics}-p{int(rate * 100)}-{target}"
    arcs, labels = list(inst.tree.arcs), dict(inst.tree.labels)
    if (s + c) % 3 == 2 and len(labels) > 2:
        arcs, labels = drop_taxon(arcs, labels, max(labels.values()))
    return Generated(name, inst, arcs, labels)


def batch_candidate(g):
    """Raw maximum out-degree exactly 4: the heavy tail of the suite mix
    (degree 5, about 3 s each against a 3 ms median, is a skip row)."""
    return g is not None and out_degrees(g.network)[0] == 4


def build_pool(name, rounds=5):
    """Rank the candidates among the first generator seeds by seed-state
    `stc solve --decision-only` time and cut the central part into equal
    strata of (key..., ms).  The times come from the benchmark's own worker,
    so they are scaled to the reference speed; each candidate's time is its
    median over `rounds` passes over all of them, so that a slow spell of
    the machine falls on many candidates alike."""
    import subprocess
    import statistics
    import sys

    from stc.oracle import soft_display

    stop, strata = POOL_SPECS[name]
    if name == "polytomy-wide":
        found = [((s,), polytomy_instance(s)) for s in range(stop)]
        found = [(k, g) for k, g in found if polytomy_candidate(g)]
    else:
        found = [((s, c), batch_instance(s, c))
                 for s in range(stop) for c in range(len(SUITE_CONFIGS))]
        found = [(k, g) for k, g in found if batch_candidate(g)]
    rel = os.path.join(".bench_build", "perfbench", f"pool-{name}")
    w = PlanWriter(os.getcwd(), rel)
    for _, g in found:
        yes = name == "polytomy-wide" or soft_display(g.network, g.tree())
        w.decision(g.name, w.pair(g.name, g.network_doc, g.tree_doc), YES if yes else NO)
    plan = w.write("plan.json", json.dumps({"passes": rounds, "calls": w.calls}))
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    out = subprocess.run([sys.executable, worker, plan, "0", "0"],
                         env=dict(os.environ, PYTHONHASHSEED="0"), check=True,
                         capture_output=True, text=True)
    calls = json.loads(out.stdout.strip().splitlines()[-1])["calls"]
    ranked = sorted((round(1000 * statistics.median(c["times"]), 3), key)
                    for c, (key, _) in zip(calls, found))
    cut = len(ranked) // 10
    kept = ranked[cut:len(ranked) - cut]
    size = len(kept) // strata
    return {"seeds": stop, "candidates": len(ranked),
            "strata": [[[*key, ms] for ms, key in kept[i * size:(i + 1) * size]]
                       for i in range(strata)]}


def pick(name, seed, strata):
    """One pool key per listed stratum, chosen by the seed.  Strata are
    taken in pairs, and a pair's second pick mirrors its first (the k-th
    cheapest of one stratum goes with the k-th dearest of the next), so that
    a cheap draw in one stratum is evened out by the next one: the mean of
    neighbouring strata, which the p50 and tail windows take, then varies
    less from seed to seed."""
    with open(POOLS_FILE, encoding="utf-8") as fh:
        pool = [sorted(s, key=lambda e: e[-1]) for s in json.load(fh)[name]["strata"]]
    rng = random.Random(f"{name}-{seed}")
    picks = []
    for k, i in enumerate(strata):
        if k % 2 == 0:
            share = rng.random()
            picks.append(pool[i][int(share * len(pool[i]))])
        else:
            picks.append(pool[i][len(pool[i]) - 1 - int(share * len(pool[i]))])
    return [tuple(e[:-1]) for e in picks]


def batch_instances(seed, quota, strata):
    """Raw maximum out-degree 2 and 3 from generator seed 1000 * seed
    onward, a fixed quota of each; degree 4 one per stratum of the pool."""
    left = dict(quota)
    out = []
    s = 1000 * seed
    while any(left.values()):
        for c in range(len(SUITE_CONFIGS)):
            g = batch_instance(s, c)
            if g is not None and left.get(out_degrees(g.network)[0]):
                left[out_degrees(g.network)[0]] -= 1
                out.append(g)
        s += 1
    return out + [batch_instance(s, c) for s, c in pick("batch", seed, strata)]


# -- writing a plan -------------------------------------------------------------


class PlanWriter:
    """Collects instance files and the CLI calls made on them."""

    def __init__(self, root, rel):
        self.root = root        # checkout root; calls name files relative to it
        self.rel = rel          # plan directory relative to the root
        self.calls = []

    def write(self, name, text):
        path = os.path.join(self.rel, name)
        os.makedirs(os.path.dirname(os.path.join(self.root, path)), exist_ok=True)
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def pair(self, name, net_text, tree_text):
        return (self.write(f"{name}.network", net_text),
                self.write(f"{name}.tree", tree_text))

    def call(self, kind, name, argv, expect, instances=1, repeat=1):
        self.calls.append({"kind": kind, "name": name, "argv": argv,
                           "expect": expect, "instances": instances})
        if repeat > 1:
            self.calls[-1]["repeat"] = repeat

    def decision(self, name, files, expect, repeat=1):
        net, tree = files
        self.call("verdict", name,
                  ["solve", "-n", net, "-t", tree, "--decision-only"], expect,
                  repeat=repeat)

    def witness(self, name, files, repeat=1):
        net, tree = files
        self.call("witness", name, ["solve", "-n", net, "-t", tree, "--witness"], YES,
                  repeat=repeat)

    def narrow(self, builder, size, tag, twins=True):
        """Write a YES instance of a family (and its NO twin); returns
        [(name, files, expected exit code)]."""
        net, tree, labels, root_leaf, deep_leaf = builder(size)
        net_doc = edgelist(net, labels, f"{tag}{size}")
        out = [(f"{tag}{size}-yes",
                self.pair(f"{tag}{size}-yes", net_doc, edgelist(tree, labels)), YES)]
        if twins:
            twin = edgelist(tree, no_twin(labels, root_leaf, deep_leaf))
            out.append((f"{tag}{size}-no", self.pair(f"{tag}{size}-no", net_doc, twin), NO))
        return out


def prepare(root, rel, workload, seed, size="full", wrong=()):
    """Write the inputs and plan of one workload; returns the plan.

    `wrong` names instances whose reference verdict is deliberately flipped;
    the smoke test uses it to prove that the known-answer gate catches misses.
    """
    sz = SIZES[size]
    w = PlanWriter(root, rel)
    families = ((spine, "spine"), (caterpillar, "cat"))
    if workload == "narrow-deep":
        primary = "verdict"
        for (builder, tag), sizes in zip(families, (sz["narrow_spine"],
                                                     sz["narrow_caterpillar"])):
            for n in sizes:
                for name, files, expect in w.narrow(builder, n, tag):
                    w.decision(name, files, expect)
        # the witness of the smallest spine, so that witness_p50_s is
        # defined on this workload too; cheap, so made several times a pass
        name, files, _ = w.narrow(spine, sz["narrow_spine"][0], "spine", False)[0]
        w.witness(name, files, repeat=CHEAP_REPEAT)
    elif workload == "witness":
        # Every instance is also decided without a witness: the base that
        # witness replay and certificate checking add to.
        # The decisions, and the witnesses up to the median one, are cheap
        # next to the two largest witnesses, so they are made several
        # times a pass: their medians then rest on more samples.
        primary = "witness"
        for (builder, tag), sizes in zip(families, (sz["witness_spine"],
                                                     sz["witness_caterpillar"])):
            for n in sizes:
                cheap = n <= sz["witness_cheap"]
                for name, files, expect in w.narrow(builder, n, tag):
                    w.decision(name, files, expect, repeat=CHEAP_REPEAT)
                    if expect == YES:
                        w.witness(name, files, repeat=CHEAP_REPEAT if cheap else 1)
    elif workload == "polytomy-wide":
        primary = "verdict"
        strata = sz["polytomy_strata"]
        for i, (s,) in zip(strata, pick("polytomy-wide", seed, strata)):
            g = polytomy_instance(s)
            files = w.pair(g.name, g.network_doc, g.tree_doc)
            w.decision(g.name, files, YES)
            # the witness of the six middle strata
            if i in sz["polytomy_witnesses"]:
                w.witness(g.name, files)
    elif workload == "batch":
        primary = "batch"
        from stc.oracle import soft_display

        # The instances are dealt round-robin into BATCH_PARTS directories,
        # one `--batch` call each: a call of a few seconds is scaled by the
        # speed probes before and after it only, so shorter calls follow
        # the machine's speed more closely.
        verdicts = [{} for _ in range(BATCH_PARTS)]
        instances = batch_instances(seed, sz["batch_quota"], sz["batch_strata"])
        for i, g in enumerate(instances):
            part = f"batch/p{i % BATCH_PARTS}"
            files = w.pair(f"{part}/{g.name}", g.network_doc, g.tree_doc)
            w.write(f"{part}/{g.name}.extension", g.extension_doc)
            expect = YES if soft_display(g.network, g.tree()) else NO
            verdicts[i % BATCH_PARTS][g.name] = "YES" if expect == YES else "NO"
            w.decision(g.name, files, expect)
            if expect == YES:
                w.witness(g.name, files)
        for p, part_verdicts in enumerate(verdicts):
            w.call("batch", f"batch-p{p}",
                   ["solve", "--batch", os.path.join(rel, "batch", f"p{p}"),
                    "--jobs", "1"], YES, instances=len(part_verdicts))
            w.calls[-1]["verdicts"] = part_verdicts
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for call in w.calls:
        if call["name"] in wrong:
            call["expect"] = NO if call["expect"] == YES else YES
        for name, verdict in call.get("verdicts", {}).items():
            if name in wrong:
                call["verdicts"][name] = "NO" if verdict == "YES" else "YES"
    plan = {"workload": workload, "seed": seed, "primary": primary,
            "calls": w.calls}
    w.write("plan.json", json.dumps(plan, indent=1, sort_keys=True))
    return plan


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 3 or sys.argv[1] != "pool" or sys.argv[2] not in POOL_SPECS:
        raise SystemExit(f"usage: workloads.py pool {'|'.join(POOL_SPECS)}")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    print(json.dumps(build_pool(sys.argv[2])))
