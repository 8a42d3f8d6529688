"""Acceptance criteria; each test prints one pass/fail line.

The lines are emitted with output capture suspended so they stay visible
in the live pytest output.
"""

import math
import random
import statistics
import sys
import time
from collections import Counter

from stc import (
    Digraph,
    TreeExtension,
    canonicalize,
    check_embedding,
    default_extension,
    firm_display,
    preprocess,
    reconstruct_witness,
    reduce_network,
    soft_display,
    solve,
    update_extension,
)
from stc.extension import InSplitStep
from stc.reduction import _require_network, _require_tree, tidy


def _report(capsys, num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_golden_suite(net_a, tree_b, tree_c, tree_d, capsys):
    start = time.perf_counter()
    checks = [
        firm_display(net_a, tree_b) is True,
        firm_display(net_a, tree_c) is False,
        solve(preprocess(net_a, tree_d)).displayed is True,
        solve(preprocess(net_a, tree_c)).displayed is False,
        solve(preprocess(net_a, tree_b)).displayed is True,
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    _report(capsys, 1, "golden four-taxon suite", ok, f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence(suite, capsys):
    start = time.perf_counter()
    mismatches = []
    for name, n, t, ext in suite:
        want = soft_display(n, t)
        got = solve(preprocess(n, t, ext), keep_tables=False).displayed
        if want != got:
            mismatches.append(name)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600 and len(suite) >= 300
    _report(capsys, 2, "solver equals oracle on seeded suite", ok,
            f"{len(suite)} instances, {len(mismatches)} mismatches, "
            f"{elapsed:.1f}s")


def _fold(host, steps, kind):
    ext = default_extension(host)
    for step in steps:
        if isinstance(step, kind):
            ext = update_extension(ext, step)
    return ext.host


def test_criterion_3_reduction_preservation(suite, capsys):
    bad = []
    for name, n, t, _ in suite:
        base = soft_display(n, t)
        _, trace = reduce_network(n)
        resolved = _fold(n, trace.steps, InSplitStep)
        if soft_display(resolved, t) != base:
            bad.append(name + ":insplit")
    _report(capsys, 3, "in-splits preserve soft display", not bad,
            f"{len(suite)} instances, {len(bad)} violations")


def test_criterion_4_width_bounds(suite, capsys):
    # The widths are measured on every step's extension, built afresh from
    # the reduction's starting one, and the trace must report them.
    violations = []
    for name, n, t, ext in suite:
        trace = preprocess(n, t, ext).trace
        carried = ext or default_extension(n)
        widths = [carried.width()]
        for step in trace.steps:
            carried = update_extension(carried, step)
            widths.append(carried.width())
        if widths != trace.widths:
            violations.append(f"{name}:trace")
        for step, before, after in zip(trace.steps, widths, widths[1:]):
            if isinstance(step, InSplitStep) and after > before:
                violations.append(f"{name}:{step.vertex}")
    _report(capsys, 4, "width bounds along the reduction", not violations,
            f"{len(violations)} violations")


def test_criterion_5_signature_bounds(suite, capsys):
    violations = []
    for name, n, t, ext in suite:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        delta_t = inst.tree.max_out_degree
        leaves = set(inst.network.leaves)
        cuts = inst.extension.cut_sizes()
        tables = result.tables
        for s in result.stats:
            cut = cuts[s.vertex][0]
            bound = (4 * cut) ** (delta_t * cut)
            if s.cells_above > bound:
                violations.append(f"{name}:{s.vertex}:cells")
            # the most tree arcs that one signature sends to one network arc
            keys = [*tables["above"][s.vertex], *tables["below"][s.vertex]]
            if any(max(Counter(b for _, b in result.signature(k)).values()) > delta_t
                   for k in keys):
                violations.append(f"{name}:{s.vertex}:bundle")
            if s.vertex in leaves and s.cells_above != 1:
                violations.append(f"{name}:{s.vertex}:leaf")
    _report(capsys, 5, "signature table bounds", not violations,
            f"{len(violations)} violations")


def test_criterion_6_certificate_soundness(suite, capsys):
    yes = 0
    bad = []
    for name, n, t, ext in suite:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        if not result.displayed:
            continue
        yes += 1
        network, emb = reconstruct_witness(result)
        top = (inst.tree_root, inst.tree.children(inst.tree_root)[0])
        first_two = emb[top][:2]
        anchored = first_two == (inst.network_root,
                                 network.children(inst.network_root)[0])
        if not (check_embedding(emb, inst.tree, network)
                and anchored):
            bad.append(name)
    _report(capsys, 6, "every yes-verdict carries a checkable witness", not bad,
            f"{yes} yes-instances, {len(bad)} bad certificates")


def test_criterion_7_canonicalization_contract(suite, capsys):
    rng = random.Random(99)
    checked = 0
    bad = []
    for name, n, _, _ in suite:
        if checked >= 120:
            break
        # a random linear extension, used as a chain tree extension
        indeg = {v: n.in_degree(v) for v in n.vertices}
        ready = sorted(v for v in n.vertices if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(rng.randrange(len(ready)))
            order.append(v)
            for w in n.children(v):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        chain = TreeExtension(n, Digraph(list(zip(order, order[1:]))))
        out = canonicalize(chain)
        checked += 1
        if not (out.is_valid() and not out.canonicality_violations()
                and out.width() <= chain.width()):
            bad.append(name)
    _report(capsys, 7, "canonicalization contract on random extensions",
            checked >= 100 and not bad, f"{checked} pairs, {len(bad)} bad")


def _scaling_instance(blocks):
    """A spine of cherry blocks with a reticulated diamond every fifth block."""
    arcs = []
    labels = {}
    leaf = [0]

    def taxon(v):
        leaf[0] += 1
        labels[v] = f"t{leaf[0]}"

    for i in range(blocks):
        s, nxt = f"s{i}", f"s{i + 1}"
        if i % 5 == 4:
            u, w, m = f"u{i}", f"w{i}", f"m{i}"
            arcs += [(s, u), (s, w), (u, m), (w, m), (u, nxt),
                     (w, f"p{i}"), (m, f"q{i}")]
            taxon(f"p{i}")
            taxon(f"q{i}")
        else:
            arcs += [(s, f"p{i}"), (s, nxt)]
            taxon(f"p{i}")
    arcs.append((f"s{blocks}", f"p{blocks}"))
    arcs.append((f"s{blocks}", f"q{blocks}"))
    taxon(f"p{blocks}")
    taxon(f"q{blocks}")
    network = Digraph(arcs, labels)
    kept = [(a, b) for (a, b) in arcs if not (a[0] == "w" and b[0] == "m")]
    tree = tidy(Digraph(kept, labels), network.taxa)
    return network, tree


def test_criterion_8_scaling_sanity(capsys):
    sizes = []
    times = []
    for blocks in (17, 34, 67, 134):
        network, tree = _scaling_instance(blocks)
        inst = preprocess(network, tree)
        assert inst.extension.width() <= 3
        assert inst.network.max_out_degree <= 3
        assert inst.tree.max_out_degree <= 3
        best = min(
            _timed_solve(inst) for _ in range(3))
        sizes.append(len(network.arcs))
        times.append(best)
    fit = statistics.linear_regression(
        [math.log(s) for s in sizes], [math.log(t) for t in times])
    ok = 50 <= sizes[0] <= 60 and sizes[-1] >= 390 and fit.slope <= 3.5
    _report(capsys, 8, "solve time scales at most cubically", ok,
            f"arcs {sizes}, times {[f'{t * 1000:.1f}ms' for t in times]}, "
            f"slope {fit.slope:.2f}")


def _timed_solve(inst):
    start = time.perf_counter()
    result = solve(inst, keep_tables=False)
    assert result.displayed
    return time.perf_counter() - start


class _Id(str):
    """A vertex id or taxon whose equality test is a Python call, so that a
    scan comparing ids one by one in C (`list.index`, `in` on a list)
    counts one call per comparison."""
    __slots__ = ()
    __hash__ = str.__hash__

    def __eq__(self, other):
        return str.__eq__(self, other)


def _with_counted_ids(graph):
    """The arcs and labels of `graph` with each name one `_Id`."""
    ids = {}

    def name(s):
        return ids.setdefault(s, _Id(s))

    return ([(name(u), name(v)) for u, v in graph.arcs],
            {name(v): name(t) for v, t in graph.labels.items()})


def _python_calls(fn, *args):
    """The number of Python-level calls that `fn(*args)` makes."""
    calls = 0

    def tally(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(tally)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _layer_calls(network, tree):
    """The Python calls of each layer of one verdict, each on new graphs,
    so that nothing is cached from an earlier layer."""
    def fresh():
        return Digraph(*_with_counted_ids(network)), Digraph(*_with_counted_ids(tree))

    n, t = fresh()
    return {"_require_network": _python_calls(_require_network, n),
            "_require_tree": _python_calls(_require_tree, t),
            "preprocess": _python_calls(preprocess, *fresh()),
            "solve": _python_calls(lambda inst: solve(inst, keep_tables=False),
                                   preprocess(*fresh()))}


def _caterpillar(leaves):
    arcs = [(f"s{i}", f"s{i + 1}") for i in range(leaves - 1)]
    arcs += [(f"s{i}", f"p{i}") for i in range(leaves - 1)]
    labels = {f"p{i}": f"t{i}" for i in range(leaves - 1)}
    labels[f"s{leaves - 1}"] = f"t{leaves - 1}"
    return Digraph(arcs, labels)


def test_the_verdict_layers_make_linearly_many_calls_at_fixed_width():
    """At fixed width, each layer of a verdict makes at most 4.2 times the
    Python calls on an instance 4 times the size: a machine-independent
    check that its work is linear.  Sorting is not counted, as it runs in
    C; a scan over ids is, as each comparison is a call."""
    families = {"caterpillar": [(c, c) for c in map(_caterpillar, (250, 1000))],
                "spine": [_scaling_instance(50), _scaling_instance(200)]}
    ratios = {}
    for family, (small, large) in families.items():
        counts = _layer_calls(*small), _layer_calls(*large)
        for layer in counts[0]:
            ratios[family, layer] = counts[1][layer] / counts[0][layer]
    assert all(r <= 4.2 for r in ratios.values()), ratios
