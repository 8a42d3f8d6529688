"""In-splitting, pruning, the full preprocessing pipeline, the step-by-step
reference for the fused reduction, and the stretch gadget that `test_solver`
keeps as the reference for soft polytomies."""

import inspect
import random
from collections import Counter
from functools import reduce
from types import FunctionType

import pytest

from stc import (
    AugmentedInstance,
    Digraph,
    GeneratorParams,
    InputError,
    InternalError,
    ReductionTrace,
    TreeExtension,
    PhyloKind,
    RewriteError,
    SemanticError,
    canonicalize,
    classify,
    default_extension,
    generate,
    preprocess,
    prune_to_leafset,
    reduce_network,
    serialize_edgelist,
    serialize_extension,
    soft_display,
    update_extension,
)
from stc.cli import main
from stc.digraph import _adjacency
from stc.extension import AttachRootStep, InSplitStep, RestrictStep
from stc.reduction import tidy
from test_solver import _reference_preprocess, _reference_stretch


def star(n):
    taxa = [chr(ord("a") + i) for i in range(n)]
    return Digraph([("r", x) for x in taxa], {x: x for x in taxa})


def replay(host, steps):
    return reduce(update_extension, steps, default_extension(host)).host


def steps_of(trace, kind):
    return [s for s in trace.steps if isinstance(s, kind)]


# -- the reference gadget ---------------------------------------------------


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_stretch_counts_and_degrees(degree):
    n = star(degree)
    step = _reference_stretch(n, "r")
    out = step.apply(n)
    d = degree
    # triangle rows 2..d-1 plus pass-throughs, row-d collectors, 4-vertex blocks
    expected_new = (sum(i for i in range(2, d)) + sum(i - 2 for i in range(3, d))
                    + (d - 2) + 4 * (d - 1) * (d - 1))
    assert len(out) == len(n) + expected_new
    assert len(step.path) == expected_new
    assert set(step.path) == set(out.vertices) - set(n.vertices)
    assert out.out_degree("r") == 2
    assert classify(out).kind is PhyloKind.NETWORK
    assert out.max_in_degree <= 2 and out.max_out_degree <= 2
    # every original child keeps exactly one incoming arc from its block
    for c in n.children("r"):
        assert out.in_degree(c) == 1


def test_stretch_requires_polytomy(net_a):
    with pytest.raises(RewriteError):
        _reference_stretch(net_a, "p")
    with pytest.raises(InputError):
        _reference_stretch(net_a, "nope")


def test_stretch_network_touches_only_polytomies(net_a, tree_d):
    # The reduction keeps polytomies; the reference stretches them alone.
    for n in (net_a, tree_d):
        ext, trace = reduce_network(n)
        assert {s.kind for s in trace.steps} == {"attach_root"}
        assert ext.host.max_out_degree == n.max_out_degree
    assert _reference_preprocess(net_a, tree_d).network.max_out_degree == 2
    stretched = _reference_preprocess(tree_d, tree_d).network
    kept = {v for v in tree_d.vertices if stretched.children(v) == tree_d.children(v)}
    assert kept == set(tree_d.vertices) - {"y"}
    assert stretched.max_out_degree == 2


def test_stretch_preserves_soft_display(tree_d, tree_b, tree_c):
    n = star(4)
    stretched = _reference_stretch(n, "r").apply(n)
    for t, want in [(tree_b, True), (tree_c, True), (tree_d, True)]:
        assert soft_display(n, t) == soft_display(stretched, t) == want


def test_stretch_keeps_extension_valid(tree_d):
    ext = default_extension(tree_d)
    step = _reference_stretch(ext.host, "y")
    out = step.carry(ext)
    assert out.host == step.apply(ext.host)
    assert out.is_valid()


# -- in-splitting ------------------------------------------------------------


def test_in_splits_resolve_all_heads():
    n = Digraph([("r", "a"), ("r", "b"), ("a", "c"), ("a", "v"), ("b", "v"),
                 ("b", "y"), ("c", "v"), ("v", "x")],
                {"x": "x", "y": "y"})
    ext, trace = reduce_network(n)
    steps = steps_of(trace, InSplitStep)
    assert len(steps) == 1
    assert steps[0].parents == ("a", "b")
    out = replay(n, steps)
    assert out.max_in_degree == 2 and out.max_out_degree <= 2
    assert ext.host.max_in_degree <= 2 and ext.host.max_out_degree <= 2


def test_in_splits_walk_targets_in_sorted_order():
    # Two in-degree-4 vertices: each is split down to in-degree 2 before
    # the next one, always above its two sorted-smallest parents.
    arcs = [("r", "s"), ("r", "t"), ("s", "a"), ("s", "b"), ("t", "c"), ("t", "d")]
    arcs += [(p, "v") for p in "abcd"] + [(p, "w") for p in "abcd"]
    arcs += [("v", "x"), ("w", "y")]
    n = Digraph(arcs, {"x": "x", "y": "y"})
    _, trace = reduce_network(n)
    steps = steps_of(trace, InSplitStep)
    assert [(s.vertex, s.parents) for s in steps] == [
        ("v", ("a", "b")), ("v", ("c", "d")), ("w", ("a", "b")), ("w", ("c", "d"))]
    assert [s.new_vertex for s in steps] == ["g0", "g1", "g2", "g3"]


# -- pruning -----------------------------------------------------------------


def test_prune_keeps_behaviour(net_a):
    pruned, step = prune_to_leafset(net_a, {"a", "b", "c"})
    assert pruned.taxa == frozenset("abc")
    assert classify(pruned)
    assert "d" not in pruned
    assert step.new_host == pruned


def test_prune_rejects_foreign_taxa(net_a):
    with pytest.raises(SemanticError):
        prune_to_leafset(net_a, {"a", "zebra"})
    with pytest.raises(InputError):
        prune_to_leafset(net_a, {"a"})


def test_prune_is_oracle_equivalent(suite):
    checked = 0
    for _, n, t, _ in suite[:45]:
        if t.taxa == n.taxa:
            continue
        pruned, _ = prune_to_leafset(n, t.taxa)
        assert soft_display(n, t) == soft_display(pruned, t)
        checked += 1
    assert checked >= 10


# `tidy` as it was when it searched for useless vertices on every round: the
# reference for the single search.
def _reference_tidy(d: Digraph, keep_taxa) -> Digraph:
    """Drop everything that serves no kept taxon, then clean up degrees.

    Repeats until stable: remove vertices reaching no kept leaf, suppress
    in-1/out-1 vertices, collapse duplicate arcs (set semantics), and delete
    a root of out-degree 1.
    """
    keep_taxa = set(keep_taxa)
    parents = {v: set(ps) for v, ps in d._parents.items()}
    children = {v: set(cs) for v, cs in d._children.items()}
    labels = {v: t for v, t in d._labels.items() if t in keep_taxa}
    alive = set(d.vertices)

    def drop(v):
        for p in parents[v]:
            children[p].discard(v)
        for c in children[v]:
            parents[c].discard(v)
        alive.discard(v)
        labels.pop(v, None)

    while True:
        changed = False
        # vertices that reach no kept leaf
        useful = set(labels)
        stack = list(useful)
        while stack:
            v = stack.pop()
            for p in parents[v]:
                if p in alive and p not in useful:
                    useful.add(p)
                    stack.append(p)
        for v in sorted(alive - useful):
            drop(v)
            changed = True
        # suppress pass-through vertices
        for v in sorted(alive):
            if len(parents[v]) == 1 and len(children[v]) == 1:
                (p,) = parents[v]
                (c,) = children[v]
                drop(v)
                if p != c:
                    children[p].add(c)
                    parents[c].add(p)
                changed = True
        # trim a degree-1 root
        roots = sorted(v for v in alive if not parents[v])
        if len(roots) == 1 and len(children[roots[0]]) == 1:
            drop(roots[0])
            changed = True
        if not changed:
            break
    if not alive:
        raise SemanticError("pruning removed the entire graph")
    # Sorted arcs, no self-loop (see `p != c`), and labels of `d`'s leaves.
    vertices = tuple(sorted(alive))
    arcs = [(u, v) for u in vertices for v in sorted(children[u])]
    return Digraph._of(vertices, *_adjacency(vertices, arcs), labels)


def _tidy_outcome(tidy_fn, d, keep):
    try:
        return tidy_fn(d, keep)
    except SemanticError as exc:
        return str(exc)


def test_one_search_for_useless_vertices_tidies_as_every_round_did():
    rng, outcomes = random.Random(23), Counter()
    for seed in range(200):
        for params in ((4, 1, 0.0), (7, 3, 0.3), (10, 6, 0.5)):
            g = generate(GeneratorParams(*params, seed))
            for d in (g.network, g.tree):
                taxa = sorted(d.taxa) + ["foreign"]
                for _ in range(2):
                    keep = rng.sample(taxa, rng.randrange(len(taxa) + 1))
                    got = _tidy_outcome(tidy, d, keep)
                    assert got == _tidy_outcome(_reference_tidy, d, keep), (seed, keep)
                    outcomes["error" if isinstance(got, str) else "graph"] += 1
    assert outcomes["graph"] >= 2000 and outcomes["error"] >= 30


# `tidy` as it was before its worklist, copied verbatim: sorted sweeps and a
# root rescan, round after round until one changes nothing.
def _swept_tidy(d: Digraph, keep_taxa) -> Digraph:
    """Drop everything that serves no kept taxon, then clean up degrees.

    Removes the vertices that reach no kept leaf, then repeats until stable:
    suppress in-1/out-1 vertices, collapse duplicate arcs (set semantics),
    and delete a root of out-degree 1.  One search for useless vertices is
    enough, as no later step changes a vertex's reach to a kept leaf:
    labels sit on sinks, which no step removes, and a suppressed vertex's
    parent reaches through the new arc whatever it reached through it.
    """
    keep_taxa = set(keep_taxa)
    labels = {v: t for v, t in d._labels.items() if t in keep_taxa}
    # Keep the vertices that reach a kept leaf; their parents do too.
    alive = set(labels)
    stack = list(alive)
    while stack:
        for p in d._parents[stack.pop()]:
            if p not in alive:
                alive.add(p)
                stack.append(p)
    parents = {v: set(d._parents[v]) for v in alive}
    children = {v: alive.intersection(d._children[v]) for v in alive}

    def drop(v):
        for p in parents[v]:
            children[p].discard(v)
        for c in children[v]:
            parents[c].discard(v)
        alive.discard(v)

    changed = True
    while changed:
        changed = False
        # suppress pass-through vertices
        for v in sorted(alive):
            if len(parents[v]) == 1 and len(children[v]) == 1:
                (p,) = parents[v]
                (c,) = children[v]
                drop(v)
                if p != c:
                    children[p].add(c)
                    parents[c].add(p)
                changed = True
        # trim a degree-1 root
        roots = sorted(v for v in alive if not parents[v])
        if len(roots) == 1 and len(children[roots[0]]) == 1:
            drop(roots[0])
            changed = True
    if not alive:
        raise SemanticError("pruning removed the entire graph")
    # Sorted arcs, no self-loop (see `p != c`), and labels of `d`'s leaves.
    vertices = tuple(sorted(alive))
    arcs = [(u, v) for u in vertices for v in sorted(children[u])]
    return Digraph._of(vertices, *_adjacency(vertices, arcs), labels)


def _swept_rounds(d, keep):
    """How many rounds `_swept_tidy` makes on `d` and `keep`, the last of
    which changes nothing.  It sorts the roots once a round, and that is
    its only call of `sorted` on a generator."""
    rounds = []

    def counting(items, **kwargs):
        if inspect.isgenerator(items):
            rounds.append(items)
        return sorted(items, **kwargs)

    swept = FunctionType(_swept_tidy.__code__, {**globals(), "sorted": counting})
    _tidy_outcome(swept, d, keep)
    return len(rounds)


def _random_dag(rng, size):
    """A DAG on `size` vertices with arcs from lower to higher numbers and a
    taxon on every sink; it has many roots more often than not."""
    names = [f"v{i:02d}" for i in range(size)]
    arcs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]
            if rng.random() < 2.5 / size]
    tails = {u for u, _ in arcs}
    return Digraph(arcs, {v: f"t{v}" for v in names if v not in tails}, names)


def test_the_worklist_tidies_as_the_sweeps_did():
    # Generated networks and trees, and random DAGs with several roots,
    # each restricted to random taxon subsets.
    rng, outcomes = random.Random(29), Counter()
    for seed in range(200):
        graphs = [_random_dag(rng, rng.randrange(4, 16))]
        for params in ((4, 1, 0.0), (7, 3, 0.3), (10, 6, 0.5)):
            g = generate(GeneratorParams(*params, seed))
            graphs += [g.network, g.tree]
        for d in graphs:
            taxa = sorted(d.taxa) + ["foreign"]
            for _ in range(9):
                keep = rng.sample(taxa, rng.randrange(len(taxa) + 1))
                got = _tidy_outcome(tidy, d, keep)
                assert got == _tidy_outcome(_swept_tidy, d, keep), (seed, keep)
                assert got == _tidy_outcome(_reference_tidy, d, keep), (seed, keep)
                outcomes["error" if isinstance(got, str) else "graph"] += 1
                outcomes["several roots"] += len(d.roots) > 1
                outcomes["2+ productive rounds"] += _swept_rounds(d, keep) >= 3
    assert sum(outcomes[k] for k in ("error", "graph")) >= 10_000, outcomes
    assert outcomes["2+ productive rounds"] >= 300, outcomes
    assert outcomes["several roots"] >= 1000, outcomes


# -- preprocess --------------------------------------------------------------


def test_preprocess_invariants(net_a, tree_d):
    inst = preprocess(net_a, tree_d)
    inst.check()
    assert inst.network.root() == inst.network_root
    assert inst.network.out_degree(inst.network_root) == 1
    assert inst.tree.root() == inst.tree_root
    assert inst.network.taxa == inst.tree.taxa == tree_d.taxa
    assert inst.extension.is_valid()
    assert not inst.extension.canonicality_violations()


def _with(inst, **fields):
    """A hand-built copy of `inst` with some fields replaced."""
    parts = {"tree": inst.tree, "extension": inst.extension, "trace": inst.trace}
    return AugmentedInstance(**{**parts, **fields})


def test_check_allows_polytomies_and_rejects_the_rest(net_a, tree_d):
    inst = preprocess(tree_d, tree_d)  # keeps the out-degree-3 vertex y
    assert inst.network.out_degree("y") == 3
    inst.check()
    # in-degree 3 at h, below the three children of a polytomy
    arcs = [("rho", "r")] + [("r", a) for a in ("a1", "a2", "a3")]
    arcs += [(a, "h") for a in ("a1", "a2", "a3")]
    arcs += [("h", "x"), ("a1", "y"), ("a2", "z"), ("a3", "w")]
    wide = Digraph(arcs, {v: v for v in "xyzw"})
    tree = Digraph([("t0", "t1"), ("t1", "t2"), ("t1", "t3"), ("t2", "x"),
                    ("t2", "y"), ("t3", "z"), ("t3", "w")], {v: v for v in "xyzw"})
    with pytest.raises(InternalError, match="in-degree above 2"):
        AugmentedInstance(tree, default_extension(wide), ReductionTrace()).check()
    inst = preprocess(net_a, tree_d)
    order = inst.network.topological_order()
    chain = TreeExtension(inst.network, Digraph(list(zip(order, order[1:]))))
    assert chain.is_valid()
    with pytest.raises(InternalError, match="not canonical"):
        _with(inst, extension=chain).check()
    renamed = Digraph(inst.tree.arcs, {**inst.tree.labels, "d": "e"})
    with pytest.raises(InternalError, match="taxa differ"):
        _with(inst, tree=renamed).check()
    # net_a's root has out-degree 2, and so has tree_d's
    with pytest.raises(InternalError,
                       match="^reduced network misses the degree-1-root form$"):
        _with(inst, extension=default_extension(net_a)).check()
    with pytest.raises(InternalError, match="^reduced tree misses the degree-1-root form$"):
        _with(inst, tree=tree_d).check()
    # the reduced network has the degree-1-root form and a vertex of in-degree 2
    with pytest.raises(InternalError, match="^reduced tree is not an out-tree$"):
        _with(inst, tree=inst.network).check()
    # a star below the root leaves out every host arc between two other vertices
    root = inst.network_root
    star = Digraph([(root, v) for v in inst.network.vertices if v != root])
    with pytest.raises(InputError, match="^invalid tree extension: arc .* not inside "
                                         "the strict ancestor relation"):
        _with(inst, extension=TreeExtension(inst.network, star)).check()


def test_preprocess_rejects_bad_inputs(net_a, tree_d):
    small = Digraph([("r", "a"), ("r", "b")], {"a": "a", "b": "zzz"})
    with pytest.raises(SemanticError):
        preprocess(small, tree_d)
    with pytest.raises(SemanticError):
        preprocess(net_a, net_a)  # second argument must classify as a tree
    with pytest.raises(InputError, match="^extension does not belong to the given network$"):
        preprocess(net_a, tree_d, default_extension(tree_d))
    # `RewriteState.carrying` validates a given extension
    star = Digraph([("rho", v) for v in net_a.vertices if v != "rho"])
    with pytest.raises(InputError, match="^invalid tree extension: arc .* not inside "):
        preprocess(net_a, tree_d, TreeExtension(net_a, star))


def test_the_default_path_makes_one_kahn_pass(net_a, tree_d, monkeypatch, tmp_path,
                                             capsys):
    # The sorted order is the one Kahn pass: the input network's answers its
    # cycle check and gives the default extension.  The input tree has one
    # root and no vertex with two parents, so a walk from its root answers
    # its cycle check, and the reduced network and the augmented tree carry
    # proofs.
    topo = Digraph.__dict__["_topo_order"]
    compute, passes = topo.compute, []

    def counted(d):
        passes.append(d)
        return compute(d)

    monkeypatch.setattr(topo, "compute", counted)
    n = Digraph(net_a.arcs, net_a.labels)
    t = Digraph(tree_d.arcs, tree_d.labels)
    inst = preprocess(n, t)
    assert len(passes) == 1 and passes[0] is n
    assert inst.network.is_acyclic() and inst.tree.is_acyclic()
    assert len(passes) == 1  # none on the reduced network or the augmented tree
    # A given extension (-x) needs no sorted order: still the network's one
    # pass for its cycle check, and none on the tree.
    given = Digraph(net_a.arcs, net_a.labels)
    t = Digraph(tree_d.arcs, tree_d.labels)
    ext = TreeExtension(given, Digraph(default_extension(net_a).gamma.arcs))
    passes.clear()
    preprocess(given, t, ext)
    assert len(passes) == 1 and passes[0] is given
    # `stc reduce` calls `_require_network` too, with and without -x.
    (tmp_path / "n").write_text(serialize_edgelist(net_a))
    (tmp_path / "t").write_text(serialize_edgelist(tree_d))
    (tmp_path / "x").write_text(serialize_extension(default_extension(net_a)))
    common = ["reduce", "-n", str(tmp_path / "n"), "-t", str(tmp_path / "t"),
              "-o", str(tmp_path / "r")]
    for extra in ([], ["-x", str(tmp_path / "x")]):
        passes.clear()
        assert main(common + extra) == 0
        assert [d.labels for d in passes] == [net_a.labels]
        assert [d.vertices for d in passes] == [net_a.vertices]
    capsys.readouterr()
    # A hand-built instance's tree carries no proof: `check` searches it,
    # so a cyclic tree is still refused.  It has a vertex with two parents,
    # so the search is the sorted pass, as it is on the cyclic network.
    looped = Digraph([("x", "y"), ("y", "z"), ("z", "y"), ("y", "a"), ("z", "b")],
                     {"a": "a", "b": "b"})
    passes.clear()
    with pytest.raises(InternalError, match="^reduced tree misses the degree-1-root form$"):
        _with(inst, tree=looped).check()
    assert len(passes) == 1 and passes[0] is looped
    cyclic = Digraph([("r", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("r", "x"),
                      ("r", "y")], {"x": "x", "y": "y"})
    tree = Digraph([("s", "x"), ("s", "y")], {"x": "x", "y": "y"})
    passes.clear()
    with pytest.raises(SemanticError,
                       match="^not a phylogenetic network: contains a directed cycle$"):
        preprocess(cyclic, tree)
    assert len(passes) == 1 and passes[0] is cyclic


def test_replay_reproduces_reduced_network(suite):
    for _, n, t, ext in suite[:40]:
        inst = preprocess(n, t, ext)
        assert replay(n, inst.trace.steps) == inst.network


# -- the fused reduction against a fold of whole-graph rewrites -------------


def _reference_update(ext, step):
    """`ext` carried across `step` by whole-graph `Digraph` rewrites that
    share no code with `RewriteState`: the reference for the fused loop."""
    host, gamma = ext.host, ext.gamma
    if isinstance(step, InSplitStep):
        v, (p1, p2), new = step.vertex, step.parents, step.new_vertex
        assert host.in_degree(v) >= 3 and p1 != p2 and new not in host
        assert {p1, p2} <= set(host.parents(v))
        arcs = [a for a in host.arcs if a not in ((p1, v), (p2, v))]
        host = Digraph(arcs + [(p1, new), (p2, new), (new, v)], host.labels)
        (above_v,) = gamma.parents(v)
        arcs = [a for a in gamma.arcs if a != (above_v, v)]
        return TreeExtension(host, Digraph(arcs + [(above_v, new), (new, v)]))
    if isinstance(step, AttachRootStep):
        new = step.new_root
        host = Digraph(list(host.arcs) + [(new, host.root())], host.labels)
        return TreeExtension(host, Digraph(list(gamma.arcs) + [(new, gamma.root())]))
    assert isinstance(step, RestrictStep)
    host = step.new_host
    surviving = set(host.vertices)
    parent = {c: p for p, c in gamma.arcs}
    new_parent = {}
    for v in sorted(surviving):
        p = parent.get(v)
        while p is not None and p not in surviving:
            p = parent.get(p)
        if p is not None:
            new_parent[v] = p
    strays = sorted(surviving - set(new_parent))
    anchor = host.root()
    while anchor in new_parent:
        anchor = new_parent[anchor]
    new_parent.update((r, anchor) for r in strays if r != anchor)
    gamma = Digraph([(p, c) for c, p in new_parent.items()], vertices=host.vertices)
    return TreeExtension(host, gamma)


def _path_width(ext):
    """The largest cut, counted by walking each host arc's extension path."""
    assert ext.is_valid()
    parent = {c: p for p, c in ext.gamma.arcs}
    cut = Counter()
    for (u, v) in ext.host.arcs:
        while v != u:
            cut[v] += 1
            v = parent[v]
    return max(cut.values(), default=0)


def _reference_reduce(n, ext=None, taxa=None):
    """`reduce_network` as a fold of `_reference_update` with the width of
    each freshly built extension, then `canonicalize`."""
    ext = default_extension(n) if ext is None else ext
    trace = ReductionTrace(widths=[_path_width(ext)])

    def carry(step):
        nonlocal ext
        wrapped = update_extension(ext, step)
        ext = _reference_update(ext, step)
        assert wrapped == ext
        trace.steps.append(step)
        trace.widths.append(_path_width(ext))

    if taxa is not None and set(taxa) != n.taxa:
        carry(prune_to_leafset(n, taxa)[1])
    for v in [v for v in ext.host.vertices if ext.host.in_degree(v) >= 3]:
        while ext.host.in_degree(v) >= 3:
            host = ext.host
            carry(InSplitStep(v, host.parents(v)[:2], host.fresh_ids(1)[0]))
    carry(AttachRootStep(ext.host.fresh_ids(1)[0]))
    return canonicalize(ext), trace


def _random_chain(n, rng):
    """A valid, non-canonical extension: a random topological order of
    `n` as a path."""
    indeg = {v: n.in_degree(v) for v in n.vertices}
    ready = sorted(v for v in n.vertices if not indeg[v])
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in n.children(v):
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return TreeExtension(n, Digraph(list(zip(order, order[1:]))))


def test_fused_reduction_matches_the_step_fold():
    rng = random.Random(11)
    seen = Counter()
    split_degrees = Counter()
    for seed in range(100):
        for leaves, retics in ((5, 3), (7, 5), (9, 7)):
            n = generate(GeneratorParams(leaves, retics, 0.3, seed, "unlabeled")).network
            taxa = sorted(n.taxa)[:len(n.taxa) - seed % 3]
            for ext in (None, _random_chain(n, rng)):
                got_ext, got = reduce_network(n, ext, taxa=taxa)
                want_ext, want = _reference_reduce(n, ext, taxa)
                assert got.steps == want.steps
                assert got.widths == want.widths
                assert got_ext.host == want_ext.host
                assert serialize_edgelist(got_ext.host) == serialize_edgelist(want_ext.host)
                assert serialize_extension(got_ext) == serialize_extension(want_ext)
                seen["default" if ext is None else "supplied"] += 1
                seen.update(step.kind for step in got.steps)
            split_degrees.update(Counter(
                step.vertex for step in got.steps if step.kind == "insplit").values())
    assert seen["default"] == seen["supplied"] == 300
    assert seen["prune"] >= 300 and seen["attach_root"] == 600
    # a vertex of in-degree d is split d - 2 times
    assert {1, 2, 3} <= set(split_degrees), split_degrees
