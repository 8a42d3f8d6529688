"""Stretch gadget, in-splitting, pruning, and the full preprocessing pipeline."""

from functools import reduce

import pytest

from stc import (
    Digraph,
    InputError,
    PhyloKind,
    RewriteError,
    SemanticError,
    classify,
    default_extension,
    preprocess,
    prune_to_leafset,
    reduce_network,
    soft_display,
    update_extension,
)
from stc.extension import InSplitStep, StretchStep
from stc.reduction import stretch_step


def star(n):
    taxa = [chr(ord("a") + i) for i in range(n)]
    return Digraph([("r", x) for x in taxa], {x: x for x in taxa})


def replay(host, steps):
    return reduce(lambda h, step: step.apply(h), steps, host)


def steps_of(trace, kind):
    return [s for s in trace.steps if isinstance(s, kind)]


# -- stretching --------------------------------------------------------------


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_stretch_counts_and_degrees(degree):
    n = star(degree)
    step = stretch_step(n, "r")
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
    assert out.is_binary()
    # every original child keeps exactly one incoming arc from its block
    for c in n.children("r"):
        assert out.in_degree(c) == 1


def test_stretch_requires_polytomy(net_a):
    with pytest.raises(RewriteError):
        stretch_step(net_a, "p")
    with pytest.raises(InputError):
        stretch_step(net_a, "nope")


def test_stretch_network_touches_only_polytomies(net_a, tree_d):
    _, trace = reduce_network(net_a)
    assert steps_of(trace, StretchStep) == []
    _, trace = reduce_network(tree_d)
    steps = steps_of(trace, StretchStep)
    assert [s.vertex for s in steps] == ["y"]
    assert replay(tree_d, steps).max_out_degree == 2


def test_stretch_preserves_soft_display(tree_d, tree_b, tree_c):
    n = star(4)
    stretched = stretch_step(n, "r").apply(n)
    for t, want in [(tree_b, True), (tree_c, True), (tree_d, True)]:
        assert soft_display(n, t) == soft_display(stretched, t) == want


def test_stretch_keeps_extension_valid(tree_d):
    ext = default_extension(tree_d)
    step = stretch_step(ext.host, "y")
    out = update_extension(ext, step)
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
    assert out.max_in_degree == 2
    assert out.is_binary()
    assert ext.host.is_binary()


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


# -- preprocess --------------------------------------------------------------


def test_preprocess_invariants(net_a, tree_d):
    inst = preprocess(net_a, tree_d)
    inst.check()
    assert inst.network.root() == inst.network_root
    assert inst.network.out_degree(inst.network_root) == 1
    assert inst.tree.root() == inst.tree_root
    assert inst.network.taxa == inst.tree.taxa == tree_d.taxa
    assert inst.extension.is_canonical()


def test_preprocess_rejects_bad_inputs(net_a, tree_d):
    small = Digraph([("r", "a"), ("r", "b")], {"a": "a", "b": "zzz"})
    with pytest.raises(SemanticError):
        preprocess(small, tree_d)
    with pytest.raises(SemanticError):
        preprocess(net_a, net_a)  # second argument must classify as a tree


def test_replay_reproduces_reduced_network(suite):
    for _, n, t, ext in suite[:40]:
        inst = preprocess(n, t, ext)
        assert replay(n, inst.trace.steps) == inst.network
