"""Dynamic program, embedding checker, and witness reconstruction."""

import sys

import pytest

from stc import (
    Digraph,
    InputError,
    check_embedding,
    eventually_arc_disjoint,
    preprocess,
    reconstruct_witness,
    soft_display,
    solve,
)


def test_eventually_arc_disjoint_prefix_then_split(net_a):
    p = ("rho", "s", "p", "a")
    q = ("rho", "s", "p", "b")
    assert eventually_arc_disjoint(net_a, p, q)
    assert eventually_arc_disjoint(net_a, p, p[:2])  # prefix of itself
    # rejoining on an arc after diverging is forbidden
    d = Digraph([("r", "x"), ("r", "y"), ("x", "m"), ("y", "m"), ("m", "z")])
    assert not eventually_arc_disjoint(d, ("r", "x", "m", "z"), ("r", "y", "m", "z"))


def test_eventually_arc_disjoint_validates_paths(net_a):
    with pytest.raises(InputError):
        eventually_arc_disjoint(net_a, ("rho", "p"), ("rho", "s"))
    with pytest.raises(InputError):
        eventually_arc_disjoint(net_a, (), ("rho", "s"))


def test_check_embedding_accepts_hand_built_witness(net_a, tree_b):
    phi = {
        ("x", "y"): ("rho", "s"),
        ("y", "z"): ("s", "p"),
        ("z", "a"): ("p", "a"),
        ("z", "b"): ("p", "b"),
        ("y", "c"): ("s", "r", "c"),
        ("x", "d"): ("rho", "t", "d"),
    }
    assert check_embedding(phi, tree_b, net_a)


def test_check_embedding_rejects_broken_chaining(net_a, tree_b):
    phi = {
        ("x", "y"): ("rho", "s"),
        ("y", "z"): ("s", "p"),
        ("z", "a"): ("p", "a"),
        ("z", "b"): ("p", "b"),
        ("y", "c"): ("t", "r", "c"),   # starts away from the end of (x, y)
        ("x", "d"): ("rho", "t", "d"),
    }
    assert not check_embedding(phi, tree_b, net_a)


def test_check_embedding_rejects_wrong_leaf(net_a, tree_b):
    phi = {
        ("x", "y"): ("rho", "s"),
        ("y", "z"): ("s", "p"),
        ("z", "a"): ("p", "b"),        # lands on taxon b instead of a
        ("z", "b"): ("p", "a"),
        ("y", "c"): ("s", "r", "c"),
        ("x", "d"): ("rho", "t", "d"),
    }
    assert not check_embedding(phi, tree_b, net_a)


def test_check_embedding_requires_downward_closed_domain(net_a, tree_b):
    phi = {("y", "z"): ("s", "p")}    # children of z are missing
    with pytest.raises(InputError):
        check_embedding(phi, tree_b, net_a)
    with pytest.raises(InputError):
        check_embedding({("no", "pe"): ("rho", "s")}, tree_b, net_a)


def test_solver_matches_hand_answers(net_a, tree_b, tree_c, tree_d):
    answers = {}
    for name, t in [("b", tree_b), ("c", tree_c), ("d", tree_d)]:
        answers[name] = solve(preprocess(net_a, t)).displayed
    assert answers == {"b": True, "c": False, "d": True}


def test_decision_only_mode_agrees_and_blocks_witnesses(net_a, tree_b):
    inst = preprocess(net_a, tree_b)
    full = solve(inst)
    lean = solve(inst, keep_tables=False)
    assert full.displayed == lean.displayed is True
    assert lean.tables is None
    with pytest.raises(InputError):
        reconstruct_witness(lean)


def test_witness_is_checkable_and_anchored(net_a, tree_b, tree_d):
    for t in (tree_b, tree_d):
        inst = preprocess(net_a, t)
        result = solve(inst)
        emb = reconstruct_witness(result)
        assert set(emb.paths) == set(inst.tree.arcs)
        assert check_embedding(emb.paths, inst.tree, inst.network)
        top = (inst.tree_root, inst.tree.children(inst.tree_root)[0])
        assert emb.paths[top][0] == inst.network_root
        assert emb.endpoint(inst.tree.children(inst.tree_root)[0]) == \
            emb.paths[top][-1]


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_deep_witness_replay_leaves_the_recursion_limit_alone(monkeypatch):
    # A caterpillar of 300 leaves displays itself; its extension is a path
    # of about 600 vertices, far deeper than the headroom left below.
    arcs = [(f"s{i}", f"s{i + 1}") for i in range(299)]
    arcs += [(f"s{i}", f"p{i}") for i in range(299)]
    labels = {f"p{i}": f"t{i}" for i in range(299)}
    labels["s299"] = "t299"
    caterpillar = Digraph(arcs, labels)
    inst = preprocess(caterpillar, caterpillar)
    result = solve(inst)
    headroom = 100
    gamma = inst.extension.gamma
    depth = {gamma.root(): 0}
    for v in gamma.topological_order():
        for c in gamma.children(v):
            depth[c] = depth[v] + 1
    assert max(depth.values()) > 2 * headroom

    def refuse(limit):
        raise AssertionError("the recursion limit is process-global")

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + headroom)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        emb = reconstruct_witness(result)
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(old_limit)
    assert set(emb.paths) == set(inst.tree.arcs)


def test_no_witness_for_no_instances(net_a, tree_c):
    result = solve(preprocess(net_a, tree_c))
    with pytest.raises(InputError):
        reconstruct_witness(result)


def test_solver_agrees_with_oracle_on_suite_head(suite):
    for _, n, t, ext in suite[:60]:
        got = solve(preprocess(n, t, ext), keep_tables=False).displayed
        assert got == soft_display(n, t)


def test_stats_are_collected(net_a, tree_b):
    result = solve(preprocess(net_a, tree_b))
    assert result.stats
    by_vertex = {s.vertex for s in result.stats}
    assert result.final_vertex in by_vertex
    for s in result.stats:
        assert s.cells_above >= 1
        assert s.cut_above >= 1
