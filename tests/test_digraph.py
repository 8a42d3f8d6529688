"""Core digraph invariants, rewrites, classification, reachability, and the
oracle's canonical tree form."""

import pytest

from stc import Digraph, InputError, PhyloKind, classify, reaches
from stc.oracle import _tree_target


def test_construction_sorts_and_deduplicates():
    d = Digraph([("b", "c"), ("a", "b"), ("b", "c")])
    assert d.vertices == ("a", "b", "c")
    assert d.arcs == (("a", "b"), ("b", "c"))


def test_self_loop_rejected():
    with pytest.raises(InputError):
        Digraph([("a", "a")])


def test_label_on_internal_vertex_rejected():
    with pytest.raises(InputError):
        Digraph([("a", "b")], {"a": "x"})


def test_duplicate_taxa_rejected():
    with pytest.raises(InputError):
        Digraph([("a", "b"), ("a", "c")], {"b": "x", "c": "x"})


def test_degrees_and_leaves(net_a):
    assert net_a.in_degree("r") == 2
    assert net_a.out_degree("r") == 1
    assert set(net_a.leaves) == {"a", "b", "c", "d"}
    assert net_a.root() == "rho"
    assert net_a.taxa == frozenset("abcd")


def test_topological_order_is_deterministic(net_a):
    order = net_a.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for (u, v) in net_a.arcs:
        assert pos[u] < pos[v]
    assert order == net_a.topological_order()


def test_descendants(net_a):
    assert net_a.descendants("t") == frozenset({"r", "c", "d"})
    assert net_a.descendants("a") == frozenset()


def test_cycle_detected():
    d = Digraph([("a", "b"), ("b", "c"), ("c", "a"), ("x", "a")])
    assert not d.is_acyclic()
    with pytest.raises(InputError):
        d.topological_order()


def test_fresh_ids_never_collide():
    d = Digraph([("g3", "g7"), ("g3", "x")])
    assert d.fresh_ids(2) == ("g8", "g9")


def test_contract_collapses_parallel_arcs():
    d = Digraph([("a", "b"), ("a", "c"), ("b", "c")])
    d2 = d.contract(("a", "b"))
    assert d2.arcs == (("a", "c"),)
    assert "b" not in d2


def test_classify_network_tree_and_near_misses(net_a, tree_b):
    assert classify(net_a).kind is PhyloKind.NETWORK
    assert classify(tree_b).kind is PhyloKind.TREE

    deg1 = Digraph([("g", "rho")] + list(net_a.arcs), net_a.labels)
    assert classify(deg1).kind is PhyloKind.ROOTED_DAG_DEG1_ROOT

    chain = Digraph([("r", "m"), ("m", "a"), ("r", "b")], {"a": "a", "b": "b"})
    bad = classify(chain)
    assert bad.kind is PhyloKind.INVALID
    assert "m" in bad.reason

    unlabeled = Digraph([("r", "a"), ("r", "b")], {"a": "a"})
    assert "unlabeled" in classify(unlabeled).reason


def test_a_network_is_classified_with_its_first_reticulation(net_a, tree_b):
    assert classify(net_a).reason == "vertex 'r' has in-degree 2"
    assert classify(tree_b).reason is None


def test_reaches_vertices_and_arcs(net_a):
    assert reaches(net_a, "s", "c")
    assert not reaches(net_a, "s", "s")          # strict on vertices
    assert reaches(net_a, ("rho", "s"), ("s", "r"))
    assert reaches(net_a, ("t", "r"), "c")
    assert reaches(net_a, "rho", ("r", "c"))
    assert not reaches(net_a, ("p", "a"), ("p", "b"))
    with pytest.raises(InputError):
        reaches(net_a, ("a", "b"), "c")


def test_canonical_form_ignores_child_order():
    t1 = Digraph([("r", "x"), ("x", "a"), ("x", "b"), ("r", "c")],
                 {"a": "a", "b": "b", "c": "c"})
    t2 = Digraph([("R", "C"), ("R", "X"), ("X", "B"), ("X", "A")],
                 {"A": "a", "B": "b", "C": "c"})
    assert _tree_target(t1) == _tree_target(t2)


def test_isomorphism_respects_leaves():
    t1 = Digraph([("r", "x"), ("x", "a"), ("x", "b"), ("r", "c")],
                 {"a": "a", "b": "b", "c": "c"})
    t3 = Digraph([("r", "x"), ("x", "a"), ("x", "c"), ("r", "b")],
                 {"a": "a", "b": "b", "c": "c"})
    assert _tree_target(t1) != _tree_target(t3)
    t4 = Digraph([("r", "a"), ("r", "b")], {"a": "a", "b": "z"})
    assert _tree_target(t1) != _tree_target(t4)


def _caterpillar(taxa, prefix):
    """A caterpillar whose spine hangs the taxa in order, deepest last."""
    arcs, labels = [], {}
    for i, taxon in enumerate(taxa[:-1]):
        spine, leaf = f"{prefix}s{i}", f"{prefix}l{i}"
        arcs.append((spine, leaf))
        labels[leaf] = taxon
        nxt = f"{prefix}s{i + 1}" if i + 2 < len(taxa) else f"{prefix}l{i + 1}"
        arcs.append((spine, nxt))
    labels[f"{prefix}l{len(taxa) - 1}"] = taxa[-1]
    return Digraph(arcs, labels)


def test_canonical_form_of_a_deep_caterpillar():
    taxa = [f"t{i}" for i in range(2000)]
    t1 = _caterpillar(taxa, "a")
    t2 = _caterpillar(taxa, "b")
    assert len(t1.leaves) == 2000
    assert _tree_target(t1) == _tree_target(t2)
    assert hash(_tree_target(t1)) == hash(_tree_target(t2))
    swapped = taxa[:]
    swapped[0], swapped[1000] = swapped[1000], swapped[0]
    assert _tree_target(t1) != _tree_target(_caterpillar(swapped, "c"))
    # the two deepest leaves form a cherry, so swapping them changes nothing
    cherry = taxa[:-2] + [taxa[-1], taxa[-2]]
    assert _tree_target(t1) == _tree_target(_caterpillar(cherry, "d"))
