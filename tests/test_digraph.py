"""Core digraph invariants, rewrites, classification, reachability, the
oracle's canonical tree form, and the graphs built by `Digraph._of`."""

import random
from collections import Counter

import pytest

from stc import (
    Digraph,
    GeneratorParams,
    InputError,
    PhyloKind,
    classify,
    default_extension,
    generate,
    parse_edgelist,
    parse_enewick,
    parse_extension,
    preprocess,
    reaches,
    reduce_network,
    serialize_edgelist,
    serialize_extension,
    update_extension,
)
from stc.digraph import TreeIndex
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


@pytest.mark.parametrize("arcs, labels, vertices, message", [
    ([], None, (), "a digraph needs at least one vertex"),
    ([("a", "b")], {"z": "x"}, (), "label on unknown vertex 'z'"),
    # A None label would put None among the taxa.
    ([("r", "a"), ("r", "b")], {"a": None, "b": "b"}, (), "label None on vertex 'a'"),
], ids=["no-vertex", "label-on-unknown-vertex", "none-label"])
def test_construction_refusals_name_their_reason(arcs, labels, vertices, message):
    with pytest.raises(InputError) as refused:
        Digraph(arcs, labels, vertices)
    assert str(refused.value) == message


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


def _smallest_source_order(d):
    """The vertices of `d`, taking the smallest source of what is left each
    time, or None once every vertex left has a parent left (a cycle)."""
    left, order = set(d.vertices), []
    while left:
        sources = [v for v in left if left.isdisjoint(d.parents(v))]
        if not sources:
            return None
        order.append(min(sources))
        left.remove(order[-1])
    return tuple(order)


def test_topological_order_breaks_ties_by_sorted_id(suite):
    """The default extension is built from this order, so its tie-break
    decides output bytes.  A random extra arc closes a cycle on some graphs,
    which `is_acyclic` must tell exactly when the reference gets stuck."""
    graphs = [g for _, n, t, _ in suite for g in (n, t)]
    for seed in range(40):
        for params in (GeneratorParams(12, 6, 0.5, seed, "yes-biased"),
                       GeneratorParams(30, 8, 0.3, seed, "unlabeled")):
            inst = generate(params)
            graphs += [inst.network, inst.tree]
    for d in graphs:
        assert d.topological_order() == _smallest_source_order(d)
    rng, verdicts = random.Random(0), Counter()
    for d in graphs[::3]:
        for _ in range(3):
            u, w = rng.sample(d.vertices, 2)
            extra = Digraph(d.arcs + ((u, w),))
            reference = _smallest_source_order(extra)
            verdicts[reference is None] += 1
            assert extra.is_acyclic() is (reference is not None)
            if reference is not None:
                assert extra.topological_order() == reference
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts
    # One root and no vertex with two parents: the walk from the root
    # answers, without the sorted pass.  Its NO answers: a tree with a
    # detached directed cycle, and a tree with one subtree re-hung below
    # one of its own vertices, which cuts it off the root into a cycle.
    trees = [d for d in graphs if len(d.roots) == 1 and d.max_in_degree <= 1]
    cyclic = []
    for d in trees:
        fresh = Digraph(d.arcs, d.labels)
        assert fresh.is_acyclic() and "_topo_order" not in vars(fresh)
        ring = d.fresh_ids(3)
        cyclic.append(Digraph(d.arcs + tuple(zip(ring, ring[1:] + ring[:1])),
                              d.labels))
        index = TreeIndex(d)
        inner = [v for v in d.vertices if d.parents(v) and d.children(v)]
        u = rng.choice(inner) if inner else d.root()
        below = [w for w in inner if index.strictly_below(u, w)]
        if below:
            w = rng.choice(below)
            arcs = [a for a in d.arcs if a != (d.parents(u)[0], u)]
            cyclic.append(Digraph(arcs + [(w, u)], d.labels))
    assert len(trees) > 50 and len(cyclic) > len(trees) + 50, (len(trees), len(cyclic))
    for d in cyclic:
        assert len(d.roots) == 1 and d.max_in_degree <= 1
        assert _smallest_source_order(d) is None
        assert d.is_acyclic() is False and "_topo_order" not in vars(d)
        assert classify(d).reason == "contains a directed cycle"
        with pytest.raises(InputError, match="^not an out-tree: cyclic$"):
            TreeIndex(d)


def test_cycle_detected():
    d = Digraph([("a", "b"), ("b", "c"), ("c", "a"), ("x", "a")])
    assert not d.is_acyclic()
    with pytest.raises(InputError):
        d.topological_order()
    assert reaches(d, "x", "c") and reaches(d, "b", "a")
    assert not reaches(d, "a", "x")
    assert not reaches(d, "a", "a")              # strict on vertices
    assert reaches(d, ("a", "b"), ("a", "b"))    # b reaches a round the cycle
    # read off the sorted order's pass, whether or not it ran first
    for arcs, acyclic in ((d.arcs, False), (d.arcs[1:], True)):
        fresh = Digraph(arcs)
        fresh._topo_order
        assert fresh.is_acyclic() is acyclic


def test_fresh_ids_never_collide():
    d = Digraph([("g3", "g7"), ("g3", "x")])
    assert d.fresh_ids(2) == ("g8", "g9")


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

    for near_miss, reason in [
        (Digraph([("a", "b"), ("b", "a")]), "no root"),
        (Digraph([], vertices=["a"]), "root out-degree 0"),
        (Digraph([("r", "a")], {"a": "a"}), "fewer than 2 leaves"),
    ]:
        assert classify(near_miss) == (PhyloKind.INVALID, reason)


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


def _closure(d):
    """Warshall's closure: each vertex's set of vertices it weakly reaches."""
    reach = {v: {v, *d.children(v)} for v in d.vertices}
    for w in d.vertices:
        for v in d.vertices:
            if w in reach[v]:
                reach[v] |= reach[w]
    return reach


def test_reaches_matches_a_transitive_closure():
    """Every vertex/vertex, vertex/arc and arc/arc pair of small generated
    networks and of their extension trees."""
    for seed in range(4):
        for leaves, retics, rate in ((4, 1, 0.0), (5, 2, 0.3), (6, 3, 0.5)):
            network = generate(GeneratorParams(leaves, retics, rate, seed)).network
            for d in (network, default_extension(network).gamma):
                reach = _closure(d)
                items = d.vertices + d.arcs
                for a in items:
                    head = a[1] if isinstance(a, tuple) else a
                    for b in items:
                        tail = b[0] if isinstance(b, tuple) else b
                        strict = isinstance(a, str) and a == b
                        assert reaches(d, a, b) == (tail in reach[head] and not strict), \
                            (seed, leaves, a, b)


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


# -- graphs built from sorted maps ---------------------------------------------


def _assert_built_as_checked(g):
    """`g` is the graph that the checking constructor builds from its arcs,
    down to the order of every map."""
    checked = Digraph(g.arcs, g.labels, g.vertices)
    assert g == checked
    for field in ("_parents", "_children", "_labels"):
        assert list(getattr(g, field).items()) == list(getattr(checked, field).items())


def _reversed_lines(text):
    return "".join(reversed(text.splitlines(keepends=True)))


def test_parsed_documents_are_built_as_checked(suite):
    # Reversed, so that the lines come in no sorted order.
    for _, n, t, ext in suite[::4]:
        parsed = parse_edgelist(_reversed_lines(serialize_edgelist(n)))
        _assert_built_as_checked(parsed)
        _assert_built_as_checked(parse_edgelist(_reversed_lines(serialize_edgelist(t))))
        doc = _reversed_lines(serialize_extension(ext))
        _assert_built_as_checked(parse_extension(doc, parsed).gamma)
    # Ids n0, n1, ... past n9, so that parse order is not sorted order, and
    # hybrids reached first as leaves or with their children.
    for doc in ("((a,b),c);", "(((a,b),(c)#H1),(#H1,d));",
                "((#H1,(e,(f,g))),((x,y)#H1,(#H2,z)),(w)#H2);",
                "((a,(b)#H1),(#H1,(c,(d,(e,(f,(g,h)))))));"):
        _assert_built_as_checked(parse_enewick(doc))


@pytest.mark.parametrize("seed", [2, 3, 9, 11])
def test_rewritten_graphs_are_built_as_checked(seed):
    inst = generate(GeneratorParams(12, 6, 0.5, seed, "yes-biased"))
    n = parse_edgelist(inst.network_doc)
    assert n.max_in_degree >= 4
    taxa = sorted(n.taxa)[:-3]
    ext, trace = reduce_network(n, taxa=taxa)
    kinds = [step.kind for step in trace.steps]
    assert kinds[0] == "prune" and "insplit" in kinds
    # The pruned host, as `tidy` builds it.
    _assert_built_as_checked(trace.steps[0].new_host)
    # Each step's host and extension tree, as `RewriteState.host()` and
    # `_extension` build them, and the canonical result.
    carried = default_extension(n)
    for step in trace.steps:
        carried = update_extension(carried, step)
        _assert_built_as_checked(carried.host)
        _assert_built_as_checked(carried.gamma)
    _assert_built_as_checked(ext.host)
    _assert_built_as_checked(ext.gamma)
    tree = parse_edgelist(inst.tree_doc)
    augmented = preprocess(n, tree).tree
    _assert_built_as_checked(augmented)
    assert len(augmented.arcs) == len(tree.arcs) + 1
