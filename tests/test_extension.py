"""Tree extensions: validity, scan cuts, canonical form, and maintenance."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stc import (
    CUT_ABOVE,
    CUT_BELOW,
    Digraph,
    GeneratorParams,
    InputError,
    InternalError,
    RewriteError,
    TreeExtension,
    canonicalize,
    default_extension,
    generate,
    reduce_network,
    update_extension,
)
from stc import reduction
from stc.extension import (
    AttachRootStep,
    InSplitStep,
    RestrictStep,
    RewriteState,
    _canonical_parent,
    _cut_above,
    _default_parent,
    _restricted_parent,
    _root_first,
)


@pytest.fixture()
def ext_a(net_a):
    """A width-2 extension of net_a, written down by hand."""
    gamma = Digraph([("rho", "s"), ("s", "p"), ("s", "t"), ("p", "a"),
                     ("p", "b"), ("t", "r"), ("t", "d"), ("r", "c")])
    return TreeExtension(net_a, gamma)


def test_hand_extension_is_valid(ext_a):
    assert ext_a.is_valid()
    ext_a.require_valid()


def test_missing_vertex_is_reported(net_a):
    gamma = Digraph([("rho", "s"), ("s", "p"), ("s", "t"), ("p", "a"),
                     ("p", "b"), ("t", "r"), ("t", "c")])
    problems = TreeExtension(net_a, gamma).violations()
    assert any("missing d" in p for p in problems)


def test_arc_outside_ancestor_relation_is_reported(net_a):
    gamma = Digraph([("rho", "t"), ("t", "d"), ("t", "s"), ("s", "r"),
                     ("r", "c"), ("s", "p"), ("p", "a"), ("p", "b")])
    ok = TreeExtension(net_a, gamma)
    assert ok.is_valid()
    # swap r below p instead: (s, r) and (t, r) no longer point downward
    gamma2 = Digraph([("rho", "t"), ("t", "d"), ("t", "s"), ("s", "p"),
                      ("p", "a"), ("p", "b"), ("p", "r"), ("r", "c")])
    problems = TreeExtension(net_a, gamma2).violations()
    assert problems == []  # r is still below s and t here

    gamma3 = Digraph([("rho", "r"), ("r", "c"), ("rho", "t"), ("t", "d"),
                      ("t", "s"), ("s", "p"), ("p", "a"), ("p", "b")])
    problems = TreeExtension(net_a, gamma3).violations()
    assert any("(s, r)" in p for p in problems)


def test_scan_cuts_on_the_hand_extension(ext_a):
    assert set(ext_a.scan_cut("r", CUT_ABOVE)) == {("s", "r"), ("t", "r")}
    assert set(ext_a.scan_cut("r", CUT_BELOW)) == {("r", "c")}
    assert set(ext_a.scan_cut("p", CUT_ABOVE)) == {("s", "p")}
    assert ext_a.width() == 2


def test_cut_identity_above_equals_below_shifted(ext_a):
    """Above-cut = below-cut minus own out-arcs plus own in-arcs."""
    n = ext_a.host
    for v in n.vertices:
        above = set(ext_a.scan_cut(v, CUT_ABOVE))
        below = set(ext_a.scan_cut(v, CUT_BELOW))
        assert above == (below - set(n.out_arcs(v))) | {(u, v) for u in n.parents(v)}


def test_unknown_vertex_and_kind_rejected(ext_a):
    with pytest.raises(InputError):
        ext_a.scan_cut("nope")
    with pytest.raises(InputError):
        ext_a.scan_cut("r", "sideways")


def test_default_extension_is_canonical(net_a):
    ext = default_extension(net_a)
    assert ext.is_valid()
    assert not ext.canonicality_violations()


def test_canonicalize_never_increases_width(net_a):
    # a chain extension along a topological order is valid but wide
    order = net_a.topological_order()
    gamma = Digraph(list(zip(order, order[1:])))
    chain = TreeExtension(net_a, gamma)
    assert chain.is_valid()
    out = canonicalize(chain)
    assert out.is_valid() and not out.canonicality_violations()
    assert out.width() <= chain.width()


def test_canonicalize_rejects_invalid_input(net_a):
    gamma = Digraph([("rho", "s")], vertices=net_a.vertices)
    with pytest.raises(InputError):
        canonicalize(TreeExtension(net_a, gamma))


def test_attach_root_step(ext_a):
    out = update_extension(ext_a, AttachRootStep("g0"))
    assert out.host.root() == "g0"
    assert out.gamma.root() == "g0"
    assert out.is_valid()
    assert out.width() == ext_a.width()


def test_in_split_step():
    host = Digraph([("r", "a"), ("r", "b"), ("r", "c"), ("a", "v"),
                    ("b", "v"), ("c", "v"), ("v", "x"), ("r", "x2")],
                   {"x": "x", "x2": "y"})
    ext = default_extension(host)
    out = update_extension(ext, InSplitStep("v", ("a", "b"), "m"))
    assert out.is_valid()
    assert out.host.in_degree("v") == 2
    assert set(out.host.parents("m")) == {"a", "b"}


def test_in_split_step_apply():
    host = Digraph([("r", "a"), ("r", "b"), ("r", "c"), ("a", "v"), ("b", "v"),
                    ("c", "v"), ("v", "x")])
    ext = default_extension(host)
    out = update_extension(ext, InSplitStep("v", ("a", "b"), "w"))
    assert set(out.host.parents("v")) == {"c", "w"}
    assert set(out.host.parents("w")) == {"a", "b"}
    assert out.gamma.parents("v") == ("w",)
    assert out.is_valid()
    assert host.in_degree("v") == 3            # the input graph is untouched
    for step in (InSplitStep("x", ("v", "a"), "w"),   # in-degree 1
                 InSplitStep("v", ("a", "a"), "w"),
                 InSplitStep("v", ("a", "x"), "w"),
                 InSplitStep("v", ("a", "b"), "c")):
        with pytest.raises(RewriteError):
            update_extension(ext, step)
    with pytest.raises(InputError):
        update_extension(ext, InSplitStep("nope", ("a", "b"), "w"))


def test_restrict_step(net_a):
    from stc import prune_to_leafset

    ext = default_extension(net_a)
    pruned, step = prune_to_leafset(net_a, {"a", "b", "c"})
    out = update_extension(ext, step)
    assert out.host == pruned
    assert out.is_valid()
    assert set(out.gamma.vertices) == set(pruned.vertices)


def test_a_pruning_leaves_its_root_the_only_root_of_the_restricted_tree():
    # Every arc of a pruned host stands for a host path, so its root is an
    # ancestor of every surviving vertex in any valid extension, canonical
    # or not, and no other vertex is left without a parent.
    from stc import prune_to_leafset

    rng, kinds = random.Random(17), Counter()
    for seed in range(150):
        n = generate(GeneratorParams(rng.randrange(4, 10), rng.randrange(4), 0.3, seed)).network
        taxa = rng.sample(sorted(n.taxa), rng.randrange(2, len(n.taxa) + 1))
        pruned, _ = prune_to_leafset(n, taxa)
        chain = _chain_extension(n, rng)
        for ext in (default_extension(n), chain, _lifted(chain, rng, 2 * len(n))):
            parent = {c: p for p, c in ext.gamma.arcs}
            restricted = _restricted_parent(parent, n._parents, pruned)
            assert set(pruned.vertices) - set(restricted) == {pruned.root()}
            gamma = Digraph([(p, c) for c, p in restricted.items()], vertices=pruned.vertices)
            assert TreeExtension(pruned, gamma).is_valid()
            kinds["non-canonical" if ext.canonicality_violations() else "canonical"] += 1
    assert kinds["canonical"] >= 150 and kinds["non-canonical"] >= 200


def test_a_restriction_to_a_host_that_is_no_pruning_is_refused(net_a):
    # `p`'s extension ancestors `s` and `rho` are gone, and `a` is the root.
    host = Digraph([("a", "p"), ("a", "b")])
    with pytest.raises(InputError, match="no pruning: 'p' keeps no ancestor"):
        update_extension(default_extension(net_a), RestrictStep(host))


# Two sources, a and b, below one extension root.
_TWO_SOURCES = TreeExtension(Digraph([("a", "x"), ("b", "y")]),
                             Digraph([("a", "b"), ("a", "x"), ("b", "y")]))


@pytest.mark.parametrize("make, step, error, message", [
    (lambda net_a: _TWO_SOURCES, AttachRootStep("g0"), InputError,
     "graph has 2 roots, expected 1"),
    (default_extension, AttachRootStep("rho"), InputError, "root id 'rho' already present"),
    (default_extension, "prune", InternalError, "unknown extension update step: 'prune'"),
    (default_extension, RestrictStep(Digraph([("rho", "a"), ("rho", "zz")])), InputError,
     "restricted host has unknown vertices: ['zz']"),
], ids=["two-sources", "root-id-taken", "unknown-step", "unknown-vertices"])
def test_update_extension_refuses_what_does_not_fit(make, step, error, message, net_a):
    with pytest.raises(error) as refused:
        update_extension(make(net_a), step)
    assert str(refused.value) == message


def test_cut_sizes_need_a_valid_extension(net_a):
    gamma = Digraph([("rho", "r"), ("r", "c"), ("rho", "t"), ("t", "d"),
                     ("t", "s"), ("s", "p"), ("p", "a"), ("p", "b")])
    bad = TreeExtension(net_a, gamma)
    for query in (bad.cut_sizes, bad.width, bad.canonicality_violations,
                  lambda: bad.scan_cut("r")):
        with pytest.raises(InputError):
            query()


# -- brute-force reference ---------------------------------------------------
#
# The per-vertex definitions the pre-order index and the one-sweep cut sizes
# replace: descendant sets of gamma, one pass over the host arcs per vertex,
# and one connectivity search per subtree.


def _descendants(d):
    """Strict descendants of every vertex of the acyclic `d`."""
    desc: dict = {}
    for v in reversed(d.topological_order()):
        desc[v] = set(d.children(v)).union(*(desc[w] for w in d.children(v)))
    return desc


def _reference_scan_cut(ext, t, kind):
    desc = _descendants(ext.gamma).__getitem__
    below = desc(t)
    cut = []
    for (u, v) in ext.host.arcs:
        if kind == CUT_ABOVE:
            if t in desc(u) and (v == t or v in below):
                cut.append((u, v))
        elif (u == t or t in desc(u)) and v in below:
            cut.append((u, v))
    return tuple(cut)


def _reference_weakly_connected(d, among):
    adj = {v: [] for v in among}
    for (u, v) in d.arcs:
        if u in among and v in among:
            adj[u].append(v)
            adj[v].append(u)
    start = next(iter(among))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(among)


def _reference_canonicality_violations(ext):
    out = []
    desc = _descendants(ext.gamma)
    for t in ext.gamma.vertices:
        below = desc[t] | {t}
        if not _reference_weakly_connected(ext.host, below):
            out.append(f"host below {t} is not weakly connected")
    if set(ext.gamma.leaves) != set(ext.host.leaves):
        out.append("leaf sets of extension and host differ")
    for v in ext.gamma.vertices:
        if ext.gamma.out_degree(v) > ext.host.out_degree(v):
            out.append(f"extension out-degree exceeds host out-degree at {v}")
    return out


def _chain_extension(host, rng):
    """A random linear extension of the host, used as a chain extension."""
    indeg = {v: host.in_degree(v) for v in host.vertices}
    ready = sorted(v for v in host.vertices if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in host.children(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return TreeExtension(host, Digraph(list(zip(order, order[1:]))))


def _lifted(ext, rng, tries):
    """`ext` after `tries` attempts to move a random vertex up to its
    grandparent, each move kept if the extension stays valid."""
    host = ext.host
    parent = {c: p for p, c in ext.gamma.arcs}
    for _ in range(tries):
        v = rng.choice(sorted(parent))
        if parent[v] not in parent:
            continue
        moved = {**parent, v: parent[parent[v]]}
        gamma = Digraph([(p, c) for c, p in moved.items()], vertices=host.vertices)
        if TreeExtension(host, gamma).is_valid():
            parent = moved
    return TreeExtension(host, Digraph([(p, c) for c, p in parent.items()],
                                       vertices=host.vertices))


def _children_first(gamma, rng):
    """A random order of the vertices of `gamma` with every child before its
    parent."""
    frontier, order = [gamma.root()], []
    while frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        order.append(v)
        frontier.extend(gamma.children(v))
    return order[::-1]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), leaves=st.integers(3, 8),
       reticulations=st.integers(0, 3), rate=st.sampled_from([0.0, 0.3]),
       chain=st.booleans(), lifts=st.integers(0, 16))
def test_canonical_form_depends_only_on_the_extension(seed, leaves, reticulations,
                                                      rate, chain, lifts):
    # Chains along random topological orders are valid and mostly not
    # canonical; lifting vertices gives them branches, and so many
    # children-first orders.
    host = generate(GeneratorParams(leaves, reticulations, rate, seed)).network
    rng = random.Random(seed)
    start = _chain_extension(host, rng) if chain else default_extension(host)
    ext = _lifted(start, rng, lifts)
    assert ext.is_valid()
    for e in (start, ext):
        assert e.canonicality_violations() == _reference_canonicality_violations(e)
    first, second = (_canonical_parent(host._children, _children_first(ext.gamma, rng))
                     for _ in range(2))
    assert first == second
    canonical = canonicalize(ext)
    assert canonical == RewriteState.carrying(host, ext).canonical_extension()
    assert canonical.gamma == Digraph([(p, c) for c, p in first.items()],
                                      vertices=host.vertices)
    assert not canonical.canonicality_violations()


def _caterpillar(leaves):
    arcs = [(f"s{i}", f"s{i + 1}") for i in range(leaves - 1)]
    arcs += [(f"s{i}", f"p{i}") for i in range(leaves - 1)]
    labels = {f"p{i}": f"t{i}" for i in range(leaves - 1)}
    labels[f"s{leaves - 1}"] = f"t{leaves - 1}"
    return Digraph(arcs, labels)


def _union_find_tree(host, order):
    """The tree that the union-find `_canonical_parent` builds for `host`
    over the children-first `order`: the reference for an out-tree host."""
    parent = _canonical_parent(host._children, order)
    return Digraph([(p, c) for c, p in parent.items()], vertices=host.vertices)


def test_an_out_tree_is_its_own_canonical_extension():
    # The lemma of `extension._out_tree`: whatever valid extension of a tree
    # host is canonicalized, the union-find gives the host itself, so the
    # shortcut that returns the host agrees with it.
    rng, pruned = random.Random(11), 0
    hosts = [generate(GeneratorParams(leaves, 0, rate, seed)).network
             for seed in range(20) for leaves in (3, 9, 24) for rate in (0.0, 0.3)]
    hosts.append(_caterpillar(2000))
    for host in hosts:
        assert len(host.roots) == 1 and host.max_in_degree == 1
        default = default_extension(host)
        assert default.gamma == Digraph(host.arcs)
        assert default.gamma == _union_find_tree(host, reversed(host.topological_order()))
        assert default.gamma._children is host._children
        chain = _chain_extension(host, rng)
        for ext in (default, chain, _lifted(chain, rng, 12)):
            assert ext.is_valid()
            got = canonicalize(ext)
            assert got.host is host
            assert got.gamma == _union_find_tree(host, _children_first(ext.gamma, rng))
        taxa = sorted(host.taxa)
        for given, keep in ((None, None), (chain, None),
                            (chain, taxa[:max(2, len(taxa) // 2)])):
            reduced, trace = reduce_network(host, given, taxa=keep)
            pruned += trace.steps[0].kind == "prune"
            order = reversed(reduced.host.topological_order())
            assert reduced.gamma == _union_find_tree(reduced.host, order)
            assert not reduced.canonicality_violations()
    assert pruned >= 100


@pytest.mark.parametrize("host_arcs, gamma_arcs, problems", [
    # The chain r -> a -> b puts the host leaf b below the host leaf a.
    ([("r", "a"), ("r", "b")], [("r", "a"), ("a", "b")],
     ["host below a is not weakly connected",
      "leaf sets of extension and host differ",
      "extension out-degree exceeds host out-degree at a"]),
    # t has as many children in both graphs, but both of its host children
    # lie below m: only r feeds t's other extension child d.
    ([("r", "t"), ("r", "d"), ("t", "m"), ("t", "h"), ("m", "h"), ("m", "b"),
      ("h", "a")],
     [("r", "t"), ("t", "m"), ("t", "d"), ("m", "h"), ("m", "b"), ("h", "a")],
     ["host below t is not weakly connected"]),
], ids=["host-leaf-with-one-extension-child", "sibling-fed-from-above"])
def test_canonicality_of_hand_built_extensions(host_arcs, gamma_arcs, problems):
    host = Digraph(host_arcs)
    ext = TreeExtension(host, Digraph(gamma_arcs))
    assert ext.is_valid()
    assert ext.canonicality_violations() == _reference_canonicality_violations(ext) == problems


def test_the_topological_order_lists_the_default_tree_root_first():
    # `RewriteState.carrying` measures the default extension's width along
    # the host's topological order instead of a breadth-first walk.
    for seed in range(40):
        for leaves, retics, rate in ((4, 1, 0.0), (8, 3, 0.5), (16, 6, 0.3)):
            host = generate(GeneratorParams(leaves, retics, rate, seed)).network
            parent = _default_parent(host)
            topo = host.topological_order()
            position = {v: i for i, v in enumerate(topo)}
            assert all(position[p] < position[c] for c, p in parent.items())
            by_walk = _cut_above(_root_first(host.vertices, parent), parent,
                                 host._parents, host._children)
            assert _cut_above(topo, parent, host._parents, host._children) == by_walk
            assert RewriteState.carrying(host).width == max(by_walk.values())


def _generated_extensions():
    rng = random.Random(7)
    for seed in range(50):
        for leaves, retics, rate in ((4, 1, 0.0), (6, 2, 0.3), (8, 3, 0.5)):
            host = generate(GeneratorParams(leaves, retics, rate, seed)).network
            chain = _chain_extension(host, rng)
            yield f"s{seed}-l{leaves}-default", default_extension(host)
            yield f"s{seed}-l{leaves}-chain", chain
            yield f"s{seed}-l{leaves}-canonicalized", canonicalize(chain)


def test_extension_machinery_matches_the_reference():
    kinds = {"canonical": 0, "non-canonical": 0}
    widths = set()
    for name, ext in _generated_extensions():
        assert ext.is_valid(), name
        ref_cuts = {v: (len(_reference_scan_cut(ext, v, CUT_ABOVE)),
                        len(_reference_scan_cut(ext, v, CUT_BELOW)))
                    for v in ext.gamma.vertices}
        assert ext.cut_sizes() == ref_cuts, name
        assert ext.width() == max(above for above, _ in ref_cuts.values()), name
        for v in ext.gamma.vertices:
            for kind in (CUT_ABOVE, CUT_BELOW):
                assert ext.scan_cut(v, kind) == _reference_scan_cut(ext, v, kind), \
                    (name, v, kind)
        problems = ext.canonicality_violations()
        assert problems == _reference_canonicality_violations(ext), name
        kinds["non-canonical" if problems else "canonical"] += 1
        widths.add(ext.width())
    assert sum(kinds.values()) == 450
    assert min(kinds.values()) >= 100
    assert max(widths) >= 5


def test_in_splits_and_the_root_keep_the_default_extension_canonical(suite, monkeypatch):
    # A state that claims a canonical map must hold its own canonical form
    # after every step, since `canonical_extension` then builds it as it is.
    carry, claimed = reduction._carry, Counter()

    def spy(state, step, trace):
        carry(state, step, trace)
        if state.canonical:
            claimed[step.kind] += 1
            order = reversed(_root_first(sorted(state.parents), state.parent))
            assert state.parent == _canonical_parent(state.children, order)

    monkeypatch.setattr(reduction, "_carry", spy)
    networks = [n for _, n, _, _ in suite]
    for seed in (2, 3, 9, 11):
        n = generate(GeneratorParams(12, 6, 0.5, seed, "yes-biased")).network
        assert n.max_in_degree >= 4
        networks.append(n)
    for n in networks:
        before = claimed.total()
        ext, trace = reduce_network(n)
        assert claimed.total() - before == len(trace.steps)
        assert ext == canonicalize(ext)
    assert claimed["attach_root"] == len(networks) and claimed["insplit"] >= 20
    # A pruned host and a chain extension given with `-x` are maps not known
    # to be canonical, so they are canonicalized, as a fold of the steps and
    # `canonicalize` would do.
    rng, changed = random.Random(5), Counter()
    for seed in range(40):
        n = generate(GeneratorParams(12, 6, 0.5, seed, "yes-biased")).network
        half = sorted(n.taxa)[:len(n.taxa) // 2]
        for kind, ext, taxa in (("pruned", None, half),
                                ("chain", _chain_extension(n, rng), None)):
            before = claimed.total()
            got, trace = reduce_network(n, ext, taxa=taxa)
            assert claimed.total() == before
            carried = ext or default_extension(n)
            for step in trace.steps:
                carried = update_extension(carried, step)
            assert got == canonicalize(carried)
            changed[kind] += got != carried
    assert changed["pruned"] >= 5 and changed["chain"] >= 30
