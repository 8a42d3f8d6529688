"""Dynamic program, embedding checker, and witness reconstruction."""

import random
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stc import (
    AugmentedInstance,
    Digraph,
    GeneratorParams,
    InputError,
    InternalError,
    RewriteError,
    TreeExtension,
    check_embedding,
    default_extension,
    eventually_arc_disjoint,
    generate,
    preprocess,
    prune_to_leafset,
    reaches,
    reconstruct_witness,
    soft_display,
    solve,
    update_extension,
)
from stc import solver
from stc.digraph import TreeIndex
from stc.solver import VertexStats, _require_path, _resolutions
from test_extension import _chain_extension, _lifted


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


# The two pair conditions, on a network of their own.  Tree: x -> y -> {a, b}
# and x -> z -> {c, d}.  Network: rho -> {s, t}; two routes s-u1-m and
# s-u2-m meet again at m; then m -> w -> {la, lb}.  Taxa c and d hang below
# k, which t reaches directly and w reaches too; t also reaches m.  So paths
# starting at s and at t can share the arcs (m, w) and (w, k).
_PAIR_NET = Digraph(
    [("rho", "s"), ("rho", "t"), ("s", "u1"), ("s", "u2"), ("u1", "m"),
     ("u2", "m"), ("t", "m"), ("m", "w"), ("w", "la"), ("w", "lb"),
     ("w", "k"), ("t", "k"), ("k", "lc"), ("k", "ld")],
    {"la": "a", "lb": "b", "lc": "c", "ld": "d"})
_PAIR_TREE = Digraph(
    [("x", "y"), ("x", "z"), ("y", "a"), ("y", "b"), ("z", "c"), ("z", "d")],
    {"a": "a", "b": "b", "c": "c", "d": "d"})


def _pair_phi(**paths):
    phi = {
        ("x", "y"): ("rho", "s"),
        ("x", "z"): ("rho", "t", "k"),
        ("y", "a"): ("s", "u1", "m", "w", "la"),
        ("y", "b"): ("s", "u1", "m", "w", "lb"),
        ("z", "c"): ("k", "lc"),
        ("z", "d"): ("k", "ld"),
    }
    for arc, path in paths.items():
        phi[tuple(arc.split("_"))] = path
    return phi


def test_check_embedding_accepts_siblings_sharing_a_long_prefix():
    # (y, a) and (y, b) share s-u1-m-w, three arcs, and then split at w.
    assert check_embedding(_pair_phi(), _PAIR_TREE, _PAIR_NET)


def test_check_embedding_rejects_siblings_that_split_and_rejoin():
    # (y, a) and (y, b) split at s and meet again on the arc (m, w).
    phi = _pair_phi(y_b=("s", "u2", "m", "w", "lb"))
    assert not check_embedding(phi, _PAIR_TREE, _PAIR_NET)
    assert check_embedding(_pair_phi(y_a=("s", "u2", "m", "w", "la"),
                                     y_b=("s", "u2", "m", "w", "lb")),
                           _PAIR_TREE, _PAIR_NET)


@pytest.mark.parametrize("paths", [
    # cousins: (x, z)'s path ends at m, so (z, c) and (y, a) both use (m, w)
    {"x_z": ("rho", "t", "m"), "z_c": ("m", "w", "k", "lc"),
     "z_d": ("m", "w", "k", "ld")},
    # uncle and nephew: (x, z) runs s-u2-m-w-k and (y, a) m-w-la; the tail
    # of (x, z) is an ancestor of (y, a), yet neither arc's head reaches
    # the other arc's tail.
    {"x_z": ("rho", "s", "u2", "m", "w", "k"), "x_y": ("rho", "t", "m"),
     "y_a": ("m", "w", "la"), "y_b": ("m", "w", "lb")},
], ids=["cousins", "uncle"])
def test_check_embedding_rejects_unrelated_tails_sharing_an_arc(paths, monkeypatch):
    # Only a pair with different tails that shares an arc builds the index.
    built = _count_tree_indexes(monkeypatch)
    phi = _pair_phi(**paths)
    assert not check_embedding(phi, _PAIR_TREE, _PAIR_NET)
    assert built["calls"] == 1


def _count_tree_indexes(monkeypatch) -> Counter:
    """A counter of the `TreeIndex` builds that `check_embedding` makes."""
    built = Counter()

    def counting(tree):
        built["calls"] += 1
        return TreeIndex(tree)

    monkeypatch.setattr(solver, "TreeIndex", counting)
    return built


# A tree whose vertex w has two parents, y and z, over a network in which
# the paths of (y, w) and (z, w) meet at m without sharing an arc.
_TWO_PARENTS_NET = Digraph(
    [("rho", "s"), ("rho", "t"), ("s", "m"), ("t", "m"), ("m", "la"), ("m", "lb")],
    {"la": "a", "lb": "b"})
_TWO_PARENTS_TREE = Digraph(
    [("x", "y"), ("x", "z"), ("y", "w"), ("z", "w"), ("w", "a"), ("w", "b")],
    {"a": "a", "b": "b"})
_TWO_PARENTS_PHI = {
    ("x", "y"): ("rho", "s"), ("x", "z"): ("rho", "t"), ("y", "w"): ("s", "m"),
    ("z", "w"): ("t", "m"), ("w", "a"): ("m", "la"), ("w", "b"): ("m", "lb")}


def test_check_embedding_requires_an_out_tree(monkeypatch):
    # Refused with `TreeIndex`'s message, even where no pair with different
    # tails shares an arc, so that the index is never built.
    built = _count_tree_indexes(monkeypatch)
    for tree, phi, network, message in [
        (Digraph(list(_PAIR_TREE.arcs) + [("y", "c")], {"c": "c"}),
         _pair_phi(y_c=("s", "u1", "m", "w", "k", "lc")), _PAIR_NET,
         "not an out-tree: a vertex has two parents"),
        (_TWO_PARENTS_TREE, _TWO_PARENTS_PHI, _TWO_PARENTS_NET,
         "not an out-tree: a vertex has two parents"),
        (Digraph(_PAIR_TREE.arcs, _PAIR_TREE.labels, vertices=["lone"]), _pair_phi(),
         _PAIR_NET, "graph has 2 roots, expected 1"),
        (Digraph(list(_PAIR_TREE.arcs) + [("p", "q"), ("q", "p")], _PAIR_TREE.labels),
         _pair_phi(), _PAIR_NET, "not an out-tree: cyclic"),
    ]:
        with pytest.raises(InputError) as want:
            TreeIndex(tree)
        assert str(want.value) == message
        with pytest.raises(InputError) as got:
            check_embedding(phi, tree, network)
        assert str(got.value) == message
    assert built["calls"] == 0


def _all_pairs_check_embedding(phi, tree, network):
    """The all-pairs checker that `check_embedding` replaced, kept as it was
    for reference: per-arc checks, then every pair of tree arcs, with one
    `reaches` test in each direction for arcs whose tails differ."""
    tree_arcs = set(tree.arcs)
    for a in phi:
        if a not in tree_arcs:
            raise InputError(f"embedded arc {a!r} is not a tree arc")
    for (x, y), path in phi.items():
        _require_path(network, path)
        for out in tree.out_arcs(y):
            if out not in phi:
                raise InputError(f"domain not downward closed: missing {out!r}")
    for (x, y), path in phi.items():
        taxon = tree.label_of(y)
        if taxon is not None:
            if network.label_of(path[-1]) != taxon:
                return False
        for out in tree.out_arcs(y):
            if phi[out][0] != path[-1]:
                return False
    items = sorted(phi.items())
    for i, (a1, p1) in enumerate(items):
        for a2, p2 in items[i + 1:]:
            arcs1 = set(zip(p1, p1[1:]))
            arcs2 = set(zip(p2, p2[1:]))
            if a1[0] == a2[0]:
                if not eventually_arc_disjoint(network, p1, p2):
                    return False
            elif not reaches(tree, a1, a2) and not reaches(tree, a2, a1):
                if arcs1 & arcs2:
                    return False
    return True


def _outcome(check, phi, tree, network):
    try:
        return check(phi, tree, network)
    except Exception as exc:  # compared by type and message against the reference
        return type(exc), str(exc)


def _reachable(d, u, v):
    return u == v or reaches(d, u, v)


def _random_path(network, start, end, rng):
    """A uniformly chosen next hop at each step of a path from start to end."""
    path = [start]
    while path[-1] != end:
        path.append(rng.choice([w for w in network.children(path[-1])
                                if _reachable(network, w, end)]))
    return tuple(path)


def _mutations(phi, network, rng):
    """Corrupted copies of a valid embedding `phi`: a path swapped with a
    sibling's, paths rerouted between the same ends or off to a leaf, paths
    cut short by one vertex, a path run backwards (not a path), a reversed
    arc as an extra key (not a tree arc), a path through a vertex the
    network lacks, and an empty path."""
    arcs = sorted(phi)
    siblings: dict = {}
    for a in arcs:
        siblings.setdefault(a[0], []).append(a)
    out = []
    for group in siblings.values():
        if len(group) > 1:
            a, b = rng.sample(group, 2)
            out.append({**phi, a: phi[b], b: phi[a]})
    for a in arcs:
        out.append({**phi, a: _random_path(network, phi[a][0], phi[a][-1], rng)})
    for _ in range(3):
        out.append({a: _random_path(network, p[0], p[-1], rng) if rng.random() < 0.5
                    else p for a, p in phi.items()})
    for a in rng.sample(arcs, min(3, len(arcs))):
        leaf = rng.choice([v for v in network.leaves if _reachable(network, phi[a][0], v)])
        out.append({**phi, a: _random_path(network, phi[a][0], leaf, rng)})
        out.append({**phi, a: phi[a][:-1] or phi[a]})
    out.append({**phi, arcs[0]: phi[arcs[0]][::-1]})
    a = rng.choice(arcs)
    out.append({**phi, a[::-1]: phi[a]})
    absent = "absent"
    assert absent not in network
    out.append({**phi, a: phi[a][:1] + (absent,) + phi[a][1:]})
    out.append({**phi, a: ()})
    return out


def test_check_embedding_matches_the_all_pairs_reference(suite, monkeypatch):
    # A valid witness shares arcs only between siblings, so checking it
    # builds no tree index; the mutants do build some.
    built = _count_tree_indexes(monkeypatch)
    rng = random.Random(5)
    cases = [(n, t, ext) for _, n, t, ext in suite]
    cases += [(g.network, g.tree, None) for g in (
        generate(GeneratorParams(8, 2, 0.4, seed, "yes-biased")) for seed in range(12))]
    checked = rejected = raised = 0
    for n, t, ext in cases:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        if not result.displayed:
            continue
        before = built["calls"]
        network, phi = reconstruct_witness(result)
        assert built["calls"] == before
        for mutant in [phi] + _mutations(phi, network, rng):
            want = _outcome(_all_pairs_check_embedding, mutant, inst.tree, network)
            got = _outcome(check_embedding, mutant, inst.tree, network)
            assert got == want, (mutant, want, got)
            checked += 1
            rejected += want is False
            raised += type(want) is tuple and want[0] is InputError
    assert checked > 3000 and rejected > 1000 and raised > 100
    assert built["calls"] > 10


def test_solver_matches_hand_answers(net_a, tree_b, tree_c, tree_d):
    answers = {}
    for name, t in [("b", tree_b), ("c", tree_c), ("d", tree_d)]:
        answers[name] = solve(preprocess(net_a, t)).displayed
    assert answers == {"b": True, "c": False, "d": True}


def test_decision_only_mode_agrees_and_blocks_witnesses(suite, net_a, tree_b):
    cases = [(n, t, ext) for _, n, t, ext in suite] + _polytomy_cases()
    for n, t, ext in cases:
        inst = preprocess(n, t, ext)
        full = solve(inst)
        lean = solve(inst, keep_tables=False)
        assert (lean.displayed, lean.accepting_key, lean.stats) == (
            full.displayed, full.accepting_key, full.stats)
        assert lean.tables is None
    lean = solve(preprocess(net_a, tree_b), keep_tables=False)
    assert lean.displayed
    with pytest.raises(InputError):
        reconstruct_witness(lean)


def test_witness_is_checkable_and_anchored(net_a, tree_b, tree_d):
    for t in (tree_b, tree_d):
        inst = preprocess(net_a, t)
        result = solve(inst)
        network, emb = reconstruct_witness(result)
        assert set(emb) == set(inst.tree.arcs)
        assert check_embedding(emb, inst.tree, network)
        top = (inst.tree_root, inst.tree.children(inst.tree_root)[0])
        assert emb[top][0] == inst.network_root


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _caterpillar(leaves):
    arcs = [(f"s{i}", f"s{i + 1}") for i in range(leaves - 1)]
    arcs += [(f"s{i}", f"p{i}") for i in range(leaves - 1)]
    labels = {f"p{i}": f"t{i}" for i in range(leaves - 1)}
    labels[f"s{leaves - 1}"] = f"t{leaves - 1}"
    return Digraph(arcs, labels)


@contextmanager
def _shallow_stack(monkeypatch, headroom):
    """Leave `headroom` frames above the caller and refuse any change to the
    limit: it is process-global."""

    def refuse(limit):
        raise AssertionError("the recursion limit is process-global")

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + headroom)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        yield
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(old_limit)


def test_deep_witness_replay_leaves_the_recursion_limit_alone(monkeypatch):
    # A caterpillar of 300 leaves displays itself; its extension is a path
    # of about 600 vertices, far deeper than the headroom left below.
    caterpillar = _caterpillar(300)
    inst = preprocess(caterpillar, caterpillar)
    result = solve(inst)
    headroom = 100
    gamma = inst.extension.gamma
    depth = {gamma.root(): 0}
    for v in gamma.topological_order():
        for c in gamma.children(v):
            depth[c] = depth[v] + 1
    assert max(depth.values()) > 2 * headroom
    with _shallow_stack(monkeypatch, headroom):
        _, emb = reconstruct_witness(result)
    assert set(emb) == set(inst.tree.arcs)


def test_deep_certificate_is_checked_without_recursion(monkeypatch):
    # The reduced tree of a 2000-leaf caterpillar is 2000 levels deep, so the
    # tree index and the pair pass of `check_embedding` must not recurse.
    caterpillar = _caterpillar(2000)
    inst = preprocess(caterpillar, caterpillar)
    result = solve(inst)
    with _shallow_stack(monkeypatch, 100):
        network, emb = reconstruct_witness(result)
        accepted = check_embedding(emb, inst.tree, network)
    assert accepted and set(emb) == set(inst.tree.arcs)


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


def _largest_bundle(result, v):
    """The most tree arcs that one signature of `v`'s tables sends to a
    single network arc, recounted from the kept tables."""
    tables = result.tables
    keys = [*tables["above"][v], *tables["below"][v]]
    return max((max(Counter(b for _, b in result.signature(k)).values()) for k in keys),
               default=0)


def test_stats_equal_a_recount_of_the_tables(suite):
    for _, n, t, ext in suite:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        above, below = result.tables["above"], result.tables["below"]
        assert [s.vertex for s in result.stats] == list(above)
        for s in result.stats:
            v = s.vertex
            assert s == VertexStats(
                vertex=v, cells_above=len(above[v]), cells_below=len(below[v]))


def test_cells_keep_only_the_tags_a_step_made(suite):
    """Every cell of a join shares one `("join", v)` tag, and its key splits
    by the extension subtree each pair's network arc enters into keys of the
    children's above tables; a key that passes a vertex unchanged keeps the
    tag it has below."""
    cases = [(n, t, ext) for _, n, t, ext in suite] + _polytomy_cases()
    joined = passed = 0
    for n, t, ext in cases:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        above, below = result.tables["above"], result.tables["below"]
        gamma = inst.extension.gamma
        index = TreeIndex(gamma)
        for v in above:
            qs = gamma.children(v)
            if len(qs) > 1:
                tags = list(below[v].values())
                assert len({id(tag) for tag in tags}) <= 1
                assert all(tag == ("join", v) for tag in tags)
                for key in below[v]:
                    heads = [h for _, (_, h) in result.signature(key)]
                    parts = [tuple(p for p, h in zip(key, heads) if index.in_subtree(q, h))
                             for q in qs]
                    assert all(part in above[q] for q, part in zip(qs, parts))
                    assert sorted(p for part in parts for p in part) == list(key)
                    joined += 1
            for key, tag in above[v].items():
                if key in below[v]:
                    assert tag is below[v][key]
                    passed += 1
    assert joined and passed


# -- the string-keyed kernel, kept as the reference ---------------------------


def _signature_order(key):
    """Sort a signature by its domain first, then by the pairs themselves."""
    return (tuple(a for a, _ in key), key)


def _max_bundle(table) -> int:
    """The most tree arcs any one signature of `table` sends to a single arc."""
    out = 0
    for key in table:
        counts: dict = {}
        for _, b in key:
            counts[b] = counts.get(b, 0) + 1
        out = max(out, max(counts.values(), default=0))
    return out


def _reference_solve(inst, *, full=False):
    """`solve` as it was before signatures became int tuples, kept as it was
    for reference: signatures are sorted tuples of (tree arc, network arc)
    pairs, tables are sorted by `_signature_order`, and `_max_bundle`
    recounts each above table.  Like `solve`, it stops at the first empty
    above table, unless `full` asks for the whole sweep.  Returns the
    verdict, the stats, the largest bundle of each vertex's tables and the
    above tables."""
    n, t, gamma = inst.network, inst.tree, inst.extension.gamma
    rho_n, rho_t = inst.network_root, inst.tree_root
    if gamma.root() != rho_n:
        raise InternalError("extension root differs from the network root")
    t_leaf_of = t.leaf_by_taxon
    top_arc = (rho_t, t.children(rho_t)[0])

    above: dict[str, dict] = {}
    below: dict[str, dict] = {}
    bundle_above: dict[str, int] = {}  # _max_bundle(above[v]), counted once
    bundles: dict[str, int] = {}
    stats: list[VertexStats] = []

    for v in reversed(inst.extension._valid_index().order):  # `solve`'s sweep
        if v == rho_n:
            continue
        qs = sorted(gamma.children(v))
        in_parents = sorted(n.parents(v))

        if not qs:
            taxon = n.label_of(v)
            if taxon is None or taxon not in t_leaf_of:
                raise InternalError(f"network leaf {v!r} has no matching tree leaf")
            tl = t_leaf_of[taxon]
            (tp,) = t.parents(tl)
            (u,) = in_parents
            above[v] = {(((tp, tl), (u, v)),): ("leaf",)}
            below[v] = {}
            bundle_below = 0
        else:
            if len(qs) == 1:
                below_v = above[qs[0]]
                bundle_below = bundle_above[qs[0]]
            elif len(qs) == 2:
                q1, q2 = qs
                arcs1 = {a for k1 in above[q1] for a, _ in k1}
                if any(a in arcs1 for k2 in above[q2] for a, _ in k2):
                    raise InternalError(
                        "sibling signatures share a tree arc; "
                        "the extension cannot be canonical")
                keys2 = sorted(above[q2], key=_signature_order)
                below_v = {}
                for k1 in sorted(above[q1], key=_signature_order):
                    for k2 in keys2:
                        below_v.setdefault(tuple(sorted(k1 + k2)),
                                           ("join", q1, k1, q2, k2))
                # The cut arcs above q1 and above q2 head into disjoint
                # subtrees of gamma, so no network arc bundles arcs of both.
                bundle_below = (max(bundle_above[q1], bundle_above[q2])
                                if below_v else 0)
            else:
                raise InternalError(
                    "extension vertex with more than two children over a binary host")

            above_v: dict = {}
            for key in sorted(below_v, key=_signature_order):
                bundle = tuple(a for a, b in key if b[0] == v)
                if not bundle:
                    above_v.setdefault(key, ("up", v, key))
                    continue
                y, *others = {a[0] for a in bundle}
                if others:
                    continue
                for u in in_parents:
                    extended = tuple((a, (u, v) if a in bundle else b)
                                     for a, b in key)
                    above_v.setdefault(extended, ("extend", v, key, bundle, u))
                if y != rho_t and len(bundle) == t.out_degree(y):
                    (x,) = t.parents(y)
                    rest = [p for p in key if p[0] not in bundle]
                    for u in in_parents:
                        grown = tuple(sorted(rest + [((x, y), (u, v))]))
                        above_v.setdefault(grown, ("grow", v, key, (x, y), u))
            above[v] = above_v
            below[v] = below_v

        bundle_above[v] = _max_bundle(above[v])
        stats.append(VertexStats(
            vertex=v,
            cells_above=len(above[v]),
            cells_below=len(below[v]),
        ))
        bundles[v] = max(bundle_above[v], bundle_below)
        if not (above[v] or full):
            break

    final = n.children(rho_n)[0]
    accepting = [k for k in above.get(final, {}) if len(k) == 1 and k[0][0] == top_arc]
    return bool(accepting), stats, bundles, above


# -- the stretch gadget, kept as the reference for soft polytomies ------------


@dataclass(frozen=True)
class _ReferenceStretch:
    """The fan-out of `vertex` was replaced by a gadget: `arcs` run from
    `vertex` down to its old children, through the new vertices `path`
    (listed in the order they are chained below `vertex` in the extension)."""
    vertex: str
    path: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]

    def apply(self, host: Digraph) -> Digraph:
        arcs = [a for a in host.arcs if a[0] != self.vertex]
        return Digraph(arcs + list(self.arcs), host.labels, host.vertices)

    def carry(self, ext: TreeExtension) -> TreeExtension:
        """The extension over the stretched host: the old children of
        `vertex` hang below the end of the new chain."""
        host = self.apply(ext.host)
        chain = [self.vertex, *self.path]
        arcs = [a for a in ext.gamma.arcs if a[0] != self.vertex]
        arcs += list(zip(chain, chain[1:]))
        arcs += [(chain[-1], c) for c in ext.gamma.children(self.vertex)]
        return TreeExtension(host, Digraph(arcs, vertices=host.vertices))


def _reference_stretch(host: Digraph, v: str) -> _ReferenceStretch:
    """The step replacing the fan-out of an out-degree-d vertex by a gadget,
    as the reduction did before `solve` resolved polytomies itself.

    A triangular splitter (every binary fan-out over d exits embeds in it)
    feeds a (d-1) x (d-1) grid of comparator blocks that undo the leaf order
    the splitter forces.  The splitter has vertices u(i, j) in rows i = 2..d-1
    at positions j = 1..i, pass-through vertices p(i, j) inside the triangle
    and row-d collectors x(j); each comparator block w(i, j, 1..4) has two
    entry vertices and two reticulated exits.
    """
    if v not in host:
        raise InputError(f"unknown vertex {v!r}")
    d = host.out_degree(v)
    if d < 3:
        raise RewriteError(f"stretch needs out-degree >= 3 at {v!r}")
    # Every gadget vertex, in the order it is chained below `v`.
    slots = []
    for i in range(2, d):
        slots += [("u", i, j) for j in range(1, i + 1)]
        slots += [("p", i, j) for j in range(2, i)]
    slots += [("x", j) for j in range(2, d)]
    slots += [("w", i, j, k) for i in range(1, d) for j in range(1, d) for k in range(1, 5)]
    name = dict(zip(slots, host.fresh_ids(len(slots))))

    def u(i, j):
        return name["u", i, j]

    def x(j):
        return name["x", j]

    def w(i, j, k):
        return name["w", i, j, k]

    arcs = [(v, u(2, 1)), (v, u(2, 2))]
    for i in range(2, d - 1):
        arcs += [(u(i, 1), u(i + 1, 1)), (u(i, 1), u(i + 1, 2))]
        arcs += [(u(i, i), u(i + 1, i)), (u(i, i), u(i + 1, i + 1))]
    for i in range(3, d):
        for j in range(2, i):
            p = name["p", i, j]
            right = x(j) if i + 1 == d else u(i + 1, j)
            down = x(j + 1) if i + 1 == d else u(i + 1, j + 1)
            arcs += [(u(i, j), p), (p, right), (p, down)]
    arcs += [(u(d - 1, 1), w(1, 1, 1)), (u(d - 1, 1), x(2))]
    arcs += [(u(d - 1, d - 1), x(d - 1)), (u(d - 1, d - 1), w(1, d - 1, 2))]
    arcs += [(x(j), w(1, j - 1, 2)) for j in range(2, d)]
    for i in range(1, d):
        for j in range(1, d):
            arcs += [(w(i, j, entry), w(i, j, exit)) for entry in (1, 2) for exit in (3, 4)]
        arcs += [(w(i, j, 4), w(i, j + 1, 1)) for j in range(1, d - 1)]
    for i in range(1, d - 1):
        arcs.append((w(i, 1, 3), w(i + 1, 1, 1)))
        arcs.append((w(i, d - 1, 4), w(i + 1, d - 1, 2)))
        arcs += [(w(i, j, 3), w(i + 1, j - 1, 2)) for j in range(2, d)]
    children = host.children(v)
    arcs += [(w(d - 1, j, 3), children[j - 1]) for j in range(1, d)]
    arcs.append((w(d - 1, d - 1, 4), children[d - 1]))
    return _ReferenceStretch(v, tuple(name.values()), tuple(arcs))


def _reference_preprocess(n, t, ext=None):
    """`preprocess` as it was with the stretch gadget: prune, stretch every
    out-degree-3+ vertex while carrying the extension, then in-split, attach
    the roots and canonicalize, as `preprocess` does on the binary result."""
    if ext is None:
        ext = default_extension(n)
    if t.taxa != n.taxa:
        ext = update_extension(ext, prune_to_leafset(n, t.taxa)[1])
    for v in ext.host.vertices:
        if ext.host.out_degree(v) >= 3:
            ext = _reference_stretch(ext.host, v).carry(ext)
    return preprocess(ext.host, t, ext)


# (leaves, polytomy rate, seed, raw out-degree) of `GeneratorParams(leaves, 2,
# rate, seed, "yes-biased")`: reduced widths 6-8, beyond the suite's 12 arcs.
# On (8, 0.4, 9, 3), a grow makes a cell whose largest bundle, 2, lies in
# the rest of its signature, beside the grown pair's 1.
_POLYTOMY_CASES = (
    (8, 0.4, 9, 3),
    (9, 0.5, 1, 5), (9, 0.5, 2, 4), (9, 0.5, 3, 3), (9, 0.5, 6, 4),
    (9, 0.5, 12, 3), (9, 0.5, 13, 4), (9, 0.5, 16, 4), (9, 0.5, 22, 4),
    (9, 0.5, 31, 4), (9, 0.5, 38, 3), (11, 0.6, 6, 4), (11, 0.6, 12, 4),
    (11, 0.6, 18, 5),
)


def _twin(tree):
    """The tree with the taxa of its two first leaves swapped, which usually
    makes a no-instance."""
    (x, a), (y, b) = sorted(tree.labels.items())[:2]
    return Digraph(tree.arcs, {**tree.labels, x: b, y: a})


def _polytomy_cases():
    """Each generated instance with its own tree and with its `_twin`."""
    out = []
    for leaves, rate, seed, degree in _POLYTOMY_CASES:
        g = generate(GeneratorParams(leaves, 2, rate, seed, "yes-biased"))
        assert g.network.max_out_degree == degree
        out += [(g.network, g.tree, None), (g.network, _twin(g.tree), None)]
    return out


def test_kernel_matches_the_string_keyed_reference(suite):
    # The string-keyed kernel needs a binary network, so both kernels run on
    # the gadget's reduction; on it `_resolutions` never runs.
    cases = [(n, t, ext) for _, n, t, ext in suite] + _polytomy_cases()
    verdicts = Counter()
    for n, t, ext in cases:
        inst = _reference_preprocess(n, t, ext)
        result = solve(inst)
        displayed, stats, bundles, above = _reference_solve(inst)
        assert (result.displayed, result.stats) == (displayed, stats)
        assert bundles == {v: _largest_bundle(result, v) for v in bundles}
        for v, table in result.tables["above"].items():
            assert set(map(result.signature, table)) == set(above[v])
        verdicts[result.displayed] += 1
        if result.displayed:
            accepting = result.signature(result.accepting_key)
            assert len(accepting) == 1 and accepting in above[result.final_vertex]
            network, phi = reconstruct_witness(result)
            assert network == inst.network
            assert check_embedding(phi, inst.tree, network)
    assert verdicts[True] > 200 and verdicts[False] > 100


# `GeneratorParams(leaves, reticulations, rate, seed, "unlabeled")` rows whose
# seeds 0-39 are all no-instances.
_UNLABELED_CONFIGS = ((6, 2, 0.0), (8, 3, 0.0), (10, 4, 0.0), (12, 4, 0.0),
                      (8, 2, 0.2), (8, 2, 0.3))


def test_the_sweep_stops_at_its_first_empty_table(suite):
    # The reference's full sweep shows what the stop skips: every table
    # above the first empty one, up to the final one, is empty.  Tables of
    # other vertices later in the sweep need not be.
    cases = [(n, t, ext) for _, n, t, ext in suite]
    for params in _UNLABELED_CONFIGS:
        for seed in range(40):
            g = generate(GeneratorParams(*params, seed, "unlabeled"))
            cases.append((g.network, g.tree, None))
    stopped = Counter()
    for n, t, ext in cases:
        inst = _reference_preprocess(n, t, ext)
        result = solve(inst, keep_tables=False)
        displayed, stats, _, above = _reference_solve(inst, full=True)
        assert result.displayed == displayed
        assert result.stats == stats[:len(result.stats)]
        assert all(s.cells_above for s in result.stats[:-1])
        early = result.stats[-1].cells_above == 0
        assert early == (not result.displayed)
        assert early or len(result.stats) == len(stats)
        if early:
            parent, v = inst.extension._valid_index().parent, result.stats[-1].vertex
            while v != inst.network_root:
                assert not above[v]
                v = parent[v]
        stopped[early] += 1
    assert stopped[True] >= 340 and stopped[False] >= 150


def test_sibling_tables_share_no_tree_arc_on_any_valid_extension():
    # The join is a plain product because a tree arc enters a table only
    # above the network leaves of all its taxa.  That needs a valid
    # extension, not a canonical one: hand-built instances carry lifted
    # random chains, which are valid and mostly not canonical.
    rng = random.Random(13)
    joins, non_canonical = 0, 0
    for seed in range(120):
        for params in ((5, 2, 0.3, seed, "yes-biased"), (7, 3, 0.3, seed, "unlabeled"),
                       (8, 2, 0.5, seed, "yes-biased")):
            g = generate(GeneratorParams(*params))
            inst = preprocess(g.network, g.tree)
            ext = _lifted(_chain_extension(inst.network, rng), rng, 3 * len(inst.network))
            non_canonical += bool(ext.canonicality_violations())
            result = solve(AugmentedInstance(inst.tree, ext, inst.trace))
            above = result.tables["above"]
            for v, _, _ in result.stats:
                qs = ext.gamma.children(v)
                if len(qs) < 2:
                    continue
                joins += 1
                arc_sets = [{a for key in above[q] for a, _ in result.signature(key)}
                            for q in qs]
                assert sum(map(len, arc_sets)) == len(set().union(*arc_sets)), v
    assert joins >= 1000 and non_canonical >= 250


# `GeneratorParams(leaves, reticulations, rate, seed, target)` with a raw
# out-degree 3-6 vertex and more arcs than the oracle's cap of 16.  The three
# 20-leaf rows are the degree-5 instances the benchmark leaves out.
_DIFFERENTIAL_CASES = (
    (9, 2, 0.5, 3, "yes-biased"), (9, 2, 0.5, 8, "unlabeled"),
    (9, 2, 0.5, 2, "yes-biased"), (9, 2, 0.5, 6, "unlabeled"),
    (9, 2, 0.5, 1, "yes-biased"), (9, 2, 0.5, 19, "unlabeled"),
    (20, 3, 0.4, 5, "yes-biased"), (20, 3, 0.4, 7, "yes-biased"),
    (20, 3, 0.4, 8, "yes-biased"),
    (9, 2, 0.7, 141, "yes-biased"), (9, 2, 0.7, 66, "unlabeled"),
)


def _assert_built_as_checked(g):
    """`g`, a witness network built from sorted maps, is the graph that the
    checking constructor builds from its arcs, down to the order of every
    map."""
    checked = Digraph(g.arcs, g.labels, g.vertices)
    assert g == checked
    for field in ("_parents", "_children", "_labels"):
        assert list(getattr(g, field).items()) == list(getattr(checked, field).items())


def test_native_polytomies_match_the_gadget():
    degrees, verdicts = Counter(), Counter()
    for params in _DIFFERENTIAL_CASES:
        g = generate(GeneratorParams(*params))
        assert len(g.network.arcs) > 16
        degrees[g.network.max_out_degree] += 1
        for tree in (g.tree, _twin(g.tree)):
            result = solve(preprocess(g.network, tree))
            gadget = solve(_reference_preprocess(g.network, tree), keep_tables=False)
            assert result.displayed == gadget.displayed, params
            verdicts[result.displayed] += 1
            if result.displayed:
                network, phi = reconstruct_witness(result)
                assert check_embedding(phi, result.instance.tree, network)
                assert all(len(path) > 1 for path in phi.values())
                _assert_built_as_checked(network)
    assert set(degrees) == {3, 4, 5, 6}
    assert verdicts[True] >= 8 and verdicts[False] >= 6


# Cells (above plus below, summed over the sweep) that the gadget's reduction
# builds on the three 20-leaf degree-5 rows above, at reduced widths 11, 10
# and 9.  The native sweep must build at most a twentieth of each.
_GADGET_CELLS = {5: 284_409, 7: 562_630, 8: 347_727}


def test_native_polytomies_cost_a_twentieth_of_the_gadget():
    for seed, gadget_cells in _GADGET_CELLS.items():
        g = generate(GeneratorParams(20, 3, 0.4, seed, "yes-biased"))
        assert g.network.max_out_degree == 5
        result = solve(preprocess(g.network, g.tree), keep_tables=False)
        cells = sum(s.cells_above + s.cells_below for s in result.stats)
        assert result.displayed and cells <= gadget_cells // 20, (seed, cells)


# -- the subset lattice, kept as the reference for `_resolutions` -------------


def _reference_resolutions(bundle: tuple[int, ...], shift: int, mask: int,
                           t_tail: list[str], t_fanout: dict[str, int],
                           t_parent_pair: dict[str, int],
                           rho_t: str) -> list[tuple[tuple[int, ...], tuple]]:
    """What the pairs on the out-arcs of a soft polytomy v can become on
    its in-arc, each with a binary resolution of v that yields it.

    `bundle` holds the pairs of a signature on out-arcs of v.  A binary
    resolution of v is a binary tree rooted at v whose leaves are the
    occupied out-arcs; each inner node has one in-arc, and the extend/grow
    step applies there to the tree arcs on its two out-arcs.  `reach[A]`
    maps each set of tree arcs that a resolution of the subset A of
    occupied out-arcs can leave on the in-arc of its root to one such
    resolution, its plan.  A plan is an out-arc id at a leaf and
    `(ids, grown, left, right)` at a node, `ids` being the tree arcs on its
    in-arc; `_replay` unfolds it.
    """
    occupied = sorted({p & mask for p in bundle})
    reach: list[dict] = [{} for _ in range(1 << len(occupied))]
    for i, b in enumerate(occupied):
        reach[1 << i] = {tuple(p >> shift for p in bundle if p & mask == b): b}
    for subset in range(3, 1 << len(occupied)):
        low = subset & -subset
        if subset == low:
            continue
        out = reach[subset]
        others = subset ^ low
        part = others
        while True:
            # every split of `subset` once: `left` holds its lowest out-arc
            left = part | low
            if left != subset:
                for ids1, plan1 in reach[left].items():
                    for ids2, plan2 in reach[subset ^ left].items():
                        ids = tuple(sorted(ids1 + ids2))
                        y = t_tail[ids[0]]
                        if any(t_tail[i] != y for i in ids):
                            continue
                        if ids not in out:
                            out[ids] = (ids, False, plan1, plan2)
                        if y != rho_t and len(ids) == t_fanout[y]:
                            grown = (t_parent_pair[y] >> shift,)
                            if grown not in out:
                                out[grown] = (grown, True, plan1, plan2)
            if not part:
                break
            part = (part - 1) & others
    return list(reach[-1].items())


def _compare_with_the_lattice(bundle, shift, mask, t_tail, t_fanout, t_parent_pair,
                              rho_t):
    """Assert that the merge and the lattice agree on one bundle: the same
    outcomes in the same order, each plan a binary resolution of every
    occupied out-arc that yields its outcome, and on a bundle whose tree
    arcs share one tail, the lattice's plans.  Returns whether the tree
    arcs share one tail."""
    args = (shift, mask, t_tail, t_fanout, t_parent_pair, rho_t)
    got = _resolutions(bundle, *args)
    want = _reference_resolutions(tuple(bundle), *args)
    assert [ids for ids, _ in got] == [ids for ids, _ in want], bundle
    assert len(got) <= 2
    groups: dict = {}
    for p in bundle:
        groups[p & mask] = groups.get(p & mask, ()) + (p >> shift,)

    def unfold(plan):
        """The tree arcs that `plan` leaves on its in-arc, each node checked
        by the extend/grow rule; its out-arcs go to `leaves`."""
        if isinstance(plan, int):
            leaves.append(plan)
            return groups[plan]
        ids, grown, left, right = plan
        merged = tuple(sorted(unfold(left) + unfold(right)))
        y = t_tail[merged[0]]
        assert {t_tail[i] for i in merged} == {y}
        if grown:
            assert y != rho_t and len(merged) == t_fanout[y]
            assert ids == (t_parent_pair[y] >> shift,)
        else:
            assert ids == merged
        return ids

    for ids, plan in got:
        leaves = []
        assert unfold(plan) == ids
        assert sorted(leaves) == sorted(groups)
    single_tail = len({t_tail[p >> shift] for p in bundle}) == 1
    if single_tail:
        assert got == want, bundle
    return single_tail


# `GeneratorParams(leaves, reticulations, rate)`, each with seeds 0-29 and
# with both the tree and its `_twin`.  The lattice walks 3^s splits of a
# bundle on s out-arcs, so it takes the bundles with s <= 10 only.
_MERGE_CONFIGS = ((8, 1, 0.6), (10, 2, 0.5), (12, 3, 0.5), (16, 3, 0.7),
                  (20, 3, 0.4), (25, 4, 0.8))


def test_merging_on_tails_matches_the_lattice(monkeypatch):
    met = []

    def spy(*args):
        met.append(args)
        return _resolutions(*args)

    monkeypatch.setattr("stc.solver._resolutions", spy)
    compared, single_tail, witnesses = 0, 0, 0
    for leaves, reticulations, rate in _MERGE_CONFIGS:
        for seed in range(30):
            g = generate(GeneratorParams(leaves, reticulations, rate, seed, "yes-biased"))
            for tree in (g.tree, _twin(g.tree)):
                met.clear()
                result = solve(preprocess(g.network, tree))
                if result.displayed:
                    reconstruct_witness(result)
                    witnesses += 1
                for bundle, shift, mask, *rest in met:
                    if len({p & mask for p in bundle}) <= 10:
                        compared += 1
                        single_tail += _compare_with_the_lattice(bundle, shift, mask, *rest)
    assert compared > 2000 and single_tail > 500 and witnesses > 200


def _random_out_tree(rng, inner):
    """The arcs of a random out-tree below a root "r" of out-degree 1, with
    `inner` vertices of out-degree 2 to 4 below it."""
    children = {"v0": []}
    leaves = ["v0"]
    for _ in range(inner):
        y = leaves.pop(rng.randrange(len(leaves)))
        for _ in range(rng.randint(2, 4)):
            c = f"v{len(children)}"
            children[c] = []
            children[y].append(c)
            leaves.append(c)
    return sorted([("r", "v0")] + [(y, c) for y, cs in children.items() for c in cs])


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_merging_random_bundles_matches_the_lattice(rng, inner):
    arcs = _random_out_tree(rng, inner)
    t_tail = [x for x, _ in arcs]
    out_arcs: dict = {}
    for i, (x, y) in enumerate(arcs):
        out_arcs.setdefault(x, []).append(i)
    shift, mask = 7, (1 << 7) - 1
    t_fanout = {y: len(out_arcs.get(y, ())) for _, y in arcs}
    t_fanout["r"] = 1
    t_parent_pair = {y: i << shift for i, (_, y) in enumerate(arcs)}
    # A frontier of the subtree below a random inner vertex, as a signature
    # may hold it, perhaps with an arc dropped or a stray group added.
    top = rng.choice(sorted(out_arcs.keys() - {"r"}))
    frontier = list(out_arcs[top])
    for _ in range(rng.randrange(4)):
        deeper = [i for i in frontier if arcs[i][1] in out_arcs]
        if deeper:
            i = rng.choice(deeper)
            frontier.remove(i)
            frontier += out_arcs[arcs[i][1]]
    if rng.random() < 0.2:
        frontier.remove(rng.choice(frontier))
    by_tail: dict = {}
    for i in frontier:
        by_tail.setdefault(t_tail[i], []).append(i)
    groups = []
    for ids in by_tail.values():
        rng.shuffle(ids)
        cuts = sorted(rng.sample(range(1, len(ids)), rng.randrange(len(ids))))
        groups += [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    # A signature's topmost arcs are unrelated, so a stray group hangs off a
    # vertex that is neither above nor below `top`.
    parent = {y: x for x, y in arcs}

    def line(v):  # v and the vertices above it
        return {v} | line(parent[v]) if v in parent else {v}

    unrelated = sorted(x for x in out_arcs if x not in line(top) and top not in line(x))
    if unrelated and rng.random() < 0.3:
        stray = out_arcs[rng.choice(unrelated)]
        groups.append(stray[:rng.randint(1, len(stray))])
    assume(3 <= len(groups) <= 8)
    occupied = rng.sample(range(mask + 1), len(groups))
    bundle = sorted(i << shift | b for ids, b in zip(groups, occupied) for i in ids)
    _compare_with_the_lattice(bundle, shift, mask, t_tail, t_fanout, t_parent_pair, "r")


def _star(leaves):
    return Digraph([("r", f"x{i}") for i in range(leaves)],
                   {f"x{i}": f"t{i}" for i in range(leaves)})


def _balanced(leaves):
    labels = {f"l{i}": f"t{i}" for i in range(leaves)}
    level, arcs = sorted(labels, key=lambda v: int(v[1:])), []
    while len(level) > 1:
        pairs = [level[j:j + 2] for j in range(0, len(level), 2)]
        level = []
        for pair in pairs:
            if len(pair) == 1:
                level += pair
            else:
                u = f"b{len(arcs) // 2}"
                arcs += [(u, pair[0]), (u, pair[1])]
                level.append(u)
    return Digraph(arcs, labels)


@pytest.mark.parametrize("tree", [_caterpillar, _balanced])
def test_a_200_leaf_star_resolves_into_any_tree(tree):
    # The lattice would walk 3^200 splits of the star's one bundle.
    inst = preprocess(_star(200), tree(200))
    result = solve(inst)
    assert result.displayed
    network, phi = reconstruct_witness(result)
    assert check_embedding(phi, inst.tree, network)
    _assert_built_as_checked(network)
    # the attached root g0 and the 198 inner nodes of the resolution below
    # the polytomy itself
    fresh = set(network.vertices) - set(inst.network.vertices)
    assert len(fresh) == 198
    assert sorted(v for v in network.vertices if v.startswith("g")) == sorted(
        f"g{i}" for i in range(199))
