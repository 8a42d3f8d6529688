"""Dynamic program, embedding checker, and witness reconstruction."""

import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from stc import (
    CUT_ABOVE,
    CUT_BELOW,
    Digraph,
    GeneratorParams,
    InputError,
    InternalError,
    check_embedding,
    eventually_arc_disjoint,
    generate,
    preprocess,
    reaches,
    reconstruct_witness,
    soft_display,
    solve,
)
from stc.solver import VertexStats, _post_order, _require_path


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
def test_check_embedding_rejects_unrelated_tails_sharing_an_arc(paths):
    phi = _pair_phi(**paths)
    assert not check_embedding(phi, _PAIR_TREE, _PAIR_NET)


def test_check_embedding_requires_an_out_tree():
    # Unrelated tails are told apart by pre-order numbers of `tree`.
    two_parents = Digraph(list(_PAIR_TREE.arcs) + [("y", "c")], {"c": "c"})
    phi = _pair_phi(y_c=("s", "u1", "m", "w", "k", "lc"))
    with pytest.raises(InputError, match="out-tree"):
        check_embedding(phi, two_parents, _PAIR_NET)


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
    except Exception as exc:  # compared by type against the reference
        return type(exc)


def _random_path(network, start, end, rng):
    """A uniformly chosen next hop at each step of a path from start to end."""
    path = [start]
    while path[-1] != end:
        path.append(rng.choice([w for w in network.children(path[-1])
                                if network.reachable(w, end)]))
    return tuple(path)


def _mutations(phi, network, rng):
    """Corrupted copies of a valid embedding `phi`: a path swapped with a
    sibling's, paths rerouted between the same ends or off to a leaf, paths
    cut short by one vertex, and a path run backwards (not a path)."""
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
        leaf = rng.choice([v for v in network.leaves if network.reachable(phi[a][0], v)])
        out.append({**phi, a: _random_path(network, phi[a][0], leaf, rng)})
        out.append({**phi, a: phi[a][:-1] or phi[a]})
    out.append({**phi, arcs[0]: phi[arcs[0]][::-1]})
    return out


def test_check_embedding_matches_the_all_pairs_reference(suite):
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
        phi = reconstruct_witness(result).paths
        for mutant in [phi] + _mutations(phi, inst.network, rng):
            want = _outcome(_all_pairs_check_embedding, mutant, inst.tree, inst.network)
            got = _outcome(check_embedding, mutant, inst.tree, inst.network)
            assert got == want, (mutant, want, got)
            checked += 1
            rejected += want is False
            raised += want is InputError
    assert checked > 3000 and rejected > 1000 and raised > 100


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
        emb = reconstruct_witness(result)
    assert set(emb.paths) == set(inst.tree.arcs)


def test_deep_certificate_is_checked_without_recursion(monkeypatch):
    # The reduced tree of a 2000-leaf caterpillar is 2000 levels deep, so the
    # tree index and the pair pass of `check_embedding` must not recurse.
    caterpillar = _caterpillar(2000)
    inst = preprocess(caterpillar, caterpillar)
    result = solve(inst)
    with _shallow_stack(monkeypatch, 100):
        emb = reconstruct_witness(result)
        accepted = check_embedding(emb.paths, inst.tree, inst.network)
    assert accepted and set(emb.paths) == set(inst.tree.arcs)


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


def _largest_bundle(signatures):
    return max((max(Counter(b for _, b in sig).values()) for sig in signatures),
               default=0)


def test_stats_equal_a_recount_of_the_tables(suite):
    for _, n, t, ext in suite:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        above, below = result.tables["above"], result.tables["below"]
        for s in result.stats:
            v = s.vertex
            assert s == VertexStats(
                vertex=v,
                cut_above=len(inst.extension.scan_cut(v, CUT_ABOVE)),
                cut_below=len(inst.extension.scan_cut(v, CUT_BELOW)),
                cells_above=len(above[v]),
                cells_below=len(below[v]),
                max_bundle=max(_largest_bundle(map(result.signature, above[v])),
                               _largest_bundle(map(result.signature, below[v]))),
            )


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


def _reference_solve(inst):
    """`solve` as it was before signatures became int tuples, kept as it was
    for reference: signatures are sorted tuples of (tree arc, network arc)
    pairs, tables are sorted by `_signature_order`, and `_max_bundle`
    recounts each above table.  Returns the verdict, the stats and the above
    tables."""
    n, t, gamma = inst.network, inst.tree, inst.extension.gamma
    rho_n, rho_t = inst.network_root, inst.tree_root
    if gamma.root() != rho_n:
        raise InternalError("extension root differs from the network root")
    t_leaf_of = t.leaf_by_taxon
    top_arc = (rho_t, t.children(rho_t)[0])

    above: dict[str, dict] = {}
    below: dict[str, dict] = {}
    bundle_above: dict[str, int] = {}  # _max_bundle(above[v]), counted once
    stats: list[VertexStats] = []
    cuts = inst.extension.cut_sizes()

    for v in _post_order(gamma):
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
            cut_above=cuts[v][0],
            cut_below=cuts[v][1],
            cells_above=len(above[v]),
            cells_below=len(below[v]),
            max_bundle=max(bundle_above[v], bundle_below),
        ))

    final = n.children(rho_n)[0]
    accepting = [k for k in above.get(final, {}) if len(k) == 1 and k[0][0] == top_arc]
    return bool(accepting), stats, above


# (leaves, polytomy rate, seed, raw out-degree) of `GeneratorParams(leaves, 2,
# rate, seed, "yes-biased")`: reduced widths 6-8, beyond the suite's 12 arcs.
# On (8, 0.4, 9, 3), a grow whose new cell counts 1 for its largest
# multiplicity, where the rest of its signature holds 2, changes the stats.
_POLYTOMY_CASES = (
    (8, 0.4, 9, 3),
    (9, 0.5, 1, 5), (9, 0.5, 2, 4), (9, 0.5, 3, 3), (9, 0.5, 6, 4),
    (9, 0.5, 12, 3), (9, 0.5, 13, 4), (9, 0.5, 16, 4), (9, 0.5, 22, 4),
    (9, 0.5, 31, 4), (9, 0.5, 38, 3), (11, 0.6, 6, 4), (11, 0.6, 12, 4),
    (11, 0.6, 18, 5),
)


def _polytomy_cases():
    """Each generated instance with its own tree, and with the taxa of two
    leaves swapped, which usually makes a no-instance."""
    out = []
    for leaves, rate, seed, degree in _POLYTOMY_CASES:
        g = generate(GeneratorParams(leaves, 2, rate, seed, "yes-biased"))
        assert g.network.max_out_degree == degree
        (x, a), (y, b) = sorted(g.tree.labels.items())[:2]
        swapped = Digraph(g.tree.arcs, {**g.tree.labels, x: b, y: a})
        out += [(g.network, g.tree, None), (g.network, swapped, None)]
    return out


def test_kernel_matches_the_string_keyed_reference(suite):
    cases = [(n, t, ext) for _, n, t, ext in suite] + _polytomy_cases()
    verdicts = Counter()
    for n, t, ext in cases:
        inst = preprocess(n, t, ext)
        result = solve(inst)
        displayed, stats, above = _reference_solve(inst)
        assert (result.displayed, result.stats) == (displayed, stats)
        for v, table in result.tables["above"].items():
            assert set(map(result.signature, table)) == set(above[v])
        verdicts[result.displayed] += 1
        if result.displayed:
            accepting = result.signature(result.accepting_key)
            assert len(accepting) == 1 and accepting in above[result.final_vertex]
            phi = reconstruct_witness(result).paths
            assert check_embedding(phi, inst.tree, inst.network)
    assert verdicts[True] > 200 and verdicts[False] > 100
