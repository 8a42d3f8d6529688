"""Seeded instance generation: determinism, structure, answer bias, and
the generator's steps against the whole-graph versions they replace."""

import random

import pytest

from stc import (
    Digraph,
    GeneratorParams,
    InputError,
    PhyloKind,
    SemanticError,
    classify,
    firm_display,
    generate,
    soft_display,
)
from stc.generator import _add_reticulation, _contract_marked, _random_binary_tree


def test_params_validated():
    with pytest.raises(InputError):
        GeneratorParams(leaves=1)
    with pytest.raises(InputError):
        GeneratorParams(leaves=3, reticulations=-1)
    with pytest.raises(InputError):
        GeneratorParams(leaves=3, polytomy_rate=1.5)
    with pytest.raises(InputError):
        GeneratorParams(leaves=3, target_answer="maybe")


def test_a_network_that_takes_no_reticulation_is_refused(monkeypatch):
    monkeypatch.setattr("stc.generator._add_reticulation", lambda *args: False)
    with pytest.raises(SemanticError, match="^could not place 2 reticulations on 3 leaves$"):
        generate(GeneratorParams(leaves=3, reticulations=2))


def test_generation_is_byte_deterministic():
    p = GeneratorParams(leaves=5, reticulations=2, polytomy_rate=0.3, seed=11)
    a, b = generate(p), generate(p)
    assert a.network_doc == b.network_doc
    assert a.tree_doc == b.tree_doc
    assert a.extension_doc == b.extension_doc
    other = generate(GeneratorParams(leaves=5, reticulations=2,
                                     polytomy_rate=0.3, seed=12))
    assert other.network_doc != a.network_doc


def test_structure_matches_parameters():
    for seed in range(12):
        p = GeneratorParams(leaves=4, reticulations=2, seed=seed)
        inst = generate(p)
        n = inst.network
        assert classify(n).kind is PhyloKind.NETWORK
        assert len(n.taxa) == 4
        retic_arcs = sum(n.in_degree(v) - 1 for v in n.vertices
                         if n.in_degree(v) >= 2)
        assert retic_arcs == 2
        assert classify(inst.tree).kind is PhyloKind.TREE
        assert inst.extension.is_valid()
        assert not inst.extension.canonicality_violations()


def test_zero_rate_keeps_everything_binary():
    for seed in range(8):
        inst = generate(GeneratorParams(leaves=5, reticulations=1, seed=seed))
        assert inst.network.max_in_degree <= 2 and inst.network.max_out_degree <= 2
        assert inst.tree.max_out_degree == 2


def test_yes_biased_instances_are_yes():
    for seed in range(15):
        p = GeneratorParams(leaves=4, reticulations=2, polytomy_rate=0.3,
                            seed=seed, target_answer="yes-biased")
        inst = generate(p)
        assert soft_display(inst.network, inst.tree)


def test_yes_biased_without_polytomies_is_firm():
    for seed in range(10):
        p = GeneratorParams(leaves=4, reticulations=2, seed=seed,
                            target_answer="yes-biased")
        inst = generate(p)
        assert firm_display(inst.network, inst.tree,
                            cap=len(inst.network.arcs))


def test_unlabeled_permutes_taxa_only():
    p_yes = GeneratorParams(leaves=5, reticulations=1, seed=3,
                            target_answer="yes-biased")
    p_perm = GeneratorParams(leaves=5, reticulations=1, seed=3,
                             target_answer="unlabeled")
    a, b = generate(p_yes), generate(p_perm)
    assert a.network == b.network
    assert a.tree.arcs == b.tree.arcs
    assert a.tree.taxa == b.tree.taxa


# -- reference steps ---------------------------------------------------------
#
# The generator's steps as first written on `Digraph`: each reticulation
# attempt built the graph, tested reachability on its descendant closure and
# classified the result, and each contraction rebuilt and classified the
# graph.  The steps on arc lists and maps must draw, count and decide alike.


def _reference_descendants(d):
    """Strict descendants of every vertex of the acyclic `d`."""
    desc: dict = {}
    for v in reversed(d.topological_order()):
        desc[v] = set(d.children(v)).union(*(desc[w] for w in d.children(v)))
    return desc


def _reference_contract(d, arc):
    """Contract (u, v): v's neighbours move to u, v disappears, and
    duplicate arcs collapse."""
    (u, v) = arc
    arcs = [(u if a == v else a, u if b == v else b)
            for (a, b) in d.arcs if (a, b) != arc]
    return Digraph([(a, b) for (a, b) in arcs if a != b],
                   {x: t for x, t in d.labels.items() if x != v},
                   [x for x in d.vertices if x != v])


def _reference_random_binary_tree(rng, leaves, counter):
    def fresh():
        counter[0] += 1
        return f"v{counter[0] - 1}"

    root = fresh()
    arcs = [(root, fresh()), (root, fresh())]
    for _ in range(leaves - 2):
        (u, v) = rng.choice(sorted(arcs))
        mid, leaf = fresh(), fresh()
        arcs.remove((u, v))
        arcs += [(u, mid), (mid, v), (mid, leaf)]
    return arcs


def _reference_add_reticulation(rng, arcs, counter):
    pool = sorted(arcs)
    trial = list(arcs)
    graph = Digraph(trial)
    retics = sorted(v for v in graph.vertices if graph.in_degree(v) >= 2)
    if retics and rng.random() < 0.3:
        r = rng.choice(retics)
        (a, b) = rng.choice(pool)
        if b == r or a == r or a in _reference_descendants(graph)[r]:
            return None
        mid = f"v{counter[0]}"
        counter[0] += 1
        trial.remove((a, b))
        trial += [(a, mid), (mid, b), (mid, r)]
    else:
        (a, b) = rng.choice(pool)
        (c, d) = rng.choice(pool)
        if (a, b) == (c, d):
            return None
        x, y = f"v{counter[0]}", f"v{counter[0] + 1}"
        counter[0] += 2
        trial.remove((a, b))
        trial.remove((c, d))
        trial += [(a, x), (x, b), (c, y), (y, d), (x, y)]
    tails = {u for u, _ in trial}
    labels = {v: v for _, v in trial if v not in tails}
    if classify(Digraph(trial, labels)).kind not in (PhyloKind.NETWORK, PhyloKind.TREE):
        return None
    return trial


def _reference_contract_marked(work, marked):
    merged: dict = {}

    def find(v):
        while v in merged:
            v = merged[v]
        return v

    for (u, v) in marked:
        tail = find(u)
        if v not in work or not work.has_arc(tail, v):
            continue
        if set(work.children(tail)) & set(work.children(v)):
            continue
        candidate = _reference_contract(work, (tail, v))
        if not classify(candidate):
            continue
        work = candidate
        merged[v] = tail
    return work


def _marks(graph, rng, rate):
    """Arcs drawn as `generate` draws them for contraction."""
    return [(u, v) for (u, v) in graph.arcs
            if graph.children(v) and graph.in_degree(v) == 1
            and graph.in_degree(u) <= 1 and rng.random() < rate]


def test_steps_match_their_whole_graph_references():
    rejected = {"cycle": 0, "other": 0}
    contracted = 0
    for leaves, retics in ((4, 2), (6, 5), (10, 8), (16, 14)):
        for seed in range(20):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            counter, ref_counter = [0], [0]
            arcs = _random_binary_tree(rng, leaves, counter)
            ref_arcs = _reference_random_binary_tree(ref_rng, leaves, ref_counter)
            assert arcs == sorted(ref_arcs)
            assert rng.getstate() == ref_rng.getstate() and counter == ref_counter
            children, network_retics = {}, []
            for u, v in arcs:
                children.setdefault(u, []).append(v)
            added = 0
            for _ in range(10 * retics):
                if added == retics:
                    break
                before, kept = counter[0], list(arcs)
                placed = _add_reticulation(rng, arcs, children, network_retics, counter)
                ref = _reference_add_reticulation(ref_rng, ref_arcs, ref_counter)
                assert rng.getstate() == ref_rng.getstate(), (leaves, seed)
                assert counter == ref_counter, (leaves, seed)
                if ref is None:
                    assert not placed and arcs == kept, (leaves, seed)
                    rejected["cycle" if counter[0] > before else "other"] += 1
                else:
                    assert placed and arcs == sorted(ref), (leaves, seed)
                    ref_arcs = ref
                    added += 1
                # the maps kept across attempts are those of the arcs
                graph = Digraph(arcs)
                assert {u: sorted(cs) for u, cs in children.items() if cs} == {
                    u: list(graph.children(u)) for u in graph.vertices
                    if graph.children(u)}, (leaves, seed)
                assert network_retics == [v for v in graph.vertices
                                          if graph.in_degree(v) >= 2], (leaves, seed)
            tails = {u for u, _ in arcs}
            network = Digraph(arcs, {v: v for _, v in arcs if v not in tails})
            tree = generate(GeneratorParams(leaves, retics, 0.0, seed)).tree
            for graph in (network, tree):
                marks = _marks(graph, random.Random(seed), 0.6)
                out = _contract_marked(graph, marks)
                assert out == _reference_contract_marked(graph, marks), (leaves, seed)
                contracted += len(graph) - len(out)
    assert min(rejected.values()) >= 40 and contracted >= 500, (rejected, contracted)
