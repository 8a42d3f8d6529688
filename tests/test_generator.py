"""Seeded instance generation: determinism, structure, and answer bias."""

import pytest

from stc import (
    GeneratorParams,
    InputError,
    PhyloKind,
    classify,
    firm_display,
    generate,
    soft_display,
)


def test_params_validated():
    with pytest.raises(InputError):
        GeneratorParams(leaves=1)
    with pytest.raises(InputError):
        GeneratorParams(leaves=3, reticulations=-1)
    with pytest.raises(InputError):
        GeneratorParams(leaves=3, polytomy_rate=1.5)
    with pytest.raises(InputError):
        GeneratorParams(leaves=3, target_answer="maybe")


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
