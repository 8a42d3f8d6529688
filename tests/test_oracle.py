"""Brute-force oracles: firm display, resolutions, and soft display."""

import pytest

from stc import (
    Digraph,
    InputError,
    OracleTooLargeError,
    enumerate_resolutions,
    firm_display,
    firm_display_switching,
    soft_display,
)
from stc.oracle import _tree_target, binary_shapes


def test_firm_display_golden(net_a, tree_b, tree_c, tree_d):
    assert firm_display(net_a, tree_b)
    assert not firm_display(net_a, tree_c)
    assert not firm_display(net_a, tree_d)  # soft-only instance


def test_switching_agrees_with_subsets(suite):
    for _, n, t, _ in suite[:80]:
        if len(n.arcs) > 16:
            continue
        assert firm_display(n, t) == firm_display_switching(n, t)


def test_firm_display_missing_taxa_is_false(net_a):
    t = Digraph([("x", "a"), ("x", "e")], {"a": "a", "e": "e"})
    assert not firm_display(net_a, t)
    assert not firm_display_switching(net_a, t)
    assert not soft_display(net_a, t)


def test_arc_cap_raises(net_a, tree_b):
    with pytest.raises(OracleTooLargeError):
        firm_display(net_a, tree_b, cap=5)


def test_binary_shape_counts():
    assert len(binary_shapes(("a",))) == 1
    assert len(binary_shapes(("a", "b"))) == 1
    assert len(binary_shapes(("a", "b", "c"))) == 3
    assert len(binary_shapes(("a", "b", "c", "d"))) == 15
    shapes = binary_shapes(("a", "b", "c"))
    assert len(set(map(repr, shapes))) == 3


def test_binary_input_resolves_to_itself(net_a):
    assert list(enumerate_resolutions(net_a)) == [net_a]


def test_out_resolutions_of_a_polytomy(tree_d):
    out = list(enumerate_resolutions(tree_d, "out"))
    assert len(out) == 3
    forms = {_tree_target(t) for t in out}
    assert len(forms) == 3
    for t in out:
        assert t.max_out_degree == 2
        assert t.taxa == tree_d.taxa


def test_in_resolutions_of_a_high_reticulation():
    n = Digraph([("r", "a"), ("r", "b"), ("a", "c"), ("a", "v"), ("b", "v"),
                 ("b", "d"), ("c", "v"), ("c", "e"), ("v", "x")],
                {"d": "d", "e": "e", "x": "x"})
    assert n.in_degree("v") == 3
    res = list(enumerate_resolutions(n, "in"))
    assert len(res) == 3
    for m in res:
        assert m.max_in_degree == 2
        assert m.in_degree("v") == 2


def test_resolution_cap(tree_d):
    with pytest.raises(OracleTooLargeError):
        list(enumerate_resolutions(tree_d, "out", cap=2))
    with pytest.raises(InputError):
        list(enumerate_resolutions(tree_d, "diagonal"))


def test_soft_display_golden(net_a, tree_b, tree_c, tree_d):
    assert soft_display(net_a, tree_b)
    assert not soft_display(net_a, tree_c)
    assert soft_display(net_a, tree_d)
    assert soft_display(net_a, tree_d, method="subsets")


def test_soft_methods_agree(suite):
    for _, n, t, _ in suite[:40]:
        if len(n.arcs) > 16:
            continue
        assert (soft_display(n, t, method="switching")
                == soft_display(n, t, method="subsets"))
