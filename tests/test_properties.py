"""Property-based checks over generator-driven random inputs."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stc import (
    GeneratorParams,
    OracleTooLargeError,
    PhyloKind,
    classify,
    default_extension,
    enumerate_resolutions,
    generate,
    parse_edgelist,
    parse_extension,
    preprocess,
    serialize_edgelist,
    serialize_extension,
    soft_display,
    solve,
)
from stc.extension import CUT_ABOVE, CUT_BELOW
from stc.generator import _contract_marked

params = st.builds(
    GeneratorParams,
    leaves=st.integers(2, 6),
    reticulations=st.integers(0, 2),
    polytomy_rate=st.sampled_from([0.0, 0.25, 0.5]),
    seed=st.integers(0, 10_000),
    target_answer=st.sampled_from(["yes-biased", "unlabeled"]),
)


@settings(max_examples=60, deadline=None)
@given(params)
def test_edgelist_round_trip(p):
    inst = generate(p)
    for graph in (inst.network, inst.tree):
        assert parse_edgelist(serialize_edgelist(graph)) == graph


@settings(max_examples=60, deadline=None)
@given(params)
def test_extension_round_trip_and_validity(p):
    inst = generate(p)
    ext = inst.extension
    assert ext.is_valid() and not ext.canonicality_violations()
    again = parse_extension(serialize_extension(ext), inst.network)
    assert again.gamma == ext.gamma


@settings(max_examples=40, deadline=None)
@given(params)
def test_cut_identity_everywhere(p):
    """Above-cut = below-cut minus own out-arcs plus own in-arcs."""
    n = generate(p).network
    ext = default_extension(n)
    for v in n.vertices:
        above = set(ext.scan_cut(v, CUT_ABOVE))
        below = set(ext.scan_cut(v, CUT_BELOW))
        assert above == (below - set(n.out_arcs(v))) | {(u, v) for u in n.parents(v)}


@settings(max_examples=40, deadline=None)
@given(params)
def test_rewrites_preserve_value_semantics(p):
    n = generate(p).network
    marks = [(u, v) for (u, v) in n.arcs
             if n.children(v) and n.in_degree(v) == 1 and n.in_degree(u) <= 1]
    contracted = _contract_marked(n, marks)
    assert set(n.vertices) - set(contracted.vertices) <= {v for _, v in marks}
    assert classify(contracted).kind in (PhyloKind.NETWORK, PhyloKind.TREE)
    assert n == generate(p).network  # inputs were never mutated


polytomy_params = st.builds(
    GeneratorParams,
    leaves=st.integers(3, 7),
    reticulations=st.integers(0, 2),
    polytomy_rate=st.floats(0.3, 0.6),
    seed=st.integers(0, 10_000),
    target_answer=st.sampled_from(["yes-biased", "unlabeled"]),
)


# The oracle compares every binary resolution of the network with every one
# of the tree; draws with more pairs than this are skipped.
ORACLE_PAIR_BUDGET = 2000


@settings(max_examples=80, deadline=None)
@given(polytomy_params)
def test_polytomies_resolved_in_the_sweep_match_the_oracle(p):
    """Resolving out-degree 3+ vertices in the sweep decides what the
    oracle's enumeration of binary resolutions decides."""
    inst = generate(p)
    try:
        trees = sum(1 for _ in enumerate_resolutions(inst.tree, "out",
                                                     cap=ORACLE_PAIR_BUDGET))
        # the cap is checked before the first resolution is built
        next(enumerate_resolutions(inst.network, "both",
                                   cap=ORACLE_PAIR_BUDGET // trees))
    except OracleTooLargeError:
        assume(False)
    want = soft_display(inst.network, inst.tree)
    assert solve(preprocess(inst.network, inst.tree)).displayed == want
