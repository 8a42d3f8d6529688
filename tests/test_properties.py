"""Property-based checks over generator-driven random inputs."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stc import (
    GeneratorParams,
    OracleTooLargeError,
    default_extension,
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
    assert ext.is_canonical()
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
        assert above == (below - set(n.out_arcs(v))) | set(n.in_arcs(v))


@settings(max_examples=40, deadline=None)
@given(params)
def test_rewrites_preserve_value_semantics(p):
    n = generate(p).network
    arc = n.arcs[0]
    mid = n.fresh_ids(1)[0]
    divided = n.subdivide(arc, mid)
    assert divided.suppress(mid) == n
    assert n == generate(p).network  # inputs were never mutated


polytomy_params = st.builds(
    GeneratorParams,
    leaves=st.integers(3, 7),
    reticulations=st.integers(0, 2),
    polytomy_rate=st.floats(0.3, 0.6),
    seed=st.integers(0, 10_000),
    target_answer=st.sampled_from(["yes-biased", "unlabeled"]),
)


@settings(max_examples=80, deadline=None)
@given(polytomy_params)
def test_polytomies_resolved_in_the_sweep_match_the_oracle(p):
    """Resolving out-degree 3+ vertices in the sweep decides what the
    oracle's enumeration of binary resolutions decides."""
    inst = generate(p)
    try:
        want = soft_display(inst.network, inst.tree)
    except OracleTooLargeError:
        assume(False)
    assert solve(preprocess(inst.network, inst.tree)).displayed == want
