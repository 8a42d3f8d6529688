"""The records on the solve path, and the names the package exports."""

import pytest

import stc
from stc.digraph import PhyloClass, PhyloKind
from stc.extension import AttachRootStep, InSplitStep, RestrictStep
from stc.reduction import AugmentedInstance, ReductionTrace
from stc.solver import SolveResult, VertexStats

# Each record built by position and by keyword, the text its `repr` showed
# when the records were dataclasses, and a record that differs in one field.
RECORDS = [
    (PhyloClass(PhyloKind.NETWORK, "r"),
     PhyloClass(kind=PhyloKind.NETWORK, reason="r"),
     "PhyloClass(kind=<PhyloKind.NETWORK: 'network'>, reason='r')",
     PhyloClass(PhyloKind.NETWORK)),
    (PhyloClass(PhyloKind.TREE), PhyloClass(kind=PhyloKind.TREE),
     "PhyloClass(kind=<PhyloKind.TREE: 'tree'>, reason=None)",
     PhyloClass(PhyloKind.INVALID)),
    (AttachRootStep("g0"), AttachRootStep(new_root="g0"),
     "AttachRootStep(new_root='g0')", AttachRootStep("g1")),
    (InSplitStep("v", ("a", "b"), "m"),
     InSplitStep(vertex="v", parents=("a", "b"), new_vertex="m"),
     "InSplitStep(vertex='v', parents=('a', 'b'), new_vertex='m')",
     InSplitStep("v", ("a", "c"), "m")),
    (RestrictStep("host"), RestrictStep(new_host="host"),
     "RestrictStep(new_host='host')", RestrictStep("other")),
    (VertexStats("v", 3, 1), VertexStats(vertex="v", cells_above=3, cells_below=1),
     "VertexStats(vertex='v', cells_above=3, cells_below=1)", VertexStats("v", 3, 2)),
    (ReductionTrace(), ReductionTrace(steps=[], widths=[]),
     "ReductionTrace(steps=[], widths=[])", ReductionTrace(widths=[1])),
    (ReductionTrace([AttachRootStep("g0")], [1, 1]),
     ReductionTrace(steps=[AttachRootStep("g0")], widths=[1, 1]),
     "ReductionTrace(steps=[AttachRootStep(new_root='g0')], widths=[1, 1])",
     ReductionTrace([AttachRootStep("g1")], [1, 1])),
    (AugmentedInstance("tree", "ext", ReductionTrace()),
     AugmentedInstance(tree="tree", extension="ext", trace=ReductionTrace()),
     "AugmentedInstance(tree='tree', extension='ext', "
     "trace=ReductionTrace(steps=[], widths=[]))",
     AugmentedInstance("tree", "ext", ReductionTrace(widths=[2]))),
    (SolveResult("inst"), SolveResult(instance="inst", stats=[], tables=None,
                                      accepting_key=None),
     "SolveResult(instance='inst', stats=[], tables=None, accepting_key=None)",
     SolveResult("inst", accepting_key=(5,))),
    (SolveResult("inst", [VertexStats("v", 3, 1)], None, (5,)),
     SolveResult("inst", stats=[VertexStats("v", 3, 1)], accepting_key=(5,)),
     "SolveResult(instance='inst', stats=[VertexStats(vertex='v', cells_above=3, "
     "cells_below=1)], tables=None, accepting_key=(5,))",
     SolveResult("inst", [VertexStats("v", 3, 1)], {}, (5,))),
]


@pytest.mark.parametrize("positional, keyword, text, other", RECORDS,
                         ids=[r[2].partition("(")[0] for r in RECORDS])
def test_records_construct_compare_and_print_as_before(positional, keyword, text,
                                                       other):
    assert positional == keyword
    assert not positional != keyword
    assert positional != other
    assert repr(positional) == repr(keyword) == text


def test_mutable_records_do_not_share_default_lists():
    first, second = ReductionTrace(), ReductionTrace()
    first.steps.append(AttachRootStep("g0"))
    first.widths.append(1)
    assert (second.steps, second.widths) == ([], [])
    assert SolveResult("a").stats is not SolveResult("a").stats


@pytest.mark.parametrize("record, field", [
    (PhyloClass(PhyloKind.TREE), "reason"),
    (VertexStats("v", 3, 1), "cells_above"),
    (AttachRootStep("g0"), "new_root"),
    (InSplitStep("v", ("a", "b"), "m"), "new_vertex"),
    (RestrictStep("host"), "new_host"),
])
def test_immutable_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, "x")
    with pytest.raises(AttributeError):
        record.extra = "x"


def test_records_keep_their_kinds_and_truth():
    assert [AttachRootStep("g0").kind, InSplitStep("v", ("a", "b"), "m").kind,
            RestrictStep("host").kind] == ["attach_root", "insplit", "prune"]
    assert not PhyloClass(PhyloKind.INVALID, "no root")
    assert PhyloClass(PhyloKind.NETWORK) and PhyloClass(PhyloKind.TREE)
    assert PhyloClass(PhyloKind.ROOTED_DAG_DEG1_ROOT, "root out-degree 1")


# `stc.__all__` as it was when the generator and the oracles loaded eagerly.
ALL = [
    "AugmentedInstance", "CUT_ABOVE", "CUT_BELOW", "Digraph", "GeneratedInstance",
    "GeneratorParams", "InputError", "InternalError", "OracleTooLargeError",
    "ParseError", "PhyloClass", "PhyloKind", "ReductionTrace", "RewriteError",
    "STCError", "SemanticError", "SolveResult", "TreeExtension", "canonicalize",
    "check_embedding", "classify", "default_extension", "digraph",
    "enumerate_resolutions", "errors", "eventually_arc_disjoint", "extension",
    "firm_display", "firm_display_switching", "formats", "generate", "generator",
    "oracle", "parse_edgelist", "parse_enewick", "parse_extension", "preprocess",
    "prune_to_leafset", "reaches", "reconstruct_witness", "reduce_network",
    "reduction", "serialize_edgelist", "serialize_extension", "soft_display",
    "solve", "solver", "update_extension",
]


def test_the_package_exports_the_same_names():
    assert sorted(stc.__all__) == ALL
    for name in ALL:
        assert getattr(stc, name) is not None, name


def test_lazy_names_resolve_from_their_modules():
    from stc import (
        GeneratedInstance,
        GeneratorParams,
        enumerate_resolutions,
        firm_display,
        firm_display_switching,
        generate,
        soft_display,
    )
    from stc import generator, oracle

    assert (GeneratedInstance, GeneratorParams, generate) == (
        generator.GeneratedInstance, generator.GeneratorParams, generator.generate)
    assert (enumerate_resolutions, firm_display, firm_display_switching,
            soft_display) == (oracle.enumerate_resolutions, oracle.firm_display,
                              oracle.firm_display_switching, oracle.soft_display)
    assert stc.generator is generator and stc.oracle is oracle


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        stc.nope
    with pytest.raises(ImportError):
        from stc import nope  # noqa: F401
