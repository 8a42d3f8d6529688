"""Preprocessing pipeline that turns an arbitrary instance into a solver-ready one.

Order of operations: prune the network down to the tree's taxa, resolve high
in-degrees by caterpillar in-splitting, attach degree-1 roots to both sides,
and finally canonicalize the tree extension.  The network and the extension
go through those steps as one set of mutable maps (`RewriteState`), which
also keeps the extension's cut sizes, so the width after each step costs
no rebuild; the reduced network and its canonical extension are built once,
at the end, and `AugmentedInstance.check` validates them once.  Vertices of
out-degree 3+ stay as they are: the solver resolves each soft polytomy
itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import Digraph, PhyloKind, classify
from .errors import InputError, InternalError, SemanticError
from .extension import (
    AttachRootStep,
    InSplitStep,
    RestrictStep,
    RewriteState,
    TreeExtension,
)


# -- pruning ----------------------------------------------------------------


def tidy(d: Digraph, keep_taxa) -> Digraph:
    """Drop everything that serves no kept taxon, then clean up degrees.

    Repeats until stable: remove vertices reaching no kept leaf, suppress
    in-1/out-1 vertices, collapse duplicate arcs (set semantics), and delete
    a root of out-degree 1.
    """
    keep_taxa = set(keep_taxa)
    parents = {v: set(d.parents(v)) for v in d.vertices}
    children = {v: set(d.children(v)) for v in d.vertices}
    labels = {v: t for v, t in d.labels.items() if t in keep_taxa}
    alive = set(d.vertices)

    def drop(v):
        for p in parents[v]:
            children[p].discard(v)
        for c in children[v]:
            parents[c].discard(v)
        alive.discard(v)
        labels.pop(v, None)

    while True:
        changed = False
        # vertices that reach no kept leaf
        useful = set(labels)
        stack = list(useful)
        while stack:
            v = stack.pop()
            for p in parents[v]:
                if p in alive and p not in useful:
                    useful.add(p)
                    stack.append(p)
        for v in sorted(alive - useful):
            drop(v)
            changed = True
        # suppress pass-through vertices
        for v in sorted(alive):
            if len(parents[v]) == 1 and len(children[v]) == 1:
                (p,) = parents[v]
                (c,) = children[v]
                drop(v)
                if p != c:
                    children[p].add(c)
                    parents[c].add(p)
                changed = True
        # trim a degree-1 root
        roots = sorted(v for v in alive if not parents[v])
        if len(roots) == 1 and len(children[roots[0]]) == 1:
            drop(roots[0])
            changed = True
        if not changed:
            break
    if not alive:
        raise SemanticError("pruning removed the entire graph")
    arcs = [(u, v) for u in sorted(alive) for v in sorted(children[u])]
    return Digraph(arcs, labels, alive)


def prune_to_leafset(n: Digraph, taxa) -> tuple[Digraph, RestrictStep]:
    """Restrict a network to the given taxa (at least two of them)."""
    taxa = set(taxa)
    if not taxa <= n.taxa:
        raise SemanticError(f"taxa not present in the network: {sorted(taxa - n.taxa)}")
    if len(taxa) < 2:
        raise InputError("need at least 2 taxa")
    pruned = tidy(n, taxa)
    return pruned, RestrictStep(pruned)


# -- trace and the full pipeline --------------------------------------------


@dataclass
class ReductionTrace:
    """The rewrites of the network in order, and the width of the carried
    extension: `widths[0]` before the first step, `widths[i + 1]` after
    `steps[i]`."""
    steps: list = field(default_factory=list)
    widths: list[int] = field(default_factory=list)


@dataclass
class AugmentedInstance:
    """A solver-ready instance: a network of in-degree at most 2 and a tree,
    both with degree-1 roots, plus a canonical tree extension of the network.

    The network is the extension's host.  Built by `preprocess`, which runs
    `check` once; `solve` relies on it.
    """

    tree: Digraph
    extension: TreeExtension
    trace: ReductionTrace

    @property
    def network(self) -> Digraph:
        return self.extension.host

    @property
    def network_root(self) -> str:
        return self.network.root()

    @property
    def tree_root(self) -> str:
        return self.tree.root()

    def check(self) -> None:
        if classify(self.network).kind is not PhyloKind.ROOTED_DAG_DEG1_ROOT:
            raise InternalError("reduced network misses the degree-1-root form")
        if classify(self.tree).kind is not PhyloKind.ROOTED_DAG_DEG1_ROOT:
            raise InternalError("reduced tree misses the degree-1-root form")
        if self.network.max_in_degree > 2:
            raise InternalError("reduced network has a vertex of in-degree above 2")
        if self.tree.max_in_degree > 1:
            raise InternalError("reduced tree is not an out-tree")
        if self.network.taxa != self.tree.taxa:
            raise InternalError("network and tree taxa differ after reduction")
        self.extension.require_valid()
        problems = self.extension.canonicality_violations()
        if problems:
            raise InternalError("extension is not canonical: " + "; ".join(problems))


def _carry(state: RewriteState, step, trace: ReductionTrace) -> None:
    step.rewrite(state)
    trace.steps.append(step)
    trace.widths.append(state.width())


def reduce_network(n: Digraph, ext: TreeExtension | None = None, *,
                   taxa=None) -> tuple[TreeExtension, ReductionTrace]:
    """Run the network side of the pipeline; returns the canonical extension
    of the augmented network (whose root is fresh) and the trace.

    `ext`, if given, is validated here; the result is not, as
    `AugmentedInstance.check` does that once."""
    if ext is not None:
        if ext.host != n:
            raise InputError("extension does not belong to the given network")
        ext.require_valid()
    state = RewriteState.carrying(n, ext)
    trace = ReductionTrace(widths=[state.width()])
    if taxa is not None and set(taxa) != n.taxa:
        _, step = prune_to_leafset(n, taxa)
        _carry(state, step, trace)
    # An in-split lowers only its target's in-degree, and the new vertex has
    # in-degree 2, so one sorted pass meets the targets in the same order as
    # a rescan for the first in-degree-3+ vertex before every split would.
    high = sorted(v for v, ps in state.parents.items() if len(ps) >= 3)
    for v in high:
        while len(state.parents[v]) >= 3:
            pair = tuple(sorted(state.parents[v])[:2])
            _carry(state, InSplitStep(v, pair, state.fresh_id()), trace)
    _carry(state, AttachRootStep(state.fresh_id()), trace)
    return state.canonical_extension(), trace


def _require_network(n: Digraph) -> None:
    """Raise `SemanticError` unless `n` is a phylogenetic network (a tree is
    one)."""
    n_class = classify(n)
    if n_class.kind not in (PhyloKind.NETWORK, PhyloKind.TREE):
        raise SemanticError(f"not a phylogenetic network: {n_class.reason}")


def preprocess(n: Digraph, t: Digraph,
               ext: TreeExtension | None = None) -> AugmentedInstance:
    """Produce a solver-ready instance from a network, tree, and extension.

    The returned instance has passed `AugmentedInstance.check`.
    """
    _require_network(n)
    t_class = classify(t)
    if t_class.kind is not PhyloKind.TREE:
        raise SemanticError(f"not a phylogenetic tree: {t_class.reason}")
    if not t.taxa <= n.taxa:
        raise SemanticError(
            f"tree taxa missing from the network: {sorted(t.taxa - n.taxa)}")
    ext, trace = reduce_network(n, ext, taxa=t.taxa)
    rho_t = t.fresh_ids(1)[0]
    t_aug = Digraph(list(t.arcs) + [(rho_t, t.root())], t.labels)
    inst = AugmentedInstance(t_aug, ext, trace)
    inst.check()
    return inst
