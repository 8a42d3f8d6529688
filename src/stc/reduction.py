"""Preprocessing pipeline that turns an arbitrary instance into a solver-ready one.

Order of operations: prune the network down to the tree's taxa, resolve high
in-degrees by caterpillar in-splitting, attach degree-1 roots to both sides,
and finally canonicalize the tree extension.  The network and the extension
go through those steps as one set of mutable maps (`RewriteState`), which
also keeps the extension's width, measured only where it can change; the
reduced network and its canonical extension are built once, at the end,
and `AugmentedInstance.check` validates them once.  Vertices of out-degree
3+ stay as they are: the solver resolves each soft polytomy itself.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice

from .digraph import Digraph, PhyloKind, _adjacency, _proven_acyclic, classify
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

    Removes the vertices that reach no kept leaf, then, from a worklist,
    suppresses in-1/out-1 vertices, collapsing duplicate arcs (set
    semantics), and deletes a root of out-degree 1 if it is the only root.
    A removal changes the degrees of its parent and its child only, so only
    those two go back on the worklist.  One search for useless vertices is
    enough, as no later removal changes a vertex's reach to a kept leaf:
    labels sit on sinks, which no removal touches, and a suppressed
    vertex's parent reaches through the new arc whatever it reached
    through it.  In a DAG, two lemmas make the worklist exact:

    - A removable vertex stays removable until it is removed, so every
      removal order reaches the same graph.  No removal raises a degree;
      a suppression replaces a neighbour by one vertex, and a root's
      deletion leaves its child the only root, with its out-degree.
    - Neither removal changes how many roots the kept part has: a
      suppressed vertex is no root and its child gets its parent, and the
      only child of the only root has no other parent (that parent would
      descend from the child).  So "exactly one root" is read once.
    """
    keep_taxa = set(keep_taxa)
    labels = {v: t for v, t in d._labels.items() if t in keep_taxa}
    # Keep the vertices that reach a kept leaf; their parents do too.
    alive = set(labels)
    stack = list(alive)
    while stack:
        for p in d._parents[stack.pop()]:
            if p not in alive:
                alive.add(p)
                stack.append(p)
    parents = {v: set(d._parents[v]) for v in alive}
    children = {v: alive.intersection(d._children[v]) for v in alive}
    one_root = sum(not ps for ps in parents.values()) == 1
    work = list(alive)
    while work:
        v = work.pop()
        ps, cs = parents[v], children[v]
        if v not in alive or len(cs) != 1 or len(ps) > 1 or not (ps or one_root):
            continue
        (c,) = cs
        alive.discard(v)
        parents[c].discard(v)
        work.append(c)
        for p in ps:    # a suppression; without a parent, a root's deletion
            children[p].discard(v)
            if p != c:
                children[p].add(c)
                parents[c].add(p)
            work.append(p)
    if not alive:
        raise SemanticError("pruning removed the entire graph")
    # Sorted arcs, no self-loop (see `p != c`), and labels of `d`'s leaves.
    vertices = tuple(sorted(alive))
    arcs = [(u, v) for u in vertices for v in sorted(children[u])]
    return Digraph._of(vertices, *_adjacency(vertices, arcs), labels)


def prune_to_leafset(n: Digraph, taxa) -> tuple[Digraph, RestrictStep]:
    """Restrict a network to the given taxa (at least two of them)."""
    taxa = set(taxa)
    if not taxa <= n.taxa:
        raise SemanticError(
            f"tree taxa missing from the network: {sorted(taxa - n.taxa)}")
    if len(taxa) < 2:
        raise InputError("need at least 2 taxa")
    pruned = tidy(n, taxa)
    return pruned, RestrictStep(pruned)


# -- trace and the full pipeline --------------------------------------------


class _Record:
    """A mutable record over the attributes named in `_fields`: equal to a
    record of its own class with equal fields, and shown as
    `Name(field=value, ...)`."""
    _fields = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class ReductionTrace(_Record):
    """The rewrites of the network in order, and the width of the carried
    extension: `widths[0]` before the first step, `widths[i + 1]` after
    `steps[i]`."""
    _fields = ("steps", "widths")

    def __init__(self, steps: list | None = None, widths: list[int] | None = None):
        self.steps = [] if steps is None else steps
        self.widths = [] if widths is None else widths


class AugmentedInstance(_Record):
    """A solver-ready instance: a network of in-degree at most 2 and a tree,
    both with degree-1 roots, plus a canonical tree extension of the network.

    The network is the extension's host.  Built by `preprocess`, which runs
    `check` once; `solve` relies on it.
    """
    _fields = ("tree", "extension", "trace")

    def __init__(self, tree: Digraph, extension: TreeExtension,
                 trace: ReductionTrace):
        self.tree = tree
        self.extension = extension
        self.trace = trace

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
        """Raise unless the instance has the form `solve` relies on.

        The extension is checked first: a valid one proves its host
        acyclic, as pre-order numbers increase along every host arc, so the
        network is classified without a cycle search.  The tree is searched
        unless it carries a proof, as the one `preprocess` builds does."""
        self.extension.require_valid()
        if classify(_proven_acyclic(self.network)).kind is not PhyloKind.ROOTED_DAG_DEG1_ROOT:
            raise InternalError("reduced network misses the degree-1-root form")
        if classify(self.tree).kind is not PhyloKind.ROOTED_DAG_DEG1_ROOT:
            raise InternalError("reduced tree misses the degree-1-root form")
        if self.network.max_in_degree > 2:
            raise InternalError("reduced network has a vertex of in-degree above 2")
        if self.tree.max_in_degree > 1:
            raise InternalError("reduced tree is not an out-tree")
        if self.network.taxa != self.tree.taxa:
            raise InternalError("network and tree taxa differ after reduction")
        problems = self.extension.canonicality_violations()
        if problems:
            raise InternalError("extension is not canonical: " + "; ".join(problems))


def _carry(state: RewriteState, step, trace: ReductionTrace) -> None:
    step.rewrite(state)
    trace.steps.append(step)
    trace.widths.append(state.width)


def reduce_network(n: Digraph, ext: TreeExtension | None = None, *,
                   taxa=None) -> tuple[TreeExtension, ReductionTrace]:
    """Run the network side of the pipeline on a network; returns the
    canonical extension of the augmented network (fresh root) and the trace.

    `taxa`, if given, must be taxa of `n`: that is checked first, and
    `ext`, if given, must belong to `n` and is validated next, by
    `RewriteState.carrying`; the result is not, as
    `AugmentedInstance.check` does that once."""
    host, prune = n, None
    if taxa is not None and set(taxa) != n.taxa:
        host, prune = prune_to_leafset(n, taxa)
    if ext is not None and ext.host != n:
        raise InputError("extension does not belong to the given network")
    state = RewriteState.carrying(n, ext)
    trace = ReductionTrace(widths=[state.width])
    if prune is not None:
        _carry(state, prune, trace)
    # An in-split lowers only its target's in-degree, and the new vertex has
    # in-degree 2, so one sorted pass meets the targets in the same order as
    # a rescan for the first in-degree-3+ vertex before every split would.
    # The host being split (the pruned one, after a prune) tells from its
    # cached `max_in_degree` whether there is a target at all.
    if host.max_in_degree >= 3:
        high = sorted(v for v, ps in state.parents.items() if len(ps) >= 3)
        for v in high:
            while len(state.parents[v]) >= 3:
                pair = state.parents[v][:2]
                _carry(state, InSplitStep(v, pair, state.fresh_id()), trace)
    _carry(state, AttachRootStep(state.fresh_id()), trace)
    return state.canonical_extension(), trace


def _require_network(n: Digraph) -> None:
    """Raise `SemanticError` unless `n` is a phylogenetic network (a tree is
    one).  The cycle check of a network with a reticulation caches `n`'s
    sorted topological order, which the default extension of `n` is built
    from; a network without one is settled by a walk from its root (see
    `Digraph._acyclic`), and is its own default extension, which needs no
    sorted order (see `extension._out_tree`)."""
    n_class = classify(n)
    if n_class.kind not in (PhyloKind.NETWORK, PhyloKind.TREE):
        raise SemanticError(f"not a phylogenetic network: {n_class.reason}")


def _require_tree(t: Digraph) -> None:
    """Raise `SemanticError` unless `t` is a phylogenetic tree."""
    t_class = classify(t)
    if t_class.kind is not PhyloKind.TREE:
        raise SemanticError(f"not a phylogenetic tree: {t_class.reason}")


def _spliced(m: dict, i: int, key, value) -> dict:
    """A copy of `m` with `key: value` put in at position `i`."""
    items = m.items()
    out = dict(islice(items, i))
    out[key] = value
    out.update(islice(items, i, None))
    return out


def _with_degree_1_root(t: Digraph) -> Digraph:
    """`t` with a fresh root above its root, spliced into `t`'s sorted
    vertices and maps at its place.  It carries `t`'s acyclicity, which
    `_require_tree` has proven: an arc into the old root closes no cycle."""
    (root,), rho = t.roots, next(t.fresh_names())
    vertices = t.vertices
    i = bisect_left(vertices, rho)
    parents = _spliced(t._parents, i, rho, ())
    parents[root] = (rho,)
    children = _spliced(t._children, i, rho, (root,))
    vertices = (*vertices[:i], rho, *vertices[i:])
    return _proven_acyclic(Digraph._of(vertices, parents, children, t._labels))


def preprocess(n: Digraph, t: Digraph,
               ext: TreeExtension | None = None) -> AugmentedInstance:
    """Produce a solver-ready instance from a network, tree, and extension.

    The returned instance has passed `AugmentedInstance.check`.
    """
    _require_network(n)
    _require_tree(t)
    ext, trace = reduce_network(n, ext, taxa=t.taxa)
    inst = AugmentedInstance(_with_degree_1_root(t), ext, trace)
    inst.check()
    return inst
