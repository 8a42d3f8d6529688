"""Preprocessing pipeline that turns an arbitrary instance into a binary one.

Order of operations: prune the network down to the tree's taxa, replace every
vertex of out-degree 3+ by a splitter/sorter gadget, resolve high in-degrees
by caterpillar in-splitting, attach degree-1 roots to both sides, and finally
canonicalize the tree extension that was carried through every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .digraph import Digraph, PhyloKind, classify
from .errors import InputError, InternalError, RewriteError, SemanticError
from .extension import (
    AttachRootStep,
    InSplitStep,
    RestrictStep,
    StretchStep,
    TreeExtension,
    canonicalize,
    default_extension,
    update_extension,
)


# -- the stretch gadget -----------------------------------------------------


@dataclass
class StretchGadget:
    """The structure inserted below a stretched out-degree-d vertex.

    A triangular splitter (every binary fan-out over d exits embeds in it)
    feeds a (d-1) x (d-1) grid of comparator blocks that undo the leaf order
    the splitter forces.  Each comparator block has two entry vertices and
    two reticulated exits.
    """

    center: str
    degree: int
    children: tuple[str, ...]
    splitter: dict[tuple[int, int], str]        # rows 2..d-1, position 1..i
    splitter_pass: dict[tuple[int, int], str]   # pass-through vertices inside the triangle
    splitter_exit: dict[int, str]               # row-d collectors, position 2..d-1
    sorter: dict[tuple[int, int, int], str]     # comparator blocks, k in 1..4

    def path_order(self) -> tuple[str, ...]:
        """All new vertices in the order they are chained below the center."""
        d = self.degree
        out = []
        for i in range(2, d):
            for j in range(1, i + 1):
                out.append(self.splitter[(i, j)])
            for j in range(2, i):
                out.append(self.splitter_pass[(i, j)])
        for j in range(2, d):
            out.append(self.splitter_exit[j])
        for i in range(1, d):
            for j in range(1, d):
                for k in range(1, 5):
                    out.append(self.sorter[(i, j, k)])
        return tuple(out)

    def new_arcs(self) -> tuple[tuple[str, str], ...]:
        d = self.degree
        v = self.center
        u, up, ux, w = self.splitter, self.splitter_pass, self.splitter_exit, self.sorter
        c = self.children
        arcs = [(v, u[(2, 1)]), (v, u[(2, 2)])]
        for i in range(2, d - 1):
            arcs += [(u[(i, 1)], u[(i + 1, 1)]), (u[(i, 1)], u[(i + 1, 2)])]
            arcs += [(u[(i, i)], u[(i + 1, i)]), (u[(i, i)], u[(i + 1, i + 1)])]
        for i in range(3, d):
            for j in range(2, i):
                arcs.append((u[(i, j)], up[(i, j)]))
                right = ux[j] if i + 1 == d else u[(i + 1, j)]
                down = ux[j + 1] if i + 1 == d else u[(i + 1, j + 1)]
                arcs += [(up[(i, j)], right), (up[(i, j)], down)]
        arcs += [(u[(d - 1, 1)], w[(1, 1, 1)]), (u[(d - 1, 1)], ux[2])]
        arcs += [(u[(d - 1, d - 1)], ux[d - 1]), (u[(d - 1, d - 1)], w[(1, d - 1, 2)])]
        for j in range(2, d):
            arcs.append((ux[j], w[(1, j - 1, 2)]))
        for i in range(1, d):
            for j in range(1, d):
                arcs += [(w[(i, j, 1)], w[(i, j, 3)]), (w[(i, j, 1)], w[(i, j, 4)])]
                arcs += [(w[(i, j, 2)], w[(i, j, 3)]), (w[(i, j, 2)], w[(i, j, 4)])]
        for i in range(1, d):
            for j in range(1, d - 1):
                arcs.append((w[(i, j, 4)], w[(i, j + 1, 1)]))
        for i in range(1, d - 1):
            arcs.append((w[(i, 1, 3)], w[(i + 1, 1, 1)]))
            arcs.append((w[(i, d - 1, 4)], w[(i + 1, d - 1, 2)]))
            for j in range(2, d):
                arcs.append((w[(i, j, 3)], w[(i + 1, j - 1, 2)]))
        for j in range(1, d):
            arcs.append((w[(d - 1, j, 3)], c[j - 1]))
        arcs.append((w[(d - 1, d - 1, 4)], c[d - 1]))
        return tuple(arcs)

    def apply(self, host: Digraph) -> Digraph:
        dropped = set(host.out_arcs(self.center))
        arcs = [a for a in host.arcs if a not in dropped]
        arcs += list(self.new_arcs())
        return Digraph(arcs, host.labels, host.vertices)


def _make_gadget(host: Digraph, v: str) -> StretchGadget:
    d = host.out_degree(v)
    children = tuple(sorted(host.children(v)))
    splitter, splitter_pass, splitter_exit, sorter = {}, {}, {}, {}
    slots = []
    for i in range(2, d):
        for j in range(1, i + 1):
            slots.append((splitter, (i, j)))
        for j in range(2, i):
            slots.append((splitter_pass, (i, j)))
    for j in range(2, d):
        slots.append((splitter_exit, j))
    for i in range(1, d):
        for j in range(1, d):
            for k in range(1, 5):
                slots.append((sorter, (i, j, k)))
    ids = host.fresh_ids(len(slots))
    for (family, key), vid in zip(slots, ids):
        family[key] = vid
    return StretchGadget(v, d, children, splitter, splitter_pass, splitter_exit, sorter)


def stretch_vertex(n: Digraph, v: str) -> tuple[Digraph, StretchGadget]:
    """Replace the fan-out of a single out-degree-3+ vertex by a gadget."""
    if v not in n:
        raise InputError(f"unknown vertex {v!r}")
    if n.out_degree(v) < 3:
        raise RewriteError(f"stretch needs out-degree >= 3 at {v!r}")
    gadget = _make_gadget(n, v)
    return gadget.apply(n), gadget


def stretch_network(n: Digraph) -> tuple[Digraph, list[StretchStep]]:
    """Stretch every out-degree-3+ vertex; binary fan-outs stay untouched."""
    if not classify(n):
        raise InputError("stretch needs a valid network")
    steps = []
    work = n
    for v in sorted(n.vertices):
        if n.out_degree(v) >= 3:
            work, gadget = stretch_vertex(work, v)
            steps.append(StretchStep(v, gadget))
    return work, steps


# -- in-splitting -----------------------------------------------------------


def make_binary_in(n: Digraph) -> tuple[Digraph, list[InSplitStep]]:
    """Resolve every in-degree-3+ vertex by caterpillar in-splitting.

    Always splits the two sorted-smallest parents, so the resolution shape
    is deterministic.
    """
    if n.max_out_degree > 2:
        raise InputError("in-resolution needs maximum out-degree <= 2")
    steps = []
    work = n
    while True:
        target = next((v for v in work.vertices if work.in_degree(v) >= 3), None)
        if target is None:
            return work, steps
        p1, p2 = sorted(work.parents(target))[:2]
        new_id = work.fresh_ids(1)[0]
        work = work.in_split(target, (p1, p2), new_id)
        steps.append(InSplitStep(target, (p1, p2), new_id))


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
    removed = frozenset(n.vertices) - frozenset(pruned.vertices)
    return pruned, RestrictStep(pruned, removed)


# -- trace and the full pipeline --------------------------------------------


@dataclass
class WidthAudit:
    """Width bookkeeping around one extension-maintenance step."""
    kind: str
    vertex: str | None
    degree: int
    width_before: int
    width_after: int


@dataclass
class ReductionTrace:
    steps: list = field(default_factory=list)
    width_audits: list[WidthAudit] = field(default_factory=list)


@dataclass
class AugmentedInstance:
    """A solver-ready instance: binary network and tree, both with degree-1
    roots, plus a canonical tree extension of the network.

    Built by `preprocess`, which runs `check` once; `solve` relies on it.
    """

    network: Digraph
    tree: Digraph
    extension: TreeExtension
    trace: ReductionTrace
    network_root: str
    tree_root: str

    def check(self) -> None:
        if self.extension.host != self.network:
            raise InternalError("extension does not extend the reduced network")
        if classify(self.network).kind is not PhyloKind.ROOTED_DAG_DEG1_ROOT:
            raise InternalError("reduced network misses the degree-1-root form")
        if classify(self.tree).kind is not PhyloKind.ROOTED_DAG_DEG1_ROOT:
            raise InternalError("reduced tree misses the degree-1-root form")
        if not self.network.is_binary():
            raise InternalError("reduced network is not binary")
        if any(self.tree.in_degree(v) > 1 for v in self.tree.vertices):
            raise InternalError("reduced tree is not an out-tree")
        if self.network.taxa != self.tree.taxa:
            raise InternalError("network and tree taxa differ after reduction")
        self.extension.require_valid()
        problems = self.extension.canonicality_violations()
        if problems:
            raise InternalError("extension is not canonical: " + "; ".join(problems))


def replay_trace(n: Digraph, trace: ReductionTrace) -> Digraph:
    """Re-apply the recorded network-side steps; returns the reduced network."""
    work = n
    for step in trace.steps:
        if isinstance(step, RestrictStep):
            work = step.new_host
        elif isinstance(step, StretchStep):
            work = step.gadget.apply(work)
        elif isinstance(step, InSplitStep):
            work = work.in_split(step.vertex, step.parents, step.new_vertex)
        elif isinstance(step, AttachRootStep):
            work = Digraph(list(work.arcs) + [(step.new_root, work.root())], work.labels)
        else:
            raise InternalError(f"unknown trace step {step!r}")
    return work


def _carry(ext: TreeExtension, step, trace: ReductionTrace, *,
           kind: str, vertex=None, degree=0) -> TreeExtension:
    # `ext` caches its width, so "before" is the previous step's "after".
    before = ext.width()
    ext = update_extension(ext, step)
    trace.steps.append(step)
    trace.width_audits.append(WidthAudit(kind, vertex, degree, before, ext.width()))
    return ext


def reduce_network(n: Digraph, ext: TreeExtension | None = None, *,
                   taxa=None) -> tuple[TreeExtension, ReductionTrace, str]:
    """Run the network side of the pipeline; returns the carried extension
    (over the augmented network), the trace, and the fresh root id."""
    if ext is None:
        ext = default_extension(n)
    if ext.host != n:
        raise InputError("extension does not belong to the given network")
    ext.require_valid()
    trace = ReductionTrace()
    if taxa is not None and set(taxa) != n.taxa:
        pruned, step = prune_to_leafset(n, taxa)
        ext = _carry(ext, step, trace, kind="prune")
    for v in sorted(ext.host.vertices):
        if ext.host.out_degree(v) >= 3:
            degree = ext.host.out_degree(v)
            gadget = _make_gadget(ext.host, v)
            ext = _carry(ext, StretchStep(v, gadget), trace,
                         kind="stretch", vertex=v, degree=degree)
    while True:
        host = ext.host
        target = next((v for v in host.vertices if host.in_degree(v) >= 3), None)
        if target is None:
            break
        p1, p2 = sorted(host.parents(target))[:2]
        new_id = host.fresh_ids(1)[0]
        ext = _carry(ext, InSplitStep(target, (p1, p2), new_id), trace,
                     kind="insplit", vertex=target, degree=host.in_degree(target))
    rho_n = ext.host.fresh_ids(1)[0]
    ext = _carry(ext, AttachRootStep(rho_n), trace, kind="attach_root")
    ext = canonicalize(ext)
    return ext, trace, rho_n


def preprocess(n: Digraph, t: Digraph,
               ext: TreeExtension | None = None) -> AugmentedInstance:
    """Produce a solver-ready instance from a network, tree, and extension.

    The returned instance has passed `AugmentedInstance.check`.
    """
    n_class = classify(n)
    if n_class.kind not in (PhyloKind.NETWORK, PhyloKind.TREE):
        raise SemanticError(f"not a phylogenetic network: {n_class.reason}")
    t_class = classify(t)
    if t_class.kind is not PhyloKind.TREE:
        raise SemanticError(f"not a phylogenetic tree: {t_class.reason}")
    if not t.taxa <= n.taxa:
        raise SemanticError(
            f"tree taxa missing from the network: {sorted(t.taxa - n.taxa)}")
    ext, trace, rho_n = reduce_network(n, ext, taxa=t.taxa)
    rho_t = t.fresh_ids(1)[0]
    t_aug = Digraph(list(t.arcs) + [(rho_t, t.root())], t.labels)
    inst = AugmentedInstance(ext.host, t_aug, ext, trace, rho_n, rho_t)
    inst.check()
    return inst
