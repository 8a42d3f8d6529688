"""Seeded random instance generator for tests and benchmarks.

Instances are built constructively: grow a random binary tree, add cross
arcs to create reticulations, extract a displayed tree, and optionally
contract arcs on either side to create polytomies.  Output is byte-stable
for a fixed parameter set.

The steps edit a sorted arc list or adjacency maps, not a `Digraph`; each
keeps the graph a network, so `generate` classifies it once.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from .digraph import Digraph, PhyloKind, _reaches, classify
from .errors import InputError, SemanticError
from .extension import TreeExtension, default_extension
from .formats import serialize_edgelist, serialize_extension
from .reduction import tidy

_TARGETS = ("yes-biased", "unlabeled")


@dataclass(frozen=True)
class GeneratorParams:
    leaves: int
    reticulations: int = 0
    polytomy_rate: float = 0.0
    seed: int = 0
    target_answer: str = "yes-biased"

    def __post_init__(self):
        if self.leaves < 2:
            raise InputError("need at least 2 leaves")
        if self.reticulations < 0:
            raise InputError("reticulation count must be nonnegative")
        if not 0.0 <= self.polytomy_rate <= 1.0:
            raise InputError("polytomy rate must lie in [0, 1]")
        if self.target_answer not in _TARGETS:
            raise InputError(f"target answer must be one of {_TARGETS}")


@dataclass(frozen=True)
class GeneratedInstance:
    network: Digraph
    tree: Digraph
    extension: TreeExtension
    network_doc: str
    tree_doc: str
    extension_doc: str


def _random_binary_tree(rng, leaves, counter) -> list:
    """The sorted arcs of a random binary tree with `leaves` leaves."""
    def fresh():
        counter[0] += 1
        return f"v{counter[0] - 1}"

    root = fresh()
    arcs = [(root, fresh()), (root, fresh())]
    for _ in range(leaves - 2):
        (u, v) = rng.choice(arcs)
        mid, leaf = fresh(), fresh()
        del arcs[bisect_left(arcs, (u, v))]
        for arc in ((u, mid), (mid, v), (mid, leaf)):
            insort(arcs, arc)
    return arcs


def _add_reticulation(rng, arcs, children, retics, counter) -> bool:
    """One attempt at adding a cross arc to a network given by its sorted
    `arcs`, its child map `children` and its sorted reticulations `retics`,
    which it edits in place.  False, with only `counter` changed, when the
    arc would leave no network, that is when it draws one arc twice, aims a
    parallel arc or closes a cycle."""
    if retics and rng.random() < 0.3:
        # aim at an existing reticulation, raising its in-degree
        r = rng.choice(retics)
        (a, b) = rng.choice(arcs)
        if b == r or _reaches(children, r, a):   # parallel arcs, or a cycle
            return False
        mid = f"v{counter[0]}"
        counter[0] += 1
        removed = [(a, b)]
        added = [(a, mid), (mid, b), (mid, r)]
    else:
        (a, b) = rng.choice(arcs)
        (c, d) = rng.choice(arcs)
        if (a, b) == (c, d):
            return False
        x, y = f"v{counter[0]}", f"v{counter[0] + 1}"
        counter[0] += 2     # spent even on a rejection: later ids depend on it
        if _reaches(children, d, a):    # the cycle x -> y -> d ~> a -> x
            return False
        removed = [(a, b), (c, d)]
        added = [(a, x), (x, b), (c, y), (y, d), (x, y)]
        insort(retics, y)   # no other in-degree changes in either branch
    for (u, v) in removed:
        del arcs[bisect_left(arcs, (u, v))]
        children[u].remove(v)
    for (u, v) in added:
        insort(arcs, (u, v))
        children.setdefault(u, []).append(v)
    return True


def _contract_marked(work: Digraph, marked) -> Digraph:
    """`work` with each marked arc (u, v) contracted in turn, where u stands
    for the vertex it was merged into, when that tail t is v's one parent
    and shares no child with v (that child's two in-arcs would merge).

    Marks as `generate` draws them keep `work` a network or tree.  v has one
    parent, so no cycle closes.  v has out-degree 2 or more, so t keeps out-
    degree 2 or more.  No other in-degree changes, so t keeps the in-degree
    at most 1 that marks require and never becomes a reticulation.
    """
    parents = {x: set(ps) for x, ps in work._parents.items()}
    children = {x: set(cs) for x, cs in work._children.items()}
    merged: dict = {}

    def find(v):
        while v in merged:
            v = merged[v]
        return v

    for (u, v) in marked:
        tail = find(u)
        if parents.get(v) != {tail} or children[tail] & children[v]:
            continue
        del parents[v]
        moved = children.pop(v)
        children[tail].remove(v)
        children[tail] |= moved
        for w in moved:
            parents[w].remove(v)
            parents[w].add(tail)
        merged[v] = tail
    return Digraph([(x, w) for x, ws in children.items() for w in ws],
                   work._labels, children)


def generate(params: GeneratorParams) -> GeneratedInstance:
    """Build one (network, tree, extension) instance from the parameters."""
    rng = random.Random(params.seed)
    counter = [0]
    arcs = _random_binary_tree(rng, params.leaves, counter)
    children: dict = {}
    for u, v in arcs:
        children.setdefault(u, []).append(v)
    retics: list = []   # a tree has none
    added = 0
    attempts = 0
    while added < params.reticulations:
        attempts += 1
        if attempts > 200 * params.reticulations + 200:
            raise SemanticError(
                f"could not place {params.reticulations} reticulations "
                f"on {params.leaves} leaves")
        if _add_reticulation(rng, arcs, children, retics, counter):
            added += 1

    leaf_ids = sorted({v for _, v in arcs} - {u for u, _ in arcs})
    labels = {v: f"t{i + 1}" for i, v in enumerate(leaf_ids)}
    network = Digraph(arcs, labels)
    if classify(network).kind not in (PhyloKind.NETWORK, PhyloKind.TREE):
        raise SemanticError("generator produced an invalid network")

    # extract a displayed tree by keeping one in-arc per reticulation
    dropped = set()
    for r in sorted(v for v in network.vertices if network.in_degree(v) >= 2):
        keep = rng.choice(sorted(network.parents(r)))
        dropped.update((p, r) for p in network.parents(r) if p != keep)
    kept = [a for a in network.arcs if a not in dropped]
    tree = tidy(Digraph(kept, labels), network.taxa)

    if params.polytomy_rate > 0:
        t_marks = [(u, v) for (u, v) in sorted(tree.arcs)
                   if tree.children(v) and rng.random() < params.polytomy_rate]
        tree = _contract_marked(tree, t_marks)
        n_marks = [(u, v) for (u, v) in sorted(network.arcs)
                   if network.children(v) and network.in_degree(v) == 1
                   and network.in_degree(u) <= 1
                   and rng.random() < params.polytomy_rate]
        network = _contract_marked(network, n_marks)

    if params.target_answer == "unlabeled":
        taxa = sorted(tree.taxa)
        image = rng.sample(taxa, len(taxa))
        relabel = dict(zip(taxa, image))
        tree = Digraph(tree.arcs,
                       {v: relabel[t] for v, t in tree.labels.items()})

    ext = default_extension(network)
    return GeneratedInstance(
        network=network,
        tree=tree,
        extension=ext,
        network_doc=serialize_edgelist(network, f"gen-{params.seed}"),
        tree_doc=serialize_edgelist(tree, f"gen-{params.seed}-tree"),
        extension_doc=serialize_extension(ext),
    )
