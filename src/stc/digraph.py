"""Immutable directed graphs with leaf labels.

Vertices are opaque string ids.  A graph is a value: every rewrite returns a
fresh graph and never mutates its input, so graphs can be shared freely
between threads.  Iteration order is sorted everywhere to keep downstream
output reproducible.

The adjacency maps `_parents` and `_children` (vertex -> sorted tuple) are
read directly by the package's own whole-graph passes, which would
otherwise pay a checked method call per vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from enum import Enum
from functools import cached_property

from .errors import InputError, RewriteError

Arc = tuple[str, str]

_FRESH_ID_RE = re.compile(r"^g(\d+)$")


class Digraph:
    """A finite digraph with an optional taxon label on each sink vertex.

    Arcs are hashable `(tail, head)` pairs.  Invariants enforced at
    construction: no self-loops (arc pairs have distinct endpoints), labels
    sit only on vertices of out-degree 0, and labels are pairwise distinct.
    """

    def __init__(self, arcs, labels=None, vertices=()):
        arcset = set(arcs)
        verts = set(vertices)
        verts.update(chain.from_iterable(arcset))
        if not verts:
            raise InputError("a digraph needs at least one vertex")
        self._vertices = tuple(sorted(verts))
        # Sorting each tail's heads lists the arcs in sorted order, and each
        # head's tails in sorted order too, with no sort over all arcs.
        children = {v: [] for v in self._vertices}
        for (u, v) in arcset:
            children[u].append(v)
        parents = {v: [] for v in self._vertices}
        ordered = []
        for u, heads in children.items():
            heads.sort()
            for v in heads:
                if u == v:
                    raise InputError(f"self-loop on {u!r}")
                parents[v].append(u)
                ordered.append((u, v))
        self._arcs = tuple(ordered)
        self._parents = {v: tuple(ps) for v, ps in parents.items()}
        self._children = {v: tuple(cs) for v, cs in children.items()}
        labels = dict(labels or {})
        for v, taxon in labels.items():
            if v not in parents:
                raise InputError(f"label on unknown vertex {v!r}")
            if children[v]:
                raise InputError(f"label {taxon!r} on non-leaf vertex {v!r}")
        if len(set(labels.values())) != len(labels):
            raise InputError("duplicate taxon labels")
        self._labels = dict(sorted(labels.items()))

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def arcs(self) -> tuple[Arc, ...]:
        return self._arcs

    @property
    def labels(self) -> dict[str, str]:
        return dict(self._labels)

    def __contains__(self, v) -> bool:
        return v in self._parents

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self._vertices == other._vertices
                and self._arcs == other._arcs
                and self._labels == other._labels)

    def __hash__(self) -> int:
        return hash((self._vertices, self._arcs, tuple(self._labels.items())))

    def __repr__(self) -> str:
        return f"Digraph({len(self._vertices)} vertices, {len(self._arcs)} arcs)"

    def _require(self, v) -> None:
        if v not in self._parents:
            raise InputError(f"unknown vertex {v!r}")

    def has_arc(self, u, v) -> bool:
        return v in self._children.get(u, ())

    def parents(self, v) -> tuple[str, ...]:
        self._require(v)
        return self._parents[v]

    def children(self, v) -> tuple[str, ...]:
        self._require(v)
        return self._children[v]

    def out_arcs(self, v) -> tuple[Arc, ...]:
        return tuple((v, w) for w in self.children(v))

    def in_degree(self, v) -> int:
        return len(self.parents(v))

    def out_degree(self, v) -> int:
        return len(self.children(v))

    @cached_property
    def max_out_degree(self) -> int:
        return max(len(cs) for cs in self._children.values())

    @cached_property
    def max_in_degree(self) -> int:
        return max(len(ps) for ps in self._parents.values())

    @cached_property
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self._vertices if not self._children[v])

    @cached_property
    def roots(self) -> tuple[str, ...]:
        return tuple(v for v in self._vertices if not self._parents[v])

    def root(self) -> str:
        if len(self.roots) != 1:
            raise InputError(f"graph has {len(self.roots)} roots, expected 1")
        return self.roots[0]

    def label_of(self, v) -> str | None:
        self._require(v)
        return self._labels.get(v)

    @cached_property
    def taxa(self) -> frozenset[str]:
        """The set of taxon labels present on leaves."""
        return frozenset(self._labels.values())

    @cached_property
    def leaf_by_taxon(self) -> dict[str, str]:
        return {taxon: v for v, taxon in self._labels.items()}

    # -- reachability ------------------------------------------------------

    @cached_property
    def _topo_order(self) -> tuple[str, ...] | None:
        """A sorted-tie-break topological order, or None if cyclic."""
        import heapq
        indeg = {v: len(self._parents[v]) for v in self._vertices}
        heap = [v for v in self._vertices if not indeg[v]]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in self._children[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(order) != len(self._vertices):
            return None
        return tuple(order)

    def is_acyclic(self) -> bool:
        return self._topo_order is not None

    def topological_order(self) -> tuple[str, ...]:
        if self._topo_order is None:
            raise InputError("graph is not acyclic")
        return self._topo_order

    @cached_property
    def _descendants(self) -> dict[str, frozenset[str]]:
        """Strict descendants of every vertex (requires acyclicity)."""
        order = self.topological_order()
        desc: dict[str, frozenset[str]] = {}
        for v in reversed(order):
            acc: set[str] = set()
            for w in self._children[v]:
                acc.add(w)
                acc.update(desc[w])
            desc[v] = frozenset(acc)
        return desc

    def descendants(self, v) -> frozenset[str]:
        self._require(v)
        return self._descendants[v]

    def reachable(self, u, v) -> bool:
        """Vertex-to-vertex reachability, length 0 allowed."""
        self._require(u)
        self._require(v)
        return u == v or v in self._descendants[u]

    # -- rewriting ---------------------------------------------------------

    @cached_property
    def _fresh_counter(self) -> int:
        best = 0
        for v in self._vertices:
            m = _FRESH_ID_RE.match(v)
            if m:
                best = max(best, int(m.group(1)) + 1)
        return best

    def fresh_ids(self, count) -> tuple[str, ...]:
        """`count` ids of the form g<n> that do not collide with existing ones."""
        start = self._fresh_counter
        return tuple(f"g{start + i}" for i in range(count))

    def contract(self, arc) -> "Digraph":
        """Contract (u, v): v's neighbors move to u, v disappears.

        Duplicate arcs collapse by set semantics.
        """
        (u, v) = arc
        if not self.has_arc(u, v):
            raise RewriteError(f"cannot contract missing arc ({u!r}, {v!r})")
        arcs = []
        for (a, b) in self._arcs:
            if (a, b) == (u, v):
                continue
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                arcs.append((a2, b2))
        labels = {x: t for x, t in self._labels.items() if x != v}
        vertices = [x for x in self._vertices if x != v]
        return Digraph(arcs, labels, vertices)


# -- classification --------------------------------------------------------


class PhyloKind(Enum):
    NETWORK = "network"
    TREE = "tree"
    ROOTED_DAG_DEG1_ROOT = "rooted-dag-with-degree-1-root"
    INVALID = "invalid"


@dataclass(frozen=True)
class PhyloClass:
    kind: PhyloKind
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.kind is not PhyloKind.INVALID


def _invalid(reason: str) -> PhyloClass:
    return PhyloClass(PhyloKind.INVALID, reason)


def classify(d: Digraph) -> PhyloClass:
    """Classify a digraph as a phylogenetic network, tree, or near-miss.

    Rules are checked in a fixed order so the reported violation is
    deterministic: multiple roots, cycle, root degree, degree pattern,
    label placement, leaf count.
    """
    roots = d.roots
    if len(roots) == 0:
        return _invalid("no root")
    if len(roots) > 1:
        return _invalid(f"multiple roots: {', '.join(roots)}")
    if not d.is_acyclic():
        return _invalid("contains a directed cycle")
    root = roots[0]
    parents, children = d._parents, d._children
    root_out = len(children[root])
    if root_out == 0:
        return _invalid("root out-degree 0")
    reticulations = 0
    for v, ps in parents.items():
        din, dout = len(ps), len(children[v])
        if din == 1 and dout == 1:
            return _invalid(f"vertex {v!r} has in-degree 1 and out-degree 1")
        if din >= 2:
            if dout != 1:
                return _invalid(f"vertex {v!r} has in-degree {din} and out-degree {dout}")
            reticulations += 1
    labels = d._labels
    for v in d.leaves:
        if labels.get(v) is None:
            return _invalid(f"unlabeled leaf {v!r}")
    if len(d.leaves) < 2:
        return _invalid("fewer than 2 leaves")
    if root_out == 1:
        return PhyloClass(PhyloKind.ROOTED_DAG_DEG1_ROOT, "root out-degree 1")
    if reticulations == 0:
        return PhyloClass(PhyloKind.TREE)
    return PhyloClass(PhyloKind.NETWORK)


# -- extended reachability -------------------------------------------------


def _is_arc(x) -> bool:
    return isinstance(x, tuple)


def reaches(d: Digraph, a, b) -> bool:
    """Strict reachability extended to arcs.

    Vertex-to-vertex is ordinary strict reachability.  An arc relates
    through its head: (w, x) reaches whatever x weakly reaches, and a
    vertex reaches an arc if it weakly reaches the arc's tail.
    """
    for x in (a, b):
        if _is_arc(x):
            if not d.has_arc(*x):
                raise InputError(f"unknown arc {x!r}")
        else:
            if x not in d:
                raise InputError(f"unknown vertex {x!r}")
    if _is_arc(a):
        if _is_arc(b):
            return d.reachable(a[1], b[0])
        return d.reachable(a[1], b)
    if _is_arc(b):
        return d.reachable(a, b[0])
    return a != b and d.reachable(a, b)


# -- subtree tests on out-trees --------------------------------------------


class TreeIndex:
    """Pre-order numbers of an out-tree: `v` lies in the subtree of `t`
    iff pre[t] <= pre[v] < end[t].

    Built with an explicit stack, so deep trees are fine.  Raises
    `InputError` unless `tree` is an out-tree.
    """

    def __init__(self, tree: Digraph):
        if tree.max_in_degree > 1:
            raise InputError("not an out-tree: a vertex has two parents")
        root = tree.root()
        children = tree._children
        order: list[str] = []
        pre: dict[str, int] = {}
        end: dict[str, int] = {}
        parent: dict[str, str] = {}
        stack = [(root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                end[v] = len(order)
                continue
            pre[v] = len(order)
            order.append(v)
            stack.append((v, True))
            for c in reversed(children[v]):
                parent[c] = v
                stack.append((c, False))
        if len(order) != len(tree):
            raise InputError("not an out-tree: cyclic")
        self.order = tuple(order)
        self.pre = pre
        self.end = end
        self.parent = parent

    def in_subtree(self, t: str, v: str) -> bool:
        return self.pre[t] <= self.pre[v] < self.end[t]

    def strictly_below(self, t: str, v: str) -> bool:
        return self.pre[t] < self.pre[v] < self.end[t]
