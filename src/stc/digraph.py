"""Immutable directed graphs with leaf labels.

Vertices are opaque string ids.  A graph is a value that nothing changes
after construction, so it can be shared freely between threads.  Iteration
order is sorted everywhere to keep downstream output reproducible.

`Digraph(arcs, labels, vertices)` checks the invariants and sorts.
`Digraph._of(vertices, parents, children, labels)` takes sorted maps that
meet them already, as the parsers (which check with line and column) and
the reduction's rewrites hold them; both fill the fields through `_fill`.
The adjacency maps `_parents` and `_children` (vertex -> sorted tuple, keyed
in sorted vertex order) are read directly by the package's own whole-graph
passes, which would otherwise pay a checked method call per vertex.

Derived facts are computed on first access and stored in the instance dict
by `_cached`, which takes no lock (unlike `functools.cached_property` before
Python 3.12): threads racing on a first access may each compute the same
value, which is harmless.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from heapq import heappop, heappush

from .errors import InputError

Arc = tuple[str, str]

_FRESH_ID_RE = re.compile(r"^g(\d+)$")


class _cached:
    """A lazily computed attribute: the first access stores the value in the
    instance dict, which then shadows this non-data descriptor."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _adjacency(vertices, arcs) -> tuple[dict, dict]:
    """The parent and child maps of `vertices` (sorted) for `arcs` (distinct,
    between those vertices), keyed in vertex order.  Each tuple keeps the
    order of `arcs`, so each tail's heads and each head's tails must come in
    sorted order, as they do when `arcs` is sorted."""
    parents: dict = {v: [] for v in vertices}
    children: dict = {v: [] for v in vertices}
    for u, v in arcs:
        children[u].append(v)
        parents[v].append(u)
    return ({v: tuple(ps) for v, ps in parents.items()},
            {v: tuple(cs) for v, cs in children.items()})


class Digraph:
    """A finite digraph with an optional taxon label on each sink vertex.

    Arcs are hashable `(tail, head)` pairs.  Invariants enforced at
    construction: no self-loops (arc pairs have distinct endpoints), labels
    sit only on vertices of out-degree 0, and labels are pairwise distinct.
    """

    def __init__(self, arcs, labels=None, vertices=()):
        arcs = sorted(set(arcs))
        verts = set(vertices)
        for (u, v) in arcs:
            if u == v:
                raise InputError(f"self-loop on {u!r}")
            verts.add(u)
            verts.add(v)
        if not verts:
            raise InputError("a digraph needs at least one vertex")
        vertices = tuple(sorted(verts))
        parents, children = _adjacency(vertices, arcs)
        labels = dict(labels or {})
        for v, taxon in labels.items():
            if v not in children:
                raise InputError(f"label on unknown vertex {v!r}")
            if children[v]:
                raise InputError(f"label {taxon!r} on non-leaf vertex {v!r}")
        if len(set(labels.values())) != len(labels):
            raise InputError("duplicate taxon labels")
        self._fill(vertices, parents, children, dict(sorted(labels.items())))

    @classmethod
    def _of(cls, vertices, parents, children, labels) -> "Digraph":
        """The graph of `vertices` (a sorted tuple), `parents` and `children`
        (keyed in that order, sorted tuples) and `labels` (sorted by vertex),
        taken as they are: nobody may mutate them afterwards."""
        graph = cls.__new__(cls)
        graph._fill(vertices, parents, children, labels)
        return graph

    def _fill(self, vertices, parents, children, labels) -> None:
        self._vertices = vertices
        self._parents = parents
        self._children = children
        self._labels = labels

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @_cached
    def arcs(self) -> tuple[Arc, ...]:
        """Every arc, sorted."""
        children = self._children
        return tuple([(u, v) for u in self._vertices for v in children[u]])

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
                and self._children == other._children
                and self._labels == other._labels)

    def __hash__(self) -> int:
        return hash((self._vertices, self.arcs, tuple(self._labels.items())))

    def __repr__(self) -> str:
        return f"Digraph({len(self._vertices)} vertices, {len(self.arcs)} arcs)"

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

    @_cached
    def max_out_degree(self) -> int:
        return max(len(cs) for cs in self._children.values())

    @_cached
    def max_in_degree(self) -> int:
        return max(len(ps) for ps in self._parents.values())

    @_cached
    def leaves(self) -> tuple[str, ...]:
        return tuple(v for v in self._vertices if not self._children[v])

    @_cached
    def roots(self) -> tuple[str, ...]:
        return tuple(v for v in self._vertices if not self._parents[v])

    def root(self) -> str:
        if len(self.roots) != 1:
            raise InputError(f"graph has {len(self.roots)} roots, expected 1")
        return self.roots[0]

    def label_of(self, v) -> str | None:
        self._require(v)
        return self._labels.get(v)

    @_cached
    def taxa(self) -> frozenset[str]:
        """The set of taxon labels present on leaves."""
        return frozenset(self._labels.values())

    @_cached
    def leaf_by_taxon(self) -> dict[str, str]:
        return {taxon: v for v, taxon in self._labels.items()}

    # -- topological order -------------------------------------------------

    @_cached
    def _topo_order(self) -> tuple[str, ...] | None:
        """A sorted-tie-break topological order, or None if cyclic: the one
        Kahn pass, through a heap of sources.  It answers `is_acyclic` for
        every graph that is not a candidate out-tree (see `_acyclic`), and
        `topological_order()` for every graph."""
        children = self._children
        indeg = {v: len(ps) for v, ps in self._parents.items()}
        heap = [v for v, d in indeg.items() if not d]  # sorted, so a heap
        order = []
        while heap:
            v = heappop(heap)
            order.append(v)
            for w in children[v]:
                d = indeg[w] - 1
                indeg[w] = d
                if not d:
                    heappush(heap, w)
        if len(order) != len(self._vertices):
            return None
        return tuple(order)

    @_cached
    def _acyclic(self) -> bool:
        """Whether no directed cycle exists: recorded by `_proven_acyclic`
        where a proof is at hand, else decided here.

        A graph with one root and no vertex of in-degree 2 or more, as
        every phylogenetic tree has, is acyclic iff one walk from the root
        reaches every vertex: the lemma of `_out_tree_root`.  The walk
        meets each vertex at most once, so it needs no record of what it
        has seen: what the root reaches holds no cycle, whose first vertex
        on a path from the root would have two parents, so following the
        one parent of a met vertex leads back to the root along one path.
        Every other graph is read off the sorted order of `_topo_order`."""
        roots = self.roots
        if len(roots) == 1 and self.max_in_degree <= 1:
            children, reached = self._children, list(roots)
            for v in reached:   # the loop meets what it appends
                reached.extend(children[v])
            return len(reached) == len(self._vertices)
        return self._topo_order is not None

    def is_acyclic(self) -> bool:
        return self._acyclic

    def topological_order(self) -> tuple[str, ...]:
        if self._topo_order is None:
            raise InputError("graph is not acyclic")
        return self._topo_order

    # -- fresh ids ---------------------------------------------------------

    def fresh_names(self) -> Iterator[str]:
        """A new endless iterator of the ids g<n>, n counting up from past
        every such id of the graph, so that none collides with a vertex.
        The ids that start with `g` are one run of the sorted vertices, and
        only they are matched."""
        vertices = self._vertices
        run = vertices[bisect_left(vertices, "g"):bisect_left(vertices, "h")]
        used = [int(m[1]) for m in map(_FRESH_ID_RE.match, run) if m]
        return (f"g{n}" for n in itertools.count(max(used, default=-1) + 1))

    def fresh_ids(self, count) -> tuple[str, ...]:
        """The first `count` of `fresh_names()`."""
        return tuple(itertools.islice(self.fresh_names(), count))


# -- classification --------------------------------------------------------


class PhyloKind(Enum):
    NETWORK = "network"
    TREE = "tree"
    ROOTED_DAG_DEG1_ROOT = "rooted-dag-with-degree-1-root"
    INVALID = "invalid"


class PhyloClass(namedtuple("PhyloClass", "kind reason", defaults=(None,))):
    """A `PhyloKind` and, for a near-miss or an invalid graph, the reason
    (for a network, its first reticulation)."""
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.kind is not PhyloKind.INVALID


def _invalid(reason: str) -> PhyloClass:
    return PhyloClass(PhyloKind.INVALID, reason)


def classify(d: Digraph) -> PhyloClass:
    """Classify a digraph as a phylogenetic network, tree, or near-miss.

    Rules are checked in a fixed order so the reported violation is
    deterministic: multiple roots, cycle, root degree, degree pattern,
    label placement, leaf count.  The reason names the violation, and for a
    network its first reticulation.
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
    reticulation = None     # the first, named as the reason of a network
    for v, ps in parents.items():
        din, dout = len(ps), len(children[v])
        if din == 1 and dout == 1:
            return _invalid(f"vertex {v!r} has in-degree 1 and out-degree 1")
        if din >= 2:
            if dout != 1:
                return _invalid(f"vertex {v!r} has in-degree {din} and out-degree {dout}")
            if reticulation is None:
                reticulation = f"vertex {v!r} has in-degree {din}"
    # One test in C decides that every leaf carries a taxon; the loop runs
    # only to name the first leaf that carries none.  `None` is no taxon.
    labels, leaves = d._labels, d.leaves
    if not all(map(labels.__contains__, leaves)) or None in labels.values():
        for v in leaves:
            if labels.get(v) is None:
                return _invalid(f"unlabeled leaf {v!r}")
    if len(leaves) < 2:
        return _invalid("fewer than 2 leaves")
    if root_out == 1:
        return PhyloClass(PhyloKind.ROOTED_DAG_DEG1_ROOT, "root out-degree 1")
    if reticulation is None:
        return PhyloClass(PhyloKind.TREE)
    return PhyloClass(PhyloKind.NETWORK, reticulation)


def _proven_acyclic(d: Digraph) -> Digraph:
    """`d`, with the record that it is acyclic, for a graph already proven
    so, for example by a valid tree extension of it: `is_acyclic` then
    answers without a Kahn pass."""
    d.__dict__["_acyclic"] = True
    return d


# -- extended reachability -------------------------------------------------


def _is_arc(x) -> bool:
    return isinstance(x, tuple)


def _reaches(children, u, v) -> bool:
    """Whether `u` weakly reaches `v` along `children`, a child map that may
    be cyclic and may leave out childless vertices."""
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for w in children.get(x, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def reaches(d: Digraph, a, b) -> bool:
    """Strict reachability extended to arcs.

    Vertex-to-vertex is ordinary strict reachability, and a vertex never
    reaches itself.  An arc relates through its head: (w, x) reaches
    whatever x weakly reaches, and a vertex reaches an arc if it weakly
    reaches the arc's tail.  Each call runs its own search, and a cyclic
    graph gets an answer too.
    """
    for x in (a, b):
        if _is_arc(x):
            if not d.has_arc(*x):
                raise InputError(f"unknown arc {x!r}")
        else:
            if x not in d:
                raise InputError(f"unknown vertex {x!r}")
    children = d._children
    if _is_arc(a):
        if _is_arc(b):
            return _reaches(children, a[1], b[0])
        return _reaches(children, a[1], b)
    if _is_arc(b):
        return _reaches(children, a, b[0])
    return a != b and _reaches(children, a, b)


# -- subtree tests on out-trees --------------------------------------------

_CYCLIC_TREE = "not an out-tree: cyclic"


def _out_tree_root(tree: Digraph) -> str:
    """The root of `tree`; raises `InputError` unless `tree` has one root
    and no vertex with two parents.  Such a graph is an out-tree iff it is
    acyclic: a vertex that the root does not reach has a parent that the
    root does not reach, so following parents from it closes a cycle."""
    if tree.max_in_degree > 1:
        raise InputError("not an out-tree: a vertex has two parents")
    return tree.root()


def _require_out_tree(tree: Digraph) -> None:
    """Raise `InputError` unless `tree` is an out-tree, with the message of
    `TreeIndex(tree)`, from facts that the graph caches."""
    _out_tree_root(tree)
    if not tree.is_acyclic():
        raise InputError(_CYCLIC_TREE)


class TreeIndex:
    """Pre-order numbers of an out-tree: `v` lies in the subtree of `t`
    iff pre[t] <= pre[v] < end[t].

    Built with an explicit stack, so deep trees are fine.  Raises
    `InputError` unless `tree` is an out-tree.
    """

    def __init__(self, tree: Digraph):
        root = _out_tree_root(tree)
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
            raise InputError(_CYCLIC_TREE)
        self.order = tuple(order)
        self.pre = pre
        self.end = end
        self.parent = parent

    def in_subtree(self, t: str, v: str) -> bool:
        return self.pre[t] <= self.pre[v] < self.end[t]

    def strictly_below(self, t: str, v: str) -> bool:
        return self.pre[t] < self.pre[v] < self.end[t]
