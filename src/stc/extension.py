"""Tree extensions of rooted DAGs: validation, scan cuts, width, canonical form.

A tree extension of a DAG is an out-tree over the same vertex set whose
strict ancestor relation contains every arc of the DAG.  The scan cut just
above a vertex collects the DAG arcs that cross a horizontal line drawn
there; the maximum cut size is the width driving the dynamic program.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

from .digraph import Arc, Digraph, TreeIndex, _adjacency, _cached, _walk
from .errors import InputError, InternalError, RewriteError

CUT_ABOVE = "above"
CUT_BELOW = "below"


class TreeExtension:
    """An out-tree `gamma` over the vertices of a host DAG.

    Both graphs are immutable, so everything derived from them (validity,
    the pre-order index, the cut sizes) is computed once and cached.
    """

    def __init__(self, host: Digraph, gamma: Digraph):
        self.host = host
        self.gamma = gamma

    def __eq__(self, other):
        if not isinstance(other, TreeExtension):
            return NotImplemented
        return self.host == other.host and self.gamma == other.gamma

    def __repr__(self):
        return f"TreeExtension({len(self.gamma)} vertices)"

    @_cached
    def _violations(self) -> tuple[str, ...]:
        out = []
        host, gamma = self.host, self.gamma
        if host.vertices != gamma.vertices:
            hv, gv = set(host.vertices), set(gamma.vertices)
            missing = sorted(hv - gv)
            extra = sorted(gv - hv)
            if missing:
                out.append(f"vertex-set mismatch: missing {', '.join(missing)}")
            if extra:
                out.append(f"vertex-set mismatch: extra {', '.join(extra)}")
        if len(gamma.roots) != 1:
            out.append(f"not an out-tree: {len(gamma.roots)} roots")
        elif gamma.max_in_degree > 1:
            bad = next(v for v, ps in gamma._parents.items() if len(ps) > 1)
            out.append(f"not an out-tree: in-degree > 1 at {bad}")
        elif self._index is None:
            out.append("not an out-tree: cyclic")
        if out:
            return tuple(out)
        pre, end = self._index.pre, self._index.end
        return tuple(f"arc ({u}, {v}) not inside the strict ancestor relation"
                     for (u, v) in host.arcs if not pre[u] < pre[v] < end[u])

    @_cached
    def _index(self) -> TreeIndex | None:
        """The pre-order index of `gamma`, or None if `gamma` is no out-tree."""
        try:
            return TreeIndex(self.gamma)
        except InputError:
            return None

    def violations(self) -> list[str]:
        """Every violated extension clause, each with a witness."""
        return list(self._violations)

    def is_valid(self) -> bool:
        return not self._violations

    def require_valid(self) -> None:
        problems = self._violations
        if problems:
            raise InputError("invalid tree extension: " + "; ".join(problems))

    def _valid_index(self) -> TreeIndex:
        self.require_valid()
        return self._index

    # -- scan cuts ---------------------------------------------------------

    def scan_cut(self, t: str, kind: str = CUT_ABOVE) -> tuple[Arc, ...]:
        """The host arcs crossing just above (or just below) `t`.

        Every host arc points down the extension, so the cut above `t` is
        the arcs entering the subtree of `t`, and the cut below `t` is the
        arcs entering that subtree with `t` itself left out.
        """
        if t not in self.gamma:
            raise InputError(f"unknown vertex {t!r}")
        if kind not in (CUT_ABOVE, CUT_BELOW):
            raise InputError(f"unknown cut kind {kind!r}")
        index = self._valid_index()
        inside = index.in_subtree if kind == CUT_ABOVE else index.strictly_below
        return tuple((u, v) for (u, v) in self.host.arcs
                     if inside(t, v) and not inside(t, u))

    @_cached
    def _cut_sizes(self) -> dict[str, tuple[int, int]]:
        index = self._valid_index()
        parents, children = self.host._parents, self.host._children
        above = _cut_above(index.order, index.parent, parents, children)
        return {v: (a, a - len(parents[v]) + len(children[v]))
                for v, a in above.items()}

    def cut_sizes(self) -> dict[str, tuple[int, int]]:
        """(size of the cut above, size of the cut below) for every vertex."""
        return dict(self._cut_sizes)

    def width(self) -> int:
        """Maximum size of a cut just above any vertex."""
        return max(above for above, _ in self._cut_sizes.values())

    # -- canonicality ------------------------------------------------------

    def canonicality_violations(self) -> list[str]:
        """Check the four canonical-extension clauses (requires validity).

        Connectivity is decided by a local test, in one pass with the
        out-degree and leaf-set clauses.  Lemma: the host below every vertex
        is weakly connected iff each extension child `c` of each vertex `t`
        holds a host child of `t` in its subtree.  Every host arc runs from
        an extension ancestor to a descendant, so none joins two sibling
        subtrees, and the only arcs between the subtree of `c` and the rest
        of the subtree of `t` leave `t`.  So the host below `t` is connected
        if the host below each `c` is and each holds a host child of `t`,
        and it is not connected if some `c` holds none.  A vertex with one
        extension child holds all its host children in that child's
        subtree, and a vertex whose extension children are its host
        children has each child as its own witness, so only the other
        vertices with two or more need the range test.  A vertex with more
        extension than host children fails it.
        Only when the test fails does a union-find name the vertices below
        which the host is not connected.  A host arc leaves an extension
        ancestor of its head, so every leaf of the extension is a host
        leaf, and the leaf sets differ iff a host leaf has extension
        children, which breaks the out-degree clause.
        """
        index = self._valid_index()
        pre, end = index.pre, index.end
        host_children = self.host._children
        connected, over = True, []
        # Both maps are keyed in the order of the one vertex set.
        for (t, cs), ws in zip(self.gamma._children.items(), host_children.values()):
            if len(cs) > len(ws):
                over.append(t)
            elif len(cs) > 1 and connected and cs != ws:
                held = sorted([pre[w] for w in ws])
                for c in cs:
                    i = bisect_left(held, pre[c])
                    if i == len(held) or held[i] >= end[c]:
                        connected = False
                        break
        out = [] if connected and not over else self._disconnected()
        if any(not host_children[v] for v in over):
            out.append("leaf sets of extension and host differ")
        out += [f"extension out-degree exceeds host out-degree at {v}" for v in over]
        return out

    def _disconnected(self) -> list[str]:
        """A violation for each vertex below which the host is not weakly
        connected, in vertex order."""
        index = self._valid_index()
        host_children, gamma_children = self.host._children, self.gamma._children
        # The host arcs inside the subtree of t are the out-arcs of its
        # vertices, so a bottom-up union-find over out-arcs sees each
        # subtree's weak components when its top vertex is done.
        link: dict[str, str] = {}
        components: dict[str, int] = {}
        for t in reversed(index.order):
            link[t] = t
            count = 1 + sum(components[c] for c in gamma_children[t])
            for w in host_children[t]:
                # Roots are linked only to the vertex being done, so t is its own.
                b = _find(link, w)
                if b != t:
                    link[b] = t
                    count -= 1
            components[t] = count
        return [f"host below {t} is not weakly connected"
                for t in self.gamma.vertices if components[t] != 1]


# -- canonicalization ------------------------------------------------------


def _find(link: dict[str, str], v: str) -> str:
    """The root of `v` in the union-find forest `link`, compressing the path."""
    root = v
    while link[root] != root:
        root = link[root]
    while link[v] != root:
        link[v], v = root, link[v]
    return root


def _canonical_parent(children, order) -> dict[str, str]:
    """The parent map of the canonical extension built from a children-first
    vertex order, `children[v]` being the sorted host children of `v`.

    Processes vertices in `order`, maintaining a forest over the processed
    prefix; a vertex adopts the root of every forest component that contains
    one of its host children.  Components coincide with the weakly connected
    components of the host induced on the prefix, which yields the canonical
    connectivity property and never enlarges any scan cut.

    For a valid extension, every children-first order of its tree gives the
    same map: when `v` comes, the components holding its host children are
    the weak components of the host below `v` in the tree, and each has one
    topmost vertex in the tree, which is its root whatever the order.
    """
    link: dict[str, str] = {}
    tree_parent: dict[str, str] = {}
    for v in order:
        link[v] = v
        for c in children[v]:
            # Roots are linked only to the vertex being done, so a root is
            # its component's top, and a child already adopted finds v.
            root = _find(link, c)
            if root != v:
                tree_parent[root] = v
                link[root] = v
    return tree_parent


def _extension(host: Digraph, parent) -> TreeExtension:
    """The extension of `host` whose tree is `parent` (child -> parent), a
    tree over the host's vertices."""
    vertices = host.vertices
    arcs = [(parent[v], v) for v in vertices if v in parent]
    gamma = Digraph._of(vertices, *_adjacency(vertices, arcs), {})
    return TreeExtension(host, gamma)


def _out_tree(host: Digraph) -> bool:
    """Whether the rooted `host` is an out-tree, read from facts that
    `classify` caches: one root and no vertex with two parents, and then
    `is_acyclic()`, which for such a graph is one walk from the root.

    An out-tree is its own canonical extension, whatever extension it is
    canonicalized from.  In a canonical extension the host below every
    vertex `v` is weakly connected; it holds every host descendant of `v`,
    as each host arc points down the extension, and not `v`'s host parent,
    which lies above `v`.  In an out-tree the only arc between the
    descendants of `v` and the other vertices is the one from that parent,
    so the host below `v` is exactly the host subtree of `v`.  Both trees
    then have the same subtrees, so they are one tree.  Raises
    `InputError` for a host with other than one root, and for a cyclic
    one without a vertex of in-degree 2 or more."""
    if len(host.roots) != 1:
        raise InputError("need a rooted host")
    if host.max_in_degree > 1:
        return False
    if not host.is_acyclic():
        raise InputError("graph is not acyclic")
    return True


def _itself(host: Digraph) -> TreeExtension:
    """An out-tree `host` as its own extension; the tree shares the host's
    immutable maps."""
    return TreeExtension(host, Digraph._of(host.vertices, host._parents, host._children, {}))


def canonicalize(ext: TreeExtension) -> TreeExtension:
    """A canonical extension of the same host with no larger width.

    A host with no vertex of in-degree 2 or more, which the valid extension
    proves acyclic, is an out-tree and its own canonical form (see
    `_out_tree`): it skips the union-find and the rebuild of the tree."""
    index = ext._valid_index()
    host = ext.host
    if len(host.roots) != 1:
        raise InputError("canonicalization needs a rooted host")
    if host.max_in_degree <= 1:
        return _itself(host)
    order = reversed(index.order)
    return _extension(host, _canonical_parent(host._children, order))


def _default_parent(host: Digraph) -> dict[str, str]:
    """The parent map of `default_extension(host)`.  An out-tree gives its
    own parent map (see `_out_tree`); any other rooted DAG is built by the
    union-find of `_canonical_parent` along the reverse of its sorted
    topological order."""
    if _out_tree(host):
        return {v: ps[0] for v, ps in host._parents.items() if ps}
    return _canonical_parent(host._children, reversed(host.topological_order()))


def default_extension(host: Digraph) -> TreeExtension:
    """A canonical extension built from scratch (no width optimality
    claimed).  An out-tree is its own, with no sorted pass, no union-find
    and no rebuild (see `_out_tree`)."""
    if _out_tree(host):
        return _itself(host)
    return _extension(host, _default_parent(host))


def _root_first(vertices, parent) -> list[str]:
    """The vertices of the tree `parent` (child -> parent), breadth first
    from the root."""
    kids: dict[str, list[str]] = {v: [] for v in vertices}
    roots = []
    for v in vertices:
        p = parent.get(v)
        if p is None:
            roots.append(v)
        else:
            kids[p].append(v)
    return _walk(kids, roots)


def _cut_above(order, parent, parents, children) -> dict[str, int]:
    """The size of the cut just above each vertex of a valid extension, given
    its vertices root first, its parent map and the host's adjacency.

    The cut above t counts the arcs entering the subtree of t: the in-arcs
    of its vertices minus the arcs inside it, which are exactly their
    out-arcs.
    """
    above = {v: len(parents[v]) - len(children[v]) for v in order}
    for v in reversed(order[1:]):
        above[parent[v]] += above[v]
    return above


# -- maintenance under pipeline rewrites ------------------------------------
#
# Each step of the reduction owns one rewrite, `step.rewrite(state)`, which
# changes a `RewriteState` in place: the host and the extension tree.
# `update_extension(ext, step)` runs that rewrite on a new state and builds
# the result once.  A step's `kind` names it in the output of `stc reduce`.


class RewriteState:
    """A host and a tree extension of it, as mutable maps, and its width.

    The host is `parents` and `children` (vertex -> sorted tuple of
    vertices) and `labels`: copies of the maps of the host last taken, in
    which a rewrite replaces the tuples of the vertices it touches, so
    `host()` builds a graph from them without sorting a tuple.  The
    extension is `parent` (child -> parent; the root has no entry).
    `width` is measured by `take`, the only rewrite that can change it.
    `canonical` says whether `parent` is canonical by construction: it is
    when it came from `_default_parent`, and the in-splits and the root
    attachment keep it so; a map given to `take` is not known to be.
    """

    def __init__(self, host: Digraph, parent, order):
        self.take(host, parent, order)

    @classmethod
    def carrying(cls, host: Digraph, ext: TreeExtension | None = None) -> "RewriteState":
        """`host` with `ext`, by default `default_extension(host)`.

        The default tree of an out-tree is the host's own (see `_out_tree`),
        listed root first by one walk from its root.  Any other default
        tree is built children first along the reverse of the host's sorted
        topological order, and a vertex adopts only vertices done before
        it, so that order lists every parent before its children."""
        if ext is None:
            parent = _default_parent(host)
            if host.max_in_degree <= 1:
                order = _walk(host._children, host.roots)
            else:
                order = host.topological_order()
            state = cls(host, parent, order)
            state.canonical = True
            return state
        index = ext._valid_index()
        return cls(host, dict(index.parent), index.order)

    def take(self, host: Digraph, parent, order) -> None:
        """Make `host` the state's host and `parent` its extension, and
        measure the width; fresh ids are the host's `fresh_names()`.
        `order` lists the vertices root first for `parent`."""
        self.parents = dict(host._parents)
        self.children = dict(host._children)
        self.labels = host._labels
        self._names = host.fresh_names()
        self.parent = parent
        self.canonical = False
        self.width = max(_cut_above(order, parent, host._parents, host._children).values())

    def fresh_id(self) -> str:
        """The next of the host's `fresh_names()` from the last `take`: no
        vertex has it, if every vertex added since came from here."""
        return next(self._names)

    def host(self) -> Digraph:
        # New vertices were added last: only the keys need sorting.
        vertices = tuple(sorted(self.parents))
        parents, children = self.parents, self.children
        return Digraph._of(vertices, {v: parents[v] for v in vertices},
                           {v: children[v] for v in vertices}, self.labels)

    def canonical_extension(self) -> TreeExtension:
        """The host, built once, with the canonical form of the carried
        extension: what `canonicalize` returns for that extension.  A host
        with one root and no vertex of in-degree 2 or more, which the
        carried extension proves acyclic, is an out-tree and that form
        itself (see `_out_tree`).  Otherwise, when `canonical` holds, it is
        the carried extension: on a canonical extension, the subtrees of a
        vertex's children are the weak components that `_canonical_parent`
        meets there."""
        host = self.host()
        if len(host.roots) == 1 and host.max_in_degree <= 1:
            return _itself(host)
        parent = self.parent
        if not self.canonical:
            order = reversed(_root_first(host.vertices, parent))
            parent = _canonical_parent(host._children, order)
        return _extension(host, parent)


class AttachRootStep(namedtuple("AttachRootStep", "new_root")):
    """A fresh degree-1 root was attached above the host root."""
    __slots__ = ()
    kind = "attach_root"

    def rewrite(self, state: RewriteState) -> None:
        """Leaves the width as it is: the new arc enters only the subtree of
        the old root, whose cut was empty, and every arc of the host (a
        network has one) crosses the cut above its head, so the width is
        already at least 1.

        Keeps a canonical extension canonical: the host below the new root
        is the old host plus the new arc, so it is weakly connected; the new
        root has one child in both graphs; and no other subtree changes."""
        new = self.new_root
        if new in state.parents:
            raise InputError(f"root id {new!r} already present")
        roots = [v for v, ps in state.parents.items() if not ps]
        if len(roots) != 1:
            raise InputError(f"graph has {len(roots)} roots, expected 1")
        (root,) = roots
        state.parents[new], state.children[new] = (), (root,)
        state.parents[root] = (new,)
        state.parent[root] = new    # the host root tops a valid extension


class InSplitStep(namedtuple("InSplitStep", "vertex parents new_vertex")):
    """Two parents of `vertex` were moved above the fresh `new_vertex`."""
    __slots__ = ()
    kind = "insplit"

    def rewrite(self, state: RewriteState) -> None:
        """Leaves the width as it is: `p1` and `p2` lie above `new` in a
        valid extension, so the cut above `new` is the old cut above `v`,
        the cut above `v` loses one arc, as one arc enters `v` where two
        did, and no other cut changes.

        Keeps a canonical extension canonical: the host below `new` is the
        host below `v` plus the arc `new -> v`, so it is weakly connected; in
        a larger subtree, a walk along `p1 -> v` or `p2 -> v` now runs
        through `new`; `new` has one child in both graphs, every other
        out-degree stays, and no leaf changes."""
        v, (p1, p2), new = self.vertex, self.parents, self.new_vertex
        ps = state.parents.get(v)
        if ps is None:
            raise InputError(f"unknown vertex {v!r}")
        if len(ps) < 3:
            raise RewriteError(f"in-split needs in-degree >= 3 at {v!r}")
        if p1 == p2 or p1 not in ps or p2 not in ps:
            raise RewriteError(f"in-split needs two distinct parents of {v!r}")
        if new in state.parents:
            raise RewriteError(f"split vertex {new!r} already exists")
        state.parents[v] = tuple(sorted([p for p in ps if p != p1 and p != p2] + [new]))
        for p in (p1, p2):
            state.children[p] = tuple(sorted([new if c == v else c
                                              for c in state.children[p]]))
        state.parents[new], state.children[new] = tuple(sorted((p1, p2))), (v,)
        # `v` has parents, so it is no root of the valid extension.
        state.parent[new] = state.parent[v]
        state.parent[v] = new


class RestrictStep(namedtuple("RestrictStep", "new_host")):
    """The host was pruned down to `new_host`; removed vertices contract away."""
    __slots__ = ()
    kind = "prune"

    def rewrite(self, state: RewriteState) -> None:
        """The one rewrite that can change the width; `take` measures it."""
        # `prune_to_leafset` computed the pruned host from the state's host.
        host = self.new_host
        parent = _restricted_parent(state.parent, state.parents, host)
        state.take(host, parent, _root_first(host.vertices, parent))


def update_extension(ext: TreeExtension, step) -> TreeExtension:
    """Carry a valid extension across one pipeline rewrite of its host."""
    if not isinstance(step, (AttachRootStep, InSplitStep, RestrictStep)):
        raise InternalError(f"unknown extension update step: {step!r}")
    state = RewriteState.carrying(ext.host, ext)
    step.rewrite(state)
    return _extension(state.host(), state.parent)


def _restricted_parent(parent, vertices, host: Digraph) -> dict[str, str]:
    """The tree `parent` over `vertices` restricted to the vertices of the
    pruned `host`: each hangs below its nearest surviving ancestor.

    Only the pruned root is left without a parent.  Each arc of the pruned
    host stands for a host path, whose arcs lie inside the tree's ancestor
    relation; so the pruned root is an ancestor of every surviving vertex,
    and none is its ancestor.  A `host` that is no pruning is refused.
    """
    unknown = [v for v in host.vertices if v not in vertices]
    if unknown:
        raise InputError(f"restricted host has unknown vertices: {unknown}")
    surviving, root = host._parents, host.root()
    new_parent = {}
    for v in host.vertices:
        p = parent.get(v)
        while p is not None and p not in surviving:
            p = parent.get(p)
        if p is not None:
            new_parent[v] = p
        elif v != root:
            raise InputError(f"restricted host is no pruning: {v!r} keeps no ancestor")
    return new_parent
